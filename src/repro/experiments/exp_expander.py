"""``C9_expander`` — Corollary 9: constant-degree expander cover is O(log² n).

Random 8-regular graphs have conductance bounded below by a constant
whp, so Corollary 9 predicts polylogarithmic cover.  We sweep ``n``
over a geometric ladder, fit the *power-law* exponent (it must be
≈ 0: covering time grows sub-polynomially), and fit the
``log² n`` shape constant.  The simple-random-walk baseline on the
same graphs needs ``Θ(n log n)`` — the separation the paper's
information-dissemination story rests on.

The Monte-Carlo surface is the registered ``C9_expander`` sweep
(:mod:`repro.store.sweeps`): a cobra campaign over the full ladder and
a simple-walk campaign over the sizes where the baseline is still
cheap, both on the same seeded random-regular graphs (the builder seed
is a graph axis, so the ladder is part of each cell's content hash).
"""

from __future__ import annotations

import numpy as np

from ..analysis import Table, ascii_plot, fit_constant_to_shape, fit_power_law
from .registry import ExperimentResult, register, run_campaigns


@register("C9_expander", "Cor 9: bounded-degree expander cover is O(log^2 n) whp")
def run(*, scale: str = "quick", seed: int = 0) -> ExperimentResult:
    campaigns = run_campaigns("C9_expander", scale=scale, seed=seed)

    # the rw baseline keyed by n (absent beyond its vertex cap)
    rw_mean = {
        row["g_n"]: row["mean"] for row in campaigns["C9_expander/rw"].frame()
    }
    table = Table(
        ["n", "cobra cover", "±95%", "cover/log²n", "rw cover", "rw/(n·log n)"],
        title="C9 random 8-regular expanders",
    )
    ns, covers = [], []
    for row in campaigns["C9_expander/cobra"].frame():
        n = row["g_n"]
        rw = rw_mean.get(n, np.nan)
        ns.append(n)
        covers.append(row["mean"])
        table.add_row(
            [
                n,
                row["mean"],
                row["ci95_half_width"],
                row["mean"] / np.log(n) ** 2,
                rw,
                rw / (n * np.log(n)) if np.isfinite(rw) else np.nan,
            ]
        )
    power = fit_power_law(ns, covers)
    shape = fit_constant_to_shape(ns, covers, lambda v: np.log(v) ** 2)
    table.add_row(["fit", f"n^{power.exponent:.3f}", f"±{power.exponent_ci95:.3f}",
                   f"c={shape.constant:.3f}", "", ""])
    figure = ascii_plot(
        {
            "measured cover": (ns, covers),
            "c·log²n": (ns, [shape.constant * np.log(v) ** 2 for v in ns]),
        },
        logx=True,
        title="C9: expander cover vs log² n shape",
    )
    return ExperimentResult(
        experiment_id="C9_expander",
        tables=[table],
        figures=[figure],
        findings={
            "cobra_power_exponent": power.exponent,
            "log2_shape_constant": shape.constant,
            "log2_shape_max_rel_dev": shape.max_rel_dev,
        },
        notes=(
            "Cor 9 predicts sub-polynomial growth: the fitted power-law "
            "exponent must be far below 1 and the log^2 n constant stable."
        ),
    )
