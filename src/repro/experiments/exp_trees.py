"""``TREES_kary`` — §3 remark: 2-cobra cover on k-ary trees ∝ diameter.

The paper proves the proportionality for ``k ∈ {2, 3}`` via the
Lemma 2 style two-step analysis and conjectures it for every constant
``k``.  We sweep depth for ``k ∈ {2, 3, 4, 5}`` and tabulate
``cover / diameter``: the remark predicts a flat column (constant in
``n``, though the constant may grow with ``k``).

The Monte-Carlo surface is the registered ``TREES_kary`` sweep
(:mod:`repro.store.sweeps`), driven through an ephemeral store and
tabulated off ``store.frame()``.
"""

from __future__ import annotations

import numpy as np

from ..analysis import Table, fit_power_law
from ..store.sweeps import TREES_DEPTHS
from .registry import ExperimentResult, register, run_campaigns


@register("TREES_kary", "§3 remark: k-ary tree cover ∝ diameter (k=2,3 proven; all k conjectured)")
def run(*, scale: str = "quick", seed: int = 0) -> ExperimentResult:
    campaigns = run_campaigns("TREES_kary", scale=scale, seed=seed)

    tables: list[Table] = []
    findings: dict[str, float] = {}
    for k, depths in TREES_DEPTHS[scale].items():
        rows = campaigns[f"TREES_kary/k{k}"].frame().sort_by("g_depth")
        table = Table(
            ["depth", "n", "diameter", "cover", "±95%", "cover/diam"],
            title=f"TREES k={k} ({'proven' if k <= 3 else 'conjectured'})",
        )
        diam, covers = [], []
        for row in rows:
            depth = row["g_depth"]
            d = 2 * depth
            diam.append(d)
            covers.append(row["mean"])
            table.add_row(
                [depth, row["graph_n"], d, row["mean"], row["ci95_half_width"],
                 row["mean"] / d]
            )
        ratios = np.array(covers) / np.array(diam)
        # flatness: exponent of cover in n should be ~0 i.e. log-like
        n_values = [(k ** (dep + 1) - 1) // (k - 1) for dep in depths]
        fit = fit_power_law(n_values, covers)
        findings[f"k{k}_cover_exponent_in_n"] = fit.exponent
        findings[f"k{k}_ratio_spread"] = float(ratios.max() / ratios.min())
        tables.append(table)
    return ExperimentResult(
        experiment_id="TREES_kary",
        tables=tables,
        findings=findings,
        notes=(
            "Cover ∝ diameter means cover grows like depth ~ log n: the "
            "fitted power-law exponent in n must be near 0 and cover/diam "
            "nearly flat down each table."
        ),
    )
