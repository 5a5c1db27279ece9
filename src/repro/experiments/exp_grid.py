"""``T3_grid`` — Theorem 3 / Lemma 2: 2-cobra cover on ``[0,n]^d`` is O(n).

Sweep the grid extent ``n`` for ``d ∈ {1, 2, 3}``, measure the mean
2-cobra cover time, and fit the growth exponent: Theorem 3 predicts
exponent 1 in ``n`` (for every fixed ``d``).  The simple-random-walk
baseline on the same graphs has exponent 2 (path/2-D grid up to logs),
so the gap between rows is the paper's headline grid result.

The Monte-Carlo surface is the registered ``T3_grid`` sweep
(:mod:`repro.store.sweeps`): this runner just drives its campaigns
through an ephemeral store and tabulates ``store.frame()`` — point the
CLI's ``sweep run T3_grid --store DIR`` at a directory to make the
same cells durable and resumable.
"""

from __future__ import annotations

import numpy as np

from ..analysis import Table, ascii_loglog
from ..store.sweeps import T3_SWEEPS
from .registry import ExperimentResult, register, run_campaigns


@register("T3_grid", "Thm 3: 2-cobra cover time on [0,n]^d is O(n)")
def run(*, scale: str = "quick", seed: int = 0) -> ExperimentResult:
    campaigns = run_campaigns("T3_grid", scale=scale, seed=seed)

    tables: list[Table] = []
    findings: dict[str, float] = {}
    series: dict[str, tuple[list[int], list[float]]] = {}
    for d, ns in T3_SWEEPS[scale].items():
        cobra = campaigns[f"T3_grid/cobra_d{d}"].frame().sort_by("g_n")
        rw_campaign = campaigns.get(f"T3_grid/rw_d{d}")
        rw = rw_campaign.frame() if rw_campaign is not None else []
        rw_by_n = {row["g_n"]: row["mean"] for row in rw}
        table = Table(
            ["n", "vertices", "cobra cover", "±95%", "cover/n", "rw cover", "rw/cobra"],
            title=f"T3 grid d={d} (2-cobra cover vs n; bound O(n))",
        )
        covers = []
        for row in cobra:
            n = row["g_n"]
            rw_mean = rw_by_n.get(n, np.nan)
            covers.append(row["mean"])
            table.add_row(
                [
                    n,
                    row["graph_n"],
                    row["mean"],
                    row["ci95_half_width"],
                    row["mean"] / n,
                    rw_mean,
                    rw_mean / row["mean"] if np.isfinite(rw_mean) else np.nan,
                ]
            )
        fit = cobra.fit_power_law(x="g_n")
        findings[f"cobra_exponent_d{d}"] = fit.exponent
        findings[f"cobra_exponent_ci95_d{d}"] = fit.exponent_ci95
        table.add_row(["fit", "", f"n^{fit.exponent:.3f}", f"±{fit.exponent_ci95:.3f}", "", "", ""])
        tables.append(table)
        series[f"cobra d={d}"] = (ns, covers)
    figure = ascii_loglog(
        series, title="T3: cobra cover vs n (log-log; slope 1 = Theorem 3)"
    )
    return ExperimentResult(
        experiment_id="T3_grid",
        tables=tables,
        figures=[figure],
        findings=findings,
        notes=(
            "Theorem 3 predicts exponent 1 for every fixed d; the paper's "
            "constants depend on d, visible in the cover/n column."
        ),
    )
