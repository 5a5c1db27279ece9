"""``T15_regular`` — Theorem 15: cobra hitting time on δ-regular graphs
is ``O(n^{2−1/δ})``.

For δ-regular families (cycle δ=2, circulant δ=4, random regular δ=3)
we measure the antipodal/farthest-pair cobra hitting time over an
``n``-ladder and fit the exponent: it must not exceed ``2 − 1/δ``.
The simple-random-walk hitting exponent on the cycle is 2 — the
separation Theorem 15 buys.  (The bound is far from tight on
expander-like regular graphs, where hitting is polylogarithmic; the
claim under test is the upper bound's validity, not tightness.)

The Monte-Carlo surface is the registered ``T15_regular`` sweep
(:mod:`repro.store.sweeps`): one hit-metric campaign per family, each
cell targeting the ``"farthest"`` rule (the BFS-farthest vertex from
0, resolved against the built graph).  The deterministic columns —
the ``n^{2-1/δ}`` bound and the exact random-walk hitting time — are
computed here, next to the stored means.
"""

from __future__ import annotations

import numpy as np

from ..analysis import Table, fit_power_law
from ..core import thm15_regular_hitting
from ..store.sweeps import t15_families
from ..walks import rw_exact_hitting_times
from .registry import ExperimentResult, register, run_campaigns


@register("T15_regular", "Thm 15: δ-regular cobra hitting is O(n^{2-1/δ})")
def run(*, scale: str = "quick", seed: int = 0) -> ExperimentResult:
    campaigns = run_campaigns("T15_regular", scale=scale, seed=seed)

    tables: list[Table] = []
    findings: dict[str, float] = {}
    for key_name, label, delta, _builder, _extra in t15_families(seed):
        campaign = campaigns[f"T15_regular/{key_name}"]
        table = Table(
            ["n", "cobra hit (far pair)", "bound n^{2-1/δ}", "hit/bound", "rw hit exact"],
            title=f"T15 {label}",
        )
        ns, hits = [], []
        # walk the cells in expansion order (the ascending n-ladder):
        # the stored mean rides the record, the deterministic columns
        # rebuild the cell's graph and farthest-pair target
        for cell in campaign.cells:
            record = campaign.store.get(cell)
            mean = record["result"]["mean"]
            n = dict(cell.graph_params)["n"]
            g = cell.build_graph()
            target = cell.resolve_target(g)
            bound = thm15_regular_hitting(n, delta)
            rw_hit = (
                float(rw_exact_hitting_times(g, target)[0]) if n <= 512 else np.nan
            )
            ns.append(n)
            hits.append(mean)
            table.add_row([n, mean, bound, mean / bound, rw_hit])
        fit = fit_power_law(ns, hits)
        key = label.split()[0]
        findings[f"exponent_{key}"] = fit.exponent
        findings[f"bound_exponent_{key}"] = 2.0 - 1.0 / delta
        table.add_row(["fit", f"n^{fit.exponent:.3f}", f"n^{2 - 1/delta:.3f}", "", ""])
        tables.append(table)
    return ExperimentResult(
        experiment_id="T15_regular",
        tables=tables,
        findings=findings,
        notes=(
            "Upper-bound check: measured exponent <= 2 - 1/δ per family. "
            "On the cycle the cobra frontier spreads ballistically, so the "
            "measured exponent is ~1, well under the 1.5 bound; the simple "
            "walk's exact hitting exponent is 2."
        ),
    )
