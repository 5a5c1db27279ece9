"""``BASE_compare`` — positioning table: cobra vs the related processes.

The related-work section situates cobra walks between push gossip,
parallel random walks, and simple random walks.  One table per graph
family: mean rounds to full coverage for each process from the same
start.  The expected ordering (the paper's narrative):

* expanders — cobra ≈ push ≈ polylog, simple RW ≈ n log n;
* grids — cobra ≈ diameter-linear, simple RW ≈ quadratic;
* lollipop — cobra linear-ish, simple RW cubic;
* star — everyone pays the Θ(n log n) coupon collector.

The Monte-Carlo surface is the registered ``BASE_compare`` sweep
(:mod:`repro.store.sweeps`): one spec per (graph family, process arm),
all sharing one store.
"""

from __future__ import annotations

import numpy as np

from ..analysis import Table
from ..store.sweeps import base_compare_graphs
from .registry import ExperimentResult, register, run_campaigns

#: arm → table column, in render order
_COLUMNS = [
    ("cobra", "cobra k=2"),
    ("walt", "walt δ=.5"),
    ("push", "push"),
    ("parallel", "2 parallel RW"),
    ("simple", "simple RW"),
    ("lazy", "lazy RW"),
]


@register("BASE_compare", "Related work: cobra vs push gossip vs parallel/simple RW")
def run(*, scale: str = "quick", seed: int = 0) -> ExperimentResult:
    campaigns = run_campaigns("BASE_compare", scale=scale, seed=seed)

    table = Table(
        ["graph", "n"] + [col for _, col in _COLUMNS],
        title="BASE mean rounds to cover (same start vertex)",
    )
    findings: dict[str, float] = {}
    for label, _builder, _gparams, _n in base_compare_graphs(scale, seed):
        means = {}
        gname = gn = None
        for arm, _col in _COLUMNS:
            row = campaigns[f"BASE_compare/{label}/{arm}"].frame().rows[0]
            means[arm] = row["mean"]
            gname, gn = row["graph_name"], row["graph_n"]
        table.add_row([gname, gn] + [means[arm] for arm, _ in _COLUMNS])
        findings[f"cobra_{gname}"] = means["cobra"]
        findings[f"push_{gname}"] = means["push"]
        rw = means["simple"]
        findings[f"rw_speedup_{gname}"] = (
            rw / means["cobra"] if np.isfinite(rw) else np.nan
        )
        findings[f"lazy_{gname}"] = means["lazy"]
    return ExperimentResult(
        experiment_id="BASE_compare",
        tables=[table],
        findings=findings,
        notes=(
            "Simple/lazy-RW entries show '-' where the cover exceeded the "
            "quadratic step budget (the lollipop needs ~n^3) — itself the "
            "point of comparison.  The lazy walk pays roughly twice the "
            "simple walk's cover time (half its steps are holds)."
        ),
    )
