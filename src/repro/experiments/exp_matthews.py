"""``T1_matthews`` — Theorem 1: cobra cover is ``O(h_max · log n)``.

On a portfolio of structurally different graphs, estimate ``h_max``
(sampled worst pair hitting time) and the mean cover time; the ratio
``cover/h_max`` must stay below ``H_n`` (the Matthews multiplier).

Both estimates run on cobra's vectorized batched engine (its hit rule
for the pair sweep, its cover rule for the cover trials);
budget-exhausted hitting trials are clamped to the budget
rather than dropped, so ``h_max`` is never silently underestimated
where hitting is hardest.
"""

from __future__ import annotations

from ..analysis import Table
from ..core import harmonic_number, matthews_check
from ..graphs import cycle_graph, grid, hypercube, kary_tree, lollipop, star_graph
from ..sim.rng import spawn_seeds
from .registry import ExperimentResult, register

_CFG = {
    "quick": dict(cover_trials=8, hit_trials=3, pairs=30),
    "full": dict(cover_trials=20, hit_trials=8, pairs=120),
}


@register("T1_matthews", "Thm 1: cobra cover <= O(h_max log n) (whp)")
def run(*, scale: str = "quick", seed: int = 0) -> ExperimentResult:
    cfg = _CFG[scale]
    graphs = [
        cycle_graph(48),
        grid(8, 2),
        hypercube(6),
        kary_tree(2, 5),
        star_graph(64),
        lollipop(36),
    ]
    table = Table(
        ["graph", "n", "hmax", "cover mean", "cover/hmax", "H_n", "within bound"],
        title="T1 Matthews-type bound for cobra walks",
    )
    findings: dict[str, float] = {}
    all_ok = True
    for g, s in zip(graphs, spawn_seeds(seed, len(graphs))):
        chk = matthews_check(g, seed=s, **cfg)
        ok = chk.ratio <= harmonic_number(g.n) + 1e-9
        all_ok &= ok
        table.add_row(
            [g.name, g.n, chk.hmax, chk.cover_mean, chk.ratio, harmonic_number(g.n), ok]
        )
        findings[f"ratio_{g.name}"] = chk.ratio
    findings["all_within_bound"] = float(all_ok)
    return ExperimentResult(
        experiment_id="T1_matthews",
        tables=[table],
        findings=findings,
        notes=(
            "hmax is a sampled estimate (a lower bound on the true maximum), "
            "making the ratio an upper estimate — the conservative direction "
            "for checking the O(hmax log n) claim."
        ),
    )
