"""Matthews-type bound utilities (paper Theorem 1, from Dutta et al.).

For cobra walks, ``cover ≤ O(h_max · log n)`` — and the walk covers
within that many steps with high probability.  The helpers here
measure both sides so the ``T1_matthews`` experiment can exhibit the
ratio staying under a constant multiple of ``log n``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..graphs.base import Graph
from ..sim.rng import SeedLike, spawn_seeds
from .bounds import matthews_cover_bound
from .hitting import max_hitting_time_estimate

__all__ = ["MatthewsCheck", "matthews_check"]


@dataclass(frozen=True)
class MatthewsCheck:
    """Measured pieces of the Theorem 1 inequality on one graph.

    ``ratio = cover_mean / hmax`` should stay below ``O(log n)``;
    ``bound`` is ``h_max · H_n``, the explicit Matthews value.
    """

    graph_name: str
    n: int
    hmax: float
    cover_mean: float
    bound: float
    ratio: float
    log_n: float

    @property
    def satisfied(self) -> bool:
        """Whether the measured mean cover time respects the bound."""
        return self.cover_mean <= self.bound


def matthews_check(
    graph: Graph,
    *,
    k: int = 2,
    cover_trials: int = 10,
    hit_trials: int = 5,
    pairs: int | None = None,
    seed: SeedLike = None,
) -> MatthewsCheck:
    """Estimate ``h_max`` and mean cover time, and assemble the
    Theorem 1 comparison.

    Both sides run on cobra's vectorized batched engine: hitting trials
    through :func:`max_hitting_time_estimate` (its hit rule), cover
    trials through :func:`repro.sim.facade.run_batch` (its cover
    rule)."""
    from ..sim.facade import run_batch

    s_hit, s_cover = spawn_seeds(seed, 2)
    hmax = max_hitting_time_estimate(
        graph, k=k, trials=hit_trials, pairs=pairs, seed=s_hit
    )
    cover_mean = run_batch(graph, "cobra", trials=cover_trials, seed=s_cover, k=k).mean
    hmax = max(hmax, 1.0)
    return MatthewsCheck(
        graph_name=graph.name,
        n=graph.n,
        hmax=hmax,
        cover_mean=cover_mean,
        bound=matthews_cover_bound(hmax, graph.n),
        ratio=cover_mean / hmax,
        log_n=float(np.log(graph.n)),
    )
