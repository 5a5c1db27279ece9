"""Pure branching random walk (no coalescence).

Every particle spawns ``k`` children on uniform random neighbors each
step; particles at the same vertex stack instead of merging.  Without
the cobra walk's coalescence the population grows geometrically — this
baseline shows why coalescence is the interesting ingredient: coverage
is fast but the particle count (the resource the paper's model keeps
bounded by ``n``) explodes.

The population is tracked as per-vertex counts with a configurable
cap; runs that hit the cap report it.
"""

from __future__ import annotations

import numpy as np

from ..graphs.base import Graph
from ..sim.processes import CoverageLedger
from ..sim.rng import SeedLike, resolve_rng

__all__ = ["BranchingWalk"]


class BranchingWalk(CoverageLedger):
    """k-branching walk with per-vertex particle counts."""

    def __init__(
        self,
        graph: Graph,
        *,
        k: int = 2,
        start: int = 0,
        seed: SeedLike = None,
        population_cap: int = 1_000_000,
    ) -> None:
        if k < 1:
            raise ValueError("k must be >= 1")
        if not (0 <= start < graph.n):
            raise ValueError("start out of range")
        self.graph = graph
        self.k = int(k)
        self.rng = resolve_rng(seed)
        self.counts = np.zeros(graph.n, dtype=np.int64)
        self.counts[start] = 1
        self.t = 0
        self.cap = int(population_cap)
        self.hit_cap = False
        super().__init__(graph.n, start)

    @property
    def population(self) -> int:
        return int(self.counts.sum())

    def step(self) -> None:
        """Every particle emits k children to uniform neighbors.

        Implemented multinomially per occupied vertex: the ``k·c``
        children of the ``c`` particles at ``v`` distribute over
        ``N(v)`` as a multinomial draw (equivalent to, and much faster
        than, per-particle sampling).  When the population exceeds the
        cap, counts are renormalised down proportionally (coverage
        statistics remain valid; the flag records saturation).
        """
        self.t += 1
        occupied = np.flatnonzero(self.counts)
        new_counts = np.zeros_like(self.counts)
        for v in occupied:
            kids = self.k * int(self.counts[v])
            nbrs = self.graph.neighbors(int(v))
            split = self.rng.multinomial(kids, np.full(nbrs.size, 1.0 / nbrs.size))
            new_counts[nbrs] += split
        self.counts = new_counts
        pop = self.population
        if pop > self.cap:
            self.hit_cap = True
            scale = self.cap / pop
            self.counts = np.maximum(
                (self.counts * scale).astype(np.int64),
                (self.counts > 0).astype(np.int64),
            )
        self.mark(self.t, np.flatnonzero(self.counts))


def _budget(n: int) -> int:
    return max(10_000, 50 * n)
