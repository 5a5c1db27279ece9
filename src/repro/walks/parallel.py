"""Parallel random walks (Alon et al.; Elsässer–Sauerwald).

``k`` independent walkers move simultaneously; the cover time is the
first step at which their union has visited every vertex.  The paper
contrasts cobra walks with this model: parallel walks keep a fixed
walker budget while the cobra frontier breathes with the topology.

:class:`ParallelWalks` is the stepping process (registered as
``"parallel"`` in :mod:`repro.sim.processes`).
"""

from __future__ import annotations

import numpy as np

from ..graphs.base import Graph, sample_uniform_neighbors
from ..sim.processes import CoverageLedger
from ..sim.rng import SeedLike, resolve_rng

__all__ = ["ParallelWalks"]


class ParallelWalks(CoverageLedger):
    """``walkers`` independent simple walks advanced in lock-step.

    ``start`` may be one vertex (all walkers there — the setting of
    Alon et al.'s worst-case results) or an array of length *walkers*.
    One batched neighbor draw moves every walker per step.
    """

    def __init__(
        self,
        graph: Graph,
        *,
        walkers: int = 2,
        start: int | np.ndarray = 0,
        seed: SeedLike = None,
    ) -> None:
        pos = _start_positions(graph.n, walkers, start)
        self.graph = graph
        self.positions = pos.copy()
        self.rng = resolve_rng(seed)
        self.t = 0
        super().__init__(graph.n, pos)

    @property
    def num_walkers(self) -> int:
        return int(self.positions.size)

    def step(self) -> np.ndarray:
        """Move every walker to a uniform neighbor; returns positions."""
        self.t += 1
        self.positions = sample_uniform_neighbors(self.graph, self.positions, self.rng)
        fresh = self.positions[self.first_activation[self.positions] < 0]
        if fresh.size:
            self.mark(self.t, np.unique(fresh))
        return self.positions


def _start_positions(n: int, walkers: int, start: int | np.ndarray) -> np.ndarray:
    """``int64[walkers]`` start positions from one vertex or one per
    walker, validated against ``n`` vertices."""
    if walkers < 1:
        raise ValueError("need at least one walker")
    pos = np.atleast_1d(np.asarray(start, dtype=np.int64))
    if pos.size == 1:
        pos = np.full(walkers, pos[0], dtype=np.int64)
    if pos.size != walkers:
        raise ValueError("start must be scalar or length == walkers")
    if pos.min() < 0 or pos.max() >= n:
        raise ValueError("start out of range")
    return pos


def _default_budget(n: int, walkers: int) -> int:
    return max(200_000, n**3 // max(walkers, 1))


