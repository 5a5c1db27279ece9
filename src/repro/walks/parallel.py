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
from ..sim.rng import SeedLike, resolve_rng

__all__ = ["ParallelWalks"]


class ParallelWalks:
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
        if walkers < 1:
            raise ValueError("need at least one walker")
        rng = resolve_rng(seed)
        pos = np.atleast_1d(np.asarray(start, dtype=np.int64))
        if pos.size == 1:
            pos = np.full(walkers, pos[0], dtype=np.int64)
        if pos.size != walkers:
            raise ValueError("start must be scalar or length == walkers")
        if pos.min() < 0 or pos.max() >= graph.n:
            raise ValueError("start out of range")
        self.graph = graph
        self.positions = pos.copy()
        self.rng = rng
        self.t = 0
        self.first_visit = np.full(graph.n, -1, dtype=np.int64)
        self.first_visit[np.unique(pos)] = 0
        self._num_covered = int((self.first_visit >= 0).sum())

    @property
    def num_walkers(self) -> int:
        return int(self.positions.size)

    @property
    def num_covered(self) -> int:
        return self._num_covered

    @property
    def all_covered(self) -> bool:
        return self._num_covered == self.graph.n

    def step(self) -> np.ndarray:
        """Move every walker to a uniform neighbor; returns positions."""
        self.t += 1
        self.positions = sample_uniform_neighbors(self.graph, self.positions, self.rng)
        fresh = self.positions[self.first_visit[self.positions] < 0]
        if fresh.size:
            self.first_visit[fresh] = self.t
            self._num_covered += int(np.unique(fresh).size)
        return self.positions


def _default_budget(n: int, walkers: int) -> int:
    return max(200_000, n**3 // max(walkers, 1))


