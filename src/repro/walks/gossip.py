"""Randomized rumor spreading (gossip) baselines.

The paper positions cobra walks against push gossip: in the *push*
model every informed vertex tells one uniform neighbor per round (the
informed set only grows — the key structural difference from cobra
walks, whose active set can shrink).  Feige et al. prove push
completes on any graph in ``O(n log n)`` rounds whp, a bound
conjectured to carry over to cobra walks.

:class:`GossipSpread` is the stepping process (registered as
``"push"``, ``"pull"``, and ``"push_pull"`` in
:mod:`repro.sim.processes`).
"""

from __future__ import annotations

import numpy as np

from ..graphs.base import Graph, sample_uniform_neighbors
from ..sim.rng import SeedLike, resolve_rng

__all__ = ["GossipSpread"]


class GossipSpread:
    """Push and/or pull rumor spreading as a stepping process.

    Per round: every informed vertex pushes to one uniform neighbor
    (``push=True``), and/or every uninformed vertex polls one uniform
    neighbor and learns the rumor if that neighbor knows it
    (``pull=True``).  The informed set only grows.
    """

    def __init__(
        self,
        graph: Graph,
        *,
        start: int = 0,
        push: bool = True,
        pull: bool = False,
        seed: SeedLike = None,
    ) -> None:
        if not (push or pull):
            raise ValueError("enable at least one of push/pull")
        if not (0 <= start < graph.n):
            raise ValueError("start out of range")
        self.graph = graph
        self.push = bool(push)
        self.pull = bool(pull)
        self.rng = resolve_rng(seed)
        self.t = 0
        self.informed = np.zeros(graph.n, dtype=bool)
        self.informed[start] = True
        self.first_visit = np.full(graph.n, -1, dtype=np.int64)
        self.first_visit[start] = 0
        self._num_covered = 1
        self._all_vertices = np.arange(graph.n, dtype=np.int64)

    @property
    def num_covered(self) -> int:
        """Number of informed vertices."""
        return self._num_covered

    @property
    def all_covered(self) -> bool:
        return self._num_covered == self.graph.n

    def step(self) -> np.ndarray:
        """One gossip round; returns the informed mask."""
        self.t += 1
        fresh_mask = np.zeros(self.graph.n, dtype=bool)
        if self.push:
            senders = self._all_vertices[self.informed]
            targets = sample_uniform_neighbors(self.graph, senders, self.rng)
            fresh_mask[targets] = True
        if self.pull:
            askers = self._all_vertices[~self.informed]
            if askers.size:
                sources = sample_uniform_neighbors(self.graph, askers, self.rng)
                fresh_mask[askers[self.informed[sources]]] = True
        fresh_mask &= ~self.informed
        if fresh_mask.any():
            self.informed |= fresh_mask
            self.first_visit[fresh_mask] = self.t
            self._num_covered = int(self.informed.sum())
        return self.informed


def _budget(n: int) -> int:
    return max(10_000, 100 * n * max(1, int(np.ceil(np.log(max(n, 2))))))
