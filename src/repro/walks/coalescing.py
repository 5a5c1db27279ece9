"""Coalescing random walks (the voter-model dual).

Multiple walkers; when two or more meet at a vertex they merge into
one.  The paper cites this process (Cooper et al.) as the *pure
coalescing* end of the spectrum whose combination with branching
yields the cobra walk.  We expose the meeting/coalescence time — the
time until a single walker remains — and coverage.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..graphs.base import Graph, sample_uniform_neighbors
from ..sim.rng import SeedLike, resolve_rng

__all__ = ["CoalescingWalks", "coalescing_start_positions"]


@dataclass
class CoalescingRunResult:
    """Outcome of a coalescing run."""

    coalesced: bool
    steps: int
    walkers_left: int
    first_visit: np.ndarray


class CoalescingWalks:
    """Independent walkers that merge on meeting."""

    def __init__(
        self,
        graph: Graph,
        positions: np.ndarray,
        *,
        seed: SeedLike = None,
    ) -> None:
        positions = np.unique(np.asarray(positions, dtype=np.int64))
        if positions.size == 0:
            raise ValueError("need at least one walker")
        if positions.min() < 0 or positions.max() >= graph.n:
            raise ValueError("walker position out of range")
        self.graph = graph
        self.positions = positions
        self.rng = resolve_rng(seed)
        self.t = 0
        self.first_visit = np.full(graph.n, -1, dtype=np.int64)
        self.first_visit[positions] = 0
        self._num_covered = int(positions.size)

    @property
    def num_walkers(self) -> int:
        return int(self.positions.size)

    @property
    def num_covered(self) -> int:
        """Number of vertices some walker has visited."""
        return self._num_covered

    @property
    def all_covered(self) -> bool:
        return self._num_covered == self.graph.n

    def step(self) -> np.ndarray:
        """All walkers move; co-located walkers merge."""
        self.t += 1
        moved = sample_uniform_neighbors(self.graph, self.positions, self.rng)
        self.positions = np.unique(moved)
        fresh = self.positions[self.first_visit[self.positions] < 0]
        if fresh.size:
            self.first_visit[fresh] = self.t
            self._num_covered += int(fresh.size)
        return self.positions

    def run_until_coalesced(self, max_steps: int) -> CoalescingRunResult:
        while self.num_walkers > 1 and self.t < max_steps:
            self.step()
        return CoalescingRunResult(
            coalesced=self.num_walkers == 1,
            steps=self.t,
            walkers_left=self.num_walkers,
            first_visit=self.first_visit.copy(),
        )


def _walker_positions(start) -> np.ndarray | None:
    """Explicit walker positions: an array ``start``, or ``None`` (for
    ``None`` and the facade default ``0``) to defer to the default
    placement.  A scalar start would mean one trivially coalesced
    walker, so any other scalar raises."""
    if start is not None and np.ndim(start) > 0:
        return np.asarray(start, dtype=np.int64)
    if start not in (None, 0):
        raise ValueError(
            "the coalescing process takes an array of walker positions "
            "as start (or the walkers= count); a scalar start has no "
            "meaning for a multi-walker coalescing system"
        )
    return None


def coalescing_start_positions(
    graph: Graph, walkers: int | None, rng: np.random.Generator
) -> np.ndarray:
    """Initial walker placement: distinct uniform vertices, one per
    vertex when *walkers* is ``None`` (the classical setting)."""
    if walkers is None or walkers >= graph.n:
        return np.arange(graph.n, dtype=np.int64)
    return rng.choice(graph.n, size=walkers, replace=False)


def _budget(n: int) -> int:
    return max(100_000, 20 * n**2)
