"""Coalescing random walks (the voter-model dual).

Multiple walkers; when two or more meet at a vertex they merge into
one.  The paper cites this process (Cooper et al.) as the *pure
coalescing* end of the spectrum whose combination with branching
yields the cobra walk.  We expose the meeting/coalescence time — the
time until a single walker remains — and coverage.
"""

from __future__ import annotations

import numpy as np

from ..graphs.base import Graph, sample_uniform_neighbors
from ..sim.processes import CoverageLedger
from ..sim.rng import SeedLike, resolve_rng

__all__ = ["CoalescingWalks", "coalescing_start_positions"]


class CoalescingWalks(CoverageLedger):
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
        super().__init__(graph.n, positions)

    @property
    def num_walkers(self) -> int:
        return int(self.positions.size)

    def step(self) -> np.ndarray:
        """All walkers move; co-located walkers merge."""
        self.t += 1
        moved = sample_uniform_neighbors(self.graph, self.positions, self.rng)
        self.positions = np.unique(moved)
        self.mark(self.t, self.positions)
        return self.positions


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
