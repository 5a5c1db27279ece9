"""The *Walt* process (paper Section 4).

``δn`` totally ordered pebbles move on the graph; the pebble count is
invariant (no splitting, no coalescing).  Per step:

1. vertices holding one or two pebbles: each pebble moves to an
   independent uniform neighbor;
2. vertices holding three or more: the two lowest-order pebbles move
   to independent uniform choices ``u, w``; every other pebble at the
   vertex flips a fair coin and follows to ``u`` or ``w``.

The paper also makes the process *lazy*: each step, with probability
1/2 no pebble moves at all (one global coin).

Walt's cover time stochastically dominates the cobra walk's from the
same start configuration (Lemma 10), which is what makes it a safe
analysis proxy — and what the ``L10_walt`` experiment verifies.
"""

from __future__ import annotations

import numpy as np

from ..graphs.base import Graph, sample_uniform_neighbors
from ..sim.processes import CoverageLedger
from ..sim.rng import SeedLike, resolve_rng

__all__ = [
    "WaltProcess",
    "walt_start_positions",
    "walt_step_positions",
]


def walt_step_positions(
    graph: Graph,
    positions: np.ndarray,
    rng: np.random.Generator,
) -> np.ndarray:
    """One (non-lazy) Walt move applied to the ordered pebble array.

    ``positions[i]`` is the vertex of pebble ``i``; the index *is* the
    total order.  Returns the new positions array (fresh allocation).

    Vectorized via a single lexsort by (vertex, pebble order): the two
    lowest-ranked pebbles per occupied vertex draw uniform neighbors in
    one batched call; higher-ranked pebbles gather their group leader's
    or vice-leader's destination by a fair coin.
    """
    p = positions.size
    if p == 0:
        raise ValueError("Walt process has no pebbles")
    order = np.lexsort((np.arange(p), positions))
    sorted_pos = positions[order]
    # group starts: first index of each run of equal vertices
    new_group = np.empty(p, dtype=bool)
    new_group[0] = True
    np.not_equal(sorted_pos[1:], sorted_pos[:-1], out=new_group[1:])
    group_start = np.maximum.accumulate(np.where(new_group, np.arange(p), 0))
    rank = np.arange(p) - group_start
    movers = rank < 2
    dest_sorted = np.empty(p, dtype=np.int64)
    dest_sorted[movers] = sample_uniform_neighbors(graph, sorted_pos[movers], rng)
    followers = ~movers
    if followers.any():
        coin = rng.random(int(followers.sum())) < 0.5
        leader = group_start[followers]  # rank-0 index of the follower's group
        vice = leader + 1
        dest_sorted[followers] = np.where(coin, dest_sorted[leader], dest_sorted[vice])
    out = np.empty(p, dtype=np.int64)
    out[order] = dest_sorted
    return out


class WaltProcess(CoverageLedger):
    """Stateful Walt process.

    Parameters
    ----------
    graph:
        Connected graph without isolated vertices.
    positions:
        Initial pebble positions (the index into this array is the
        pebble's priority).  The paper starts ``δn`` pebbles, all at
        one vertex, with ``δ ≤ 1/2``.
    lazy:
        Apply the global 1/2 holding coin each step (paper default).
    seed:
        RNG seed/stream.
    """

    def __init__(
        self,
        graph: Graph,
        positions: np.ndarray,
        *,
        lazy: bool = True,
        seed: SeedLike = None,
    ) -> None:
        positions = np.asarray(positions, dtype=np.int64)
        if positions.size == 0:
            raise ValueError("need at least one pebble")
        if positions.min() < 0 or positions.max() >= graph.n:
            raise ValueError("pebble position out of range")
        self.graph = graph
        self.positions = positions.copy()
        self.lazy = bool(lazy)
        self.rng = resolve_rng(seed)
        self.t = 0
        super().__init__(graph.n, self.positions)

    @property
    def num_pebbles(self) -> int:
        return int(self.positions.size)

    def step(self) -> np.ndarray:
        """Advance one (possibly lazy) step; returns current positions."""
        self.t += 1
        if self.lazy and self.rng.random() < 0.5:
            return self.positions
        self.positions = walt_step_positions(self.graph, self.positions, self.rng)
        self.mark(self.t, np.unique(self.positions))
        return self.positions


def walt_start_positions(
    graph: Graph,
    delta: float,
    start: int | np.ndarray | None,
    rng: np.random.Generator,
) -> np.ndarray:
    """Initial placement of ``max(1, ⌊δn⌋)`` pebbles.

    With integer/array *start* all pebbles begin there (the paper's
    Theorem 8 configuration, cycling through an array); with
    ``start=None`` they spread uniformly at random.
    """
    if not 0 < delta <= 1:
        raise ValueError("delta must be in (0, 1]")
    num = max(1, int(delta * graph.n))
    if start is None:
        return rng.integers(0, graph.n, size=num)
    start_arr = np.atleast_1d(np.asarray(start, dtype=np.int64))
    return np.resize(start_arr, num)


def _budget(n: int) -> int:
    return max(20_000, 1000 * n)
