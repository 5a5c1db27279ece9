"""The k-cobra walk (paper Section 2).

At ``t = 0`` a pebble sits on the start vertex.  Each step, every
active vertex samples ``k`` neighbors independently and uniformly
*with replacement*; the sampled vertices are exactly the next active
set (simultaneous arrivals coalesce into one pebble).

Two implementations:

* :func:`cobra_step` — the vectorized production kernel.  One batched
  neighbor draw for the whole frontier, then coalescing either by
  boolean scatter (dense frontiers) or ``np.unique`` (sparse ones).
* :func:`cobra_step_reference` — a dict/set reference used by the test
  suite to pin the kernel's distribution.

:class:`CobraWalk` wraps the kernel with coverage tracking;
``simulate(graph, "cobra", ...)`` and ``run_batch`` in
:mod:`repro.sim.facade` run complete cover/hitting experiments.
"""

from __future__ import annotations

import numpy as np

from ..graphs.base import Graph, sample_uniform_neighbors
from ..sim.processes import CoverageLedger
from ..sim.rng import SeedLike, resolve_rng

__all__ = [
    "cobra_step",
    "cobra_step_reference",
    "CobraWalk",
]

#: frontier density above which boolean-scatter coalescing beats sorting
_DENSE_FRACTION = 1 / 16


def cobra_step(
    graph: Graph,
    active: np.ndarray,
    k: int,
    rng: np.random.Generator,
    *,
    scratch: np.ndarray | None = None,
) -> np.ndarray:
    """Advance one cobra step; returns the sorted next active set.

    Parameters
    ----------
    active:
        ``int64`` array of currently active vertex ids (unique).
    k:
        Branching factor (``k >= 1``; the paper's headline results use
        ``k = 2``).
    scratch:
        Optional reusable ``bool[n]`` buffer for the dense-coalescing
        path (avoids reallocation inside cover loops).
    """
    if k < 1:
        raise ValueError(f"branching factor k must be >= 1, got {k}")
    if active.size == 0:
        raise ValueError("cobra walk has no active vertices")
    reps = np.repeat(active, k)
    picks = sample_uniform_neighbors(graph, reps, rng)
    if picks.size >= graph.n * _DENSE_FRACTION:
        if scratch is None:
            scratch = np.zeros(graph.n, dtype=bool)
        else:
            scratch[:] = False
        scratch[picks] = True
        return np.flatnonzero(scratch)
    return np.unique(picks)


def cobra_step_reference(
    graph: Graph, active: set[int], k: int, rng: np.random.Generator
) -> set[int]:
    """Pure-Python reference semantics of one cobra step."""
    nxt: set[int] = set()
    for v in sorted(active):
        nbrs = graph.neighbors(v)
        for _ in range(k):
            nxt.add(int(nbrs[int(rng.random() * nbrs.size)]))
    return nxt


class CobraWalk(CoverageLedger):
    """Stateful k-cobra walk on *graph* with coverage tracking.

    Parameters
    ----------
    graph:
        Connected graph without isolated vertices.
    k:
        Branching factor.
    start:
        Initial active vertex, or an iterable of vertices for
        multi-source starts (used by the Theorem 8 machinery, which
        hands a cobra walk a large starting set).
    seed:
        Anything accepted by :func:`repro.sim.rng.resolve_rng`.
    record_history:
        Keep ``|S_t|`` per step (costs one append per step).
    """

    def __init__(
        self,
        graph: Graph,
        *,
        k: int = 2,
        start: int | np.ndarray = 0,
        seed: SeedLike = None,
        record_history: bool = False,
    ) -> None:
        if k < 1:
            raise ValueError(f"branching factor k must be >= 1, got {k}")
        self.graph = graph
        self.k = int(k)
        self.rng = resolve_rng(seed)
        start_arr = np.atleast_1d(np.asarray(start, dtype=np.int64))
        if start_arr.size == 0:
            raise ValueError("need at least one start vertex")
        if start_arr.min() < 0 or start_arr.max() >= graph.n:
            raise ValueError("start vertex out of range")
        self.active = np.unique(start_arr)
        self.t = 0
        super().__init__(graph.n, self.active)
        self._scratch = np.zeros(graph.n, dtype=bool)
        self._history: list[int] | None = [self.active.size] if record_history else None

    @property
    def history(self) -> np.ndarray | None:
        """``|S_t|`` per step (``None`` unless ``record_history``)."""
        if self._history is None:
            return None
        return np.asarray(self._history, dtype=np.int64)

    def step(self) -> np.ndarray:
        """Advance one step; returns the new active set."""
        self.active = cobra_step(
            self.graph, self.active, self.k, self.rng, scratch=self._scratch
        )
        self.t += 1
        self.mark(self.t, self.active)
        if self._history is not None:
            self._history.append(int(self.active.size))
        return self.active


def _default_budget(n: int) -> int:
    return max(10_000, 500 * n * max(1, int(np.ceil(np.log(max(n, 2))))))
