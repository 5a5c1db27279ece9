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

:class:`CobraWalk` wraps the kernel with coverage tracking and
stopping rules; ``simulate(graph, "cobra", ...)`` and ``run_batch``
in :mod:`repro.sim.facade` run complete cover/hitting experiments.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..graphs.base import Graph, sample_uniform_neighbors
from ..sim.rng import SeedLike, resolve_rng

__all__ = [
    "cobra_step",
    "cobra_step_reference",
    "CobraWalk",
    "CobraRunResult",
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


@dataclass
class CobraRunResult:
    """Outcome of a cobra-walk run.

    Attributes
    ----------
    covered:
        Whether every vertex was activated within the step budget.
    steps:
        Steps executed (equals the cover time when ``covered``).
    cover_time:
        Step at which the last vertex was first activated, or ``None``.
    first_activation:
        ``int64[n]``; step at which each vertex first became active
        (``0`` for the start vertex, ``-1`` if never).
    active_size_history:
        ``|S_t|`` per step, when history recording was enabled.
    """

    covered: bool
    steps: int
    cover_time: int | None
    first_activation: np.ndarray
    active_size_history: np.ndarray | None = None


class CobraWalk:
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
        self.first_activation = np.full(graph.n, -1, dtype=np.int64)
        self.first_activation[self.active] = 0
        self._num_covered = int(self.active.size)
        self._scratch = np.zeros(graph.n, dtype=bool)
        self._history: list[int] | None = [self.active.size] if record_history else None

    @property
    def num_covered(self) -> int:
        """Number of vertices activated so far."""
        return self._num_covered

    @property
    def history(self) -> np.ndarray | None:
        """``|S_t|`` per step (``None`` unless ``record_history``)."""
        if self._history is None:
            return None
        return np.asarray(self._history, dtype=np.int64)

    @property
    def all_covered(self) -> bool:
        return self._num_covered == self.graph.n

    def step(self) -> np.ndarray:
        """Advance one step; returns the new active set."""
        self.active = cobra_step(
            self.graph, self.active, self.k, self.rng, scratch=self._scratch
        )
        self.t += 1
        fresh = self.active[self.first_activation[self.active] < 0]
        if fresh.size:
            self.first_activation[fresh] = self.t
            self._num_covered += int(fresh.size)
        if self._history is not None:
            self._history.append(int(self.active.size))
        return self.active

    def run_until_cover(self, max_steps: int) -> CobraRunResult:
        """Step until all vertices are covered or *max_steps* elapse."""
        while not self.all_covered and self.t < max_steps:
            self.step()
        return self._result()

    def run_until_hit(self, target: int, max_steps: int) -> int | None:
        """Step until *target* is activated; returns the hitting step or
        ``None`` on budget exhaustion."""
        if not (0 <= target < self.graph.n):
            raise ValueError("target out of range")
        while self.first_activation[target] < 0 and self.t < max_steps:
            self.step()
        hit = self.first_activation[target]
        return int(hit) if hit >= 0 else None

    def _result(self) -> CobraRunResult:
        covered = self.all_covered
        return CobraRunResult(
            covered=covered,
            steps=self.t,
            cover_time=int(self.first_activation.max()) if covered else None,
            first_activation=self.first_activation.copy(),
            active_size_history=(
                np.asarray(self._history, dtype=np.int64) if self._history is not None else None
            ),
        )


def _default_budget(n: int) -> int:
    return max(10_000, 500 * n * max(1, int(np.ceil(np.log(max(n, 2))))))
