"""Simple (and lazy) random-walk baselines.

Feige's classical bounds frame the paper's results: cover time of any
graph lies between ``Ω(n log n)`` and ``O(n³)``, with the lollipop
achieving ``Θ(n³)``.  The cobra experiments all compare against these
walks.

The batched variant runs many independent trials as one vectorized
process (one row of state per trial), which is how cover-time sweeps
stay fast in pure numpy.  :func:`walk_blocks` steps those rows a block
of uniforms at a time and is also the driver of the lazy and
parallel-walk engines in :mod:`repro.sim.batch`.
"""

from __future__ import annotations

from typing import Protocol

import numpy as np

from ..graphs.base import Graph
from ..graphs.implicit import NeighborOracle, as_oracle
from ..obs.trace import current_tracer
from ..sim.batch import _check_vertex, _scalar_start
from ..sim.bitmask import BitMask, DenseMask, sorted_unique, visited_mask
from ..sim.processes import CoverageLedger
from ..sim.rng import SeedLike, resolve_rng

__all__ = [
    "RandomWalk",
    "rw_trials",
    "rw_exact_hitting_times",
]


class RandomWalk(CoverageLedger):
    """A single simple random walk with coverage tracking."""

    def __init__(
        self,
        graph: Graph,
        *,
        start: int = 0,
        lazy: bool = False,
        seed: SeedLike = None,
    ) -> None:
        if not (0 <= start < graph.n):
            raise ValueError("start out of range")
        self.graph = graph
        self.position = int(start)
        self.lazy = bool(lazy)
        self.rng = resolve_rng(seed)
        self.t = 0
        super().__init__(graph.n, self.position)

    def step(self) -> int:
        """Advance one step (a held step when the lazy coin says so);
        returns the new position."""
        self.t += 1
        if self.lazy and self.rng.random() < 0.5:
            return self.position
        nbrs = self.graph.neighbors(self.position)
        self.position = int(nbrs[int(self.rng.random() * nbrs.size)])
        self.visit(self.t, self.position)
        return self.position


def rw_trials(
    graph: Graph | NeighborOracle,
    target: int | None = None,
    *,
    start: int | np.ndarray = 0,
    trials: int = 10,
    seed: SeedLike = None,
    max_steps: int | None = None,
) -> np.ndarray:
    """Vectorized independent cover (``target=None``) or hitting-time
    trials on the block-walk driver (the ``"simple"`` process's
    engine).

    One row of state per trial: every step draws one uniform per trial
    and moves every walker, and :func:`walk_blocks` runs those steps in
    blocks, settling each block once — coverage for the cover rule, one
    comparison against *target* for the hit rule.  A trial that
    finishes keeps its walker stepping, as the per-step loop did
    (masking it out costs more than it saves at these trial counts);
    the RNG stream and the values are those of that loop, bit for bit.
    Visited state is bit-packed at scale (``n/8`` bytes per trial).

    Parameters
    ----------
    graph : Graph or NeighborOracle
        Connected graph without isolated vertices (CSR or implicit).
    target : int, optional
        Vertex whose first visit stops a trial; ``None`` stops a trial
        when it has covered the graph.
    start : int or numpy.ndarray
        Common start vertex of every trial (or a one-element array of it).
    trials : int
        Number of independent runs.
    seed : SeedLike, optional
        Seed/stream for the single interleaved RNG.
    max_steps : int, optional
        Step budget per trial; defaults to Feige's worst-case ``n³``
        with slack.

    Returns
    -------
    numpy.ndarray
        ``float64[trials]`` cover or hitting times, ``np.nan`` marking
        budget exhaustion (``0.0`` when *target* is the start vertex).
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    oracle = as_oracle(graph)
    n = oracle.n
    start = _scalar_start(oracle, start)
    if target is not None:
        _check_vertex(oracle, target, "target")
    if max_steps is None:
        max_steps = _cover_budget(n)
    rng = resolve_rng(seed)
    out = np.full(trials, np.nan)
    settle: Settle
    if target is None:
        row_base = np.arange(trials, dtype=np.int64) * n
        covered = visited_mask(trials, n)
        covered.set_unique_rows(row_base + start)
        settle = CoverSettle(covered, row_base, np.ones(trials, dtype=np.int64), out)
    elif start == target:
        return np.zeros(trials)
    else:
        settle = _HitSettle(target, out)
    walk_blocks(oracle, np.full(trials, start, dtype=np.int64), rng, max_steps, settle)
    return out


#: positions per block of :func:`walk_blocks`: a full block is
#: ``max(1, BLOCK_POSITIONS // P)`` lock-steps of all ``P`` walkers, so
#: its uniforms and positions take 256 KB each whatever the trial count
BLOCK_POSITIONS = 1 << 15

#: lock-steps in a call's first block; each later block doubles, up to
#: the full block, so a run that stops early steps at most twice as far
#: as it needed, plus one first block
FIRST_BLOCK_STEPS = 32


class Settle(Protocol):
    """A block stopping rule.  ``settle(walk, t0)`` folds a ``(b, P)``
    block of positions (rows are steps ``t0 + 1 .. t0 + b``) into an
    engine's state and returns the 1-based row at which its last running
    trial stopped, or 0 while any trial is still running; ``out`` holds
    the per-trial stop times, ``nan`` while a trial runs."""

    out: np.ndarray

    def __call__(self, walk: np.ndarray, t0: int) -> int: ...


def walk_blocks(
    oracle: NeighborOracle,
    pos: np.ndarray,
    rng: np.random.Generator,
    max_steps: int,
    settle: Settle,
) -> None:
    """Advance ``P`` independent simple-walk positions for up to
    *max_steps* lock-steps, a block of steps at a time.

    The shared driver of the simple, lazy and parallel-walk engines.
    Blocks grow from :data:`FIRST_BLOCK_STEPS` steps to
    :data:`BLOCK_POSITIONS` positions.  Each block draws
    ``rng.random((b, P))`` at once, which is bit for bit the stream of
    ``b`` calls of ``rng.random(P)``; moves every position ``b`` times
    (walker ``i`` at step ``t`` takes its ``floor(U[t, i] * deg)``-th
    neighbor in ascending order, exactly as
    :meth:`~repro.graphs.implicit.NeighborOracle.sample_one`); and
    hands the whole block to *settle*.

    RNG contract: a call consumes exactly the uniforms of the per-step
    loop it replaces, one ``rng.random(P)`` per step up to and
    including the step at which *settle* reports the last trial
    stopped (or *max_steps*).  When that step falls inside a block the
    generator is rewound to the block's start and the rows actually
    used are drawn again, so callers may keep drawing from *rng*
    afterwards (the lazy engines draw their holds from it).

    Under an active :mod:`repro.obs` tracer the lock-steps taken (the
    ``rng.random(P)`` rows consumed) are flushed as the ``engine_steps``
    and ``rng_draws`` (``steps * P``) counters, and the steps the trials
    ran before stopping (``settle.out``, the step count where ``nan``),
    summed, as ``trial_steps``.

    Parameters
    ----------
    oracle : NeighborOracle
        The graph, stepped through ``degree``/``neighbor_at``.
    pos : numpy.ndarray
        ``int64[P]`` start positions (not modified).
    rng : numpy.random.Generator
        The engine's stream.
    max_steps : int
        Step budget; nothing is drawn when it is below 1.
    settle : Settle
        The engine's per-block stopping rule (see :class:`Settle`).

    Raises
    ------
    ValueError
        If a start position is an isolated vertex.  A walk never
        reaches an isolated vertex from any other, so the start is the
        only place the per-step check could ever fire.
    """
    if max_steps < 1:
        return
    if oracle.degree(pos).min() <= 0:
        raise ValueError("cannot sample a neighbor of an isolated vertex")
    width = pos.size
    full = max(1, BLOCK_POSITIONS // width)
    rows = min(full, FIRST_BLOCK_STEPS)
    walk = np.empty((min(full, max_steps), width), dtype=np.int64)
    cur = pos
    steps = 0
    while steps < max_steps:
        b = min(rows, max_steps - steps)
        saved = rng.bit_generator.state
        u = rng.random((b, width))
        for s in range(b):
            slots = (u[s] * oracle.degree(cur)).astype(np.int64)
            cur = oracle.neighbor_at(cur, slots)
            walk[s] = cur
        end = settle(walk[:b], steps)
        if end:
            if end < b:
                rng.bit_generator.state = saved
                rng.random((end, width))
            steps += end
            break
        steps += b
        rows = min(full, 2 * rows)
    tracer = current_tracer()
    if tracer.enabled:
        tracer.count("engine_steps", steps)
        ran = np.where(np.isnan(settle.out), steps, settle.out)
        tracer.count("trial_steps", int(ran.sum()))
        tracer.count("rng_draws", steps * width)


class CoverSettle:
    """Cover stopping rule: first step at which a trial has seen all
    ``n`` vertices.

    Walker ``i`` belongs to the trial whose flat ids start at
    ``base[i]`` (trial ``r`` owns ``r * n .. r * n + n - 1``); *count*
    holds each trial's visited-vertex count and *out* receives the
    cover times, ``nan`` while a trial runs.  A trial that is already
    complete before its first step stops at step 1, which only a
    one-vertex graph can produce.
    """

    def __init__(
        self,
        covered: BitMask | DenseMask,
        base: np.ndarray,
        count: np.ndarray,
        out: np.ndarray,
    ) -> None:
        self.covered = covered
        self.base = base
        self.count = count
        self.out = out
        self.n = np.int64(covered.n)
        self.running = np.isnan(out)

    def __call__(self, walk: np.ndarray, t0: int) -> int:
        flat = (walk + self.base).ravel()
        unseen = np.flatnonzero(~self.covered.test_flat(flat))
        cand = flat[unseen]
        fresh = sorted_unique(cand)
        self.covered.set_sorted_flat(fresh)
        self.count += np.bincount(fresh // self.n, minlength=self.count.size)
        newly = self.running & (self.count == self.n)
        if not newly.any():
            return 0
        # a newly complete trial stopped at the first visit of the last
        # of its fresh vertices: the latest first occurrence among them
        mine = newly[cand // self.n]
        ids, first = sorted_unique(cand[mine], return_index=True)
        row = np.zeros(self.count.size, dtype=np.int64)
        np.maximum.at(row, ids // self.n, unseen[mine][first] // walk.shape[1])
        self.out[newly] = t0 + row[newly] + 1
        self.running &= ~newly
        return 0 if self.running.any() else int(row[newly].max()) + 1


class _HitSettle:
    """Hit stopping rule: first step at which a trial's walker stands
    on *target*; *out* receives the hitting times."""

    def __init__(self, target: int, out: np.ndarray) -> None:
        self.target = target
        self.out = out
        self.running = np.isnan(out)

    def __call__(self, walk: np.ndarray, t0: int) -> int:
        on = walk == self.target
        newly = self.running & on.any(axis=0)
        if not newly.any():
            return 0
        row = on.argmax(axis=0)
        self.out[newly] = t0 + row[newly] + 1
        self.running &= ~newly
        return 0 if self.running.any() else int(row[newly].max()) + 1


def rw_exact_hitting_times(graph: Graph, target: int) -> np.ndarray:
    """Exact expected hitting times to *target* by linear solve.

    Parameters
    ----------
    graph : Graph
        Connected CSR graph.
    target : int
        The vertex every hitting time ends at.

    Returns
    -------
    numpy.ndarray
        ``float64[n]``; entry ``v`` is the expected steps of a simple
        walk from ``v`` to *target* (``0`` at *target*).
    """
    from ..spectral.matrices import transition_matrix

    n = graph.n
    p = transition_matrix(graph).toarray()
    idx = np.array([i for i in range(n) if i != target])
    q = p[np.ix_(idx, idx)]
    h = np.linalg.solve(np.eye(n - 1) - q, np.ones(n - 1))
    out = np.zeros(n)
    out[idx] = h
    return out


def _cover_budget(n: int) -> int:
    # Feige: worst case ~ (4/27) n^3; give slack without exploding runtimes
    return max(200_000, n**3)
