"""Vectorized batched trial engines.

Serial Monte-Carlo sweeps pay per-trial Python overhead: 32 cobra
cover runs are 32 Python step loops, each issuing a dozen small numpy
calls per step.  The engines here advance *all* trials in one flat
``(trials * n,)`` state — trial ``r``'s copy of vertex ``v`` lives at
index ``r*n + v`` — so each global step does one batched neighbor
draw and one boolean-scatter pass for every trial at once (the same
idiom as the serial :func:`repro.core.cobra.cobra_step` kernel,
amortized across trials).
(:func:`repro.walks.simple.rw_cover_trials` plays the same role for
the simple walk.)

Every engine samples through the :class:`repro.graphs.implicit.
NeighborOracle` contract rather than reaching into CSR arrays: a CSR
:class:`~repro.graphs.base.Graph` wraps in the bit-identical adapter
(``as_oracle``), while arithmetic oracles (torus, hypercube,
circulant, Kronecker) answer the same three questions — vertex count,
degrees, neighbor draws — without ever materialising edges, which is
what lets a million-vertex cover cell run in megabytes.

One engine per process family, all on the same flat-frontier idiom:

* :func:`batched_cobra_cover_trials` / :func:`batched_cobra_hit_trials`
  — the cobra frontier, stopped at full coverage or first activation
  of a target vertex;
* :func:`batched_gossip_spread_trials` — push / pull / push-pull rumor
  spreading with incremental boundary tracking (only vertices that can
  still change the state ever draw);
* :func:`batched_parallel_walks_cover_trials` — ``trials × walkers``
  independent walkers advanced by one batched neighbor draw per step,
  on the simple walk's block driver;
* :func:`batched_walt_cover_trials` / :func:`batched_walt_hit_trials`
  — Walt's per-vertex pebble groups found sort-free by
  duplicate-scatter on the flat ``trial*n + vertex`` key (groups never
  span trials), replacing the serial kernel's per-trial lexsort;
  stopped at full coverage or first pebble arrival at a target;
* :func:`batched_lazy_cover_trials` — the hold-probability variant of
  the simple-walk engine, run as a time-change: the move chain rides
  the simple-walk engine and the holds are reconstructed as one
  negative-binomial draw per trial;
* :func:`batched_branching_cover_trials` — per-``(trial, vertex)``
  particle counts with the multinomial child split done by binomial
  peeling over neighbor slots; the occupied set is a ragged per-trial
  frontier held as one sorted flat array, and a per-trial population
  cap mirrors the serial renormalisation;
* :func:`batched_coalescing_cover_trials` — shrinking walker sets: one
  neighbor draw moves every surviving walker of every trial, and
  in-step duplicate-scatter (``np.unique`` on the flat
  ``trial*n + vertex`` key) merges co-located walkers without ever
  crossing trial boundaries;
* :func:`batched_biased_cover_trials` — the ε-/inverse-degree-biased
  walk: one position row per trial, a precomputed controller table,
  two uniform draws per trial-step (bias coin + neighbor index);
* :func:`batched_lazy_hit_trials` — the hitting-time companion of the
  lazy cover engine, the same jump-chain time-change over
  :func:`repro.walks.simple.rw_hitting_trials`.

Two fixed-horizon companions feed experiments that consume state
rather than stopping times: :func:`batched_cobra_active_sizes`
(per-step ``|S_t|`` trajectories) and
:func:`batched_walt_positions_at` (pebble positions after exactly
``steps`` moves).

Engines whose per-step cost scales with ``alive · n`` (cobra, gossip,
Walt) compact finished trials out so the tail of slow trials doesn't
pay for the fast ones; the parallel-walk engine keeps its (tiny)
state dense, mirroring ``rw_cover_trials``.

Hot-path notes (measured on the benchmark machine, not guessed):

* index arrays stay ``int64`` end to end — numpy silently converts
  any other integer dtype to ``intp`` per fancy-indexing call, which
  doubles the cost of the scatter;
* flat ids decompose arithmetically (``v = front % n``,
  ``base = front - v``) against one **size-n** degree table shared by
  all trials — the old per-flat-id tables tiled
  ``start``/``degree``/``base``/``row`` per trial, an ``O(trials·n)``
  allocation that capped scaling long before the edge arrays did;
* per-``(trial, vertex)`` visited state is **bit-packed** at scale
  (:class:`repro.sim.bitmask.BitMask`, ``n/8`` bytes per trial, via
  the :func:`~repro.sim.bitmask.visited_mask` factory — small runs
  keep a plain boolean backend, skipping the packing arithmetic where
  the whole mask fits in 1 MB anyway) and cover counts stream from
  each step's freshly set bits — the dense boolean ledgers this
  replaces were the last unconditional ``O(trials·n)`` byte arrays on
  the cover path;
* per-step temporaries live in a grow-on-demand buffer pool
  (``take(..., out=)``, in-place ufuncs) sized by the *observed*
  frontier, never preallocated at ``trials·n``;
* the simple-walk family (simple, lazy and parallel walks) draws its
  uniforms a block at a time through
  :func:`repro.walks.simple.walk_blocks`: one ``rng.random((b, P))``
  per block, which is bit for bit ``b`` calls of ``rng.random(P)``,
  then about six small numpy calls per step to move the positions, and
  coverage settled once per block (one mask test, one ``np.unique``,
  one ``bincount``, one sorted set).  When the last trial stops inside
  a block the generator is rewound to the block's start and the used
  rows are drawn again, so the stream a caller sees afterwards (the
  lazy engines' negative-binomial holds) is that of the per-step loop.
  On a 2-CPU VM this took the benchmark campaign's 64-trial simple
  cells from 510 to 133 ns per trial-step;
* for ``k == 2`` both neighbor draws come from one uniform variate
  (``i = ⌊u·d⌋``; the leftover fraction is itself uniform).  The
  split is exact in floating point — ``u·d`` never rounds up to ``d``
  and the fractional part is exactly representable — and the second
  draw is uniform up to ``d²·2^-24`` (float32, used for ``d ≤ 64``)
  or ``d²·2^-53`` (float64 otherwise), far below Monte-Carlo
  resolution.

Batched runs are distributionally identical to serial runs (the same
process, one interleaved RNG stream) but not seed-for-seed identical
to per-trial streams; use the facade's ``strategy="serial"`` when you
need bit-exact parity with the legacy per-process helpers.  On CSR
input the oracle adapter reproduces the pre-oracle engines'
streams bit for bit, and each arithmetic oracle is seed-for-seed
identical to the adapter over its materialised graph
(``tests/graphs/test_implicit.py``).
"""

from __future__ import annotations

import numpy as np

from ..graphs.base import Graph
from ..graphs.implicit import NeighborOracle, as_oracle
from ..obs.trace import current_tracer
from .bitmask import visited_mask
from .rng import SeedLike, resolve_rng

__all__ = [
    "batched_biased_cover_trials",
    "batched_branching_cover_trials",
    "batched_coalescing_cover_trials",
    "batched_cobra_active_sizes",
    "batched_cobra_cover_trials",
    "batched_cobra_hit_trials",
    "batched_gossip_hit_trials",
    "batched_gossip_spread_trials",
    "batched_lazy_cover_trials",
    "batched_lazy_hit_trials",
    "batched_parallel_walks_cover_trials",
    "batched_walt_cover_trials",
    "batched_walt_hit_trials",
    "batched_walt_positions_at",
]

GraphLike = Graph | NeighborOracle


def _degree_table(oracle: NeighborOracle, ftype=np.float64) -> np.ndarray:
    """Size-``n`` per-vertex degree table in the engine's float width.

    Shared by every trial: the hot loops gather from it after the
    arithmetic flat-id decomposition ``v = front % n`` — the
    trial-count-independent replacement for the old per-flat-id tiled
    tables."""
    return oracle.degree(np.arange(oracle.n, dtype=np.int64)).astype(ftype)


class _BufferPool:
    """Grow-on-demand named scratch buffers for the hot loops.

    ``get(name, size, dtype)`` hands back a contiguous length-*size*
    slice of a pooled array, reallocating (geometric growth) only when
    the request outgrows the pool — so steady-state steps do zero
    allocator traffic while nothing is ever preallocated at
    ``trials · n``."""

    __slots__ = ("_bufs",)

    def __init__(self) -> None:
        self._bufs: dict[str, np.ndarray] = {}

    def get(self, name: str, size: int, dtype) -> np.ndarray:
        """A contiguous ``dtype[size]`` slice under *name*."""
        buf = self._bufs.get(name)
        if buf is None or buf.size < size or buf.dtype != np.dtype(dtype):
            cap = size if buf is None or buf.dtype != np.dtype(dtype) else max(
                size, 2 * buf.size
            )
            buf = np.empty(cap, dtype)
            self._bufs[name] = buf
        return buf[:size]


def _validated_start(oracle: NeighborOracle, start) -> np.ndarray:
    """Facade-style ``start`` normalised to a unique sorted vertex array."""
    start_arr = np.unique(np.atleast_1d(np.asarray(start, dtype=np.int64)))
    if start_arr.size == 0:
        raise ValueError("need at least one start vertex")
    if start_arr.min() < 0 or start_arr.max() >= oracle.n:
        raise ValueError("start vertex out of range")
    return start_arr


def _check_samplable(oracle: NeighborOracle, trials: int) -> None:
    if trials < 1:
        raise ValueError("need at least one trial")
    if oracle.n and oracle.min_degree <= 0:
        raise ValueError("cannot sample a neighbor of an isolated vertex")


def _cobra_ftype(oracle: NeighborOracle, k: int) -> tuple[bool, type]:
    """``(pair, ftype)`` for the cobra engines' uniform draws: float32
    while the ``k == 2`` double-draw (degree ≤ 64) or the single-draw
    index (degree < 2^20) stays exact — see the module's hot-path
    notes.  One definition so the cover/hit/trajectory engines can
    never drift apart on the thresholds."""
    pair = k == 2
    if pair:
        return pair, (np.float32 if oracle.max_degree <= 64 else np.float64)
    return pair, (np.float32 if oracle.max_degree < (1 << 20) else np.float64)


def _scatter_cobra_draws(oracle, verts, degs, vbase, k, pair, ftype, rng, scratch):
    """Draw ``k`` uniform neighbors for every frontier vertex and
    scatter their flat destinations into the boolean ``scratch`` mask —
    the unbuffered step shared by the hit and trajectory engines (the
    cover engine keeps its pooled-buffer variant of the same math).
    *verts* are local vertex ids, *vbase* the per-id trial offsets.
    For ``k == 2`` both draws come from one uniform variate (module
    notes)."""
    if pair:
        u = rng.random(verts.size, dtype=ftype)
        u *= degs
        first = np.floor(u)
        u -= first
        u *= degs
        scratch[oracle.neighbor_at(verts, first.astype(np.int64)) + vbase] = True
        scratch[oracle.neighbor_at(verts, u.astype(np.int64)) + vbase] = True
    else:
        u = rng.random((k, verts.size), dtype=ftype)
        nbrs = oracle.neighbor_at(verts[None, :], (u * degs).astype(np.int64))
        scratch[(vbase + nbrs).ravel()] = True


def batched_cobra_cover_trials(
    graph: GraphLike,
    *,
    trials: int,
    k: int = 2,
    start: int | np.ndarray = 0,
    seed: SeedLike = None,
    max_steps: int | None = None,
) -> np.ndarray:
    """Cover times of *trials* independent k-cobra runs, advanced in
    lock-step; finished trials are compacted out so the tail of slow
    trials doesn't pay for the fast ones.

    Under an active :mod:`repro.obs` tracer the engine reports
    ``engine_steps`` (global lock-steps), ``rng_draws`` (uniform
    variates consumed) and ``frontier_peak`` (largest flat frontier)
    counters on the enclosing span; with the default
    :data:`~repro.obs.trace.NULL_TRACER` the taps are dead branches.

    Parameters
    ----------
    graph : Graph or NeighborOracle
        Connected graph without isolated vertices (CSR or implicit).
    trials : int
        Number of independent runs.
    k : int
        Cobra branching factor (pebbles sent per active vertex).
    start : int or numpy.ndarray
        Start vertex, or an array of start vertices shared by all
        trials (multi-source).
    seed : SeedLike, optional
        Seed/stream for the single interleaved RNG.
    max_steps : int, optional
        Step budget per trial; defaults to the cobra helper's
        ``500·n·log n``-ish budget.

    Returns
    -------
    numpy.ndarray
        ``float64[trials]`` cover times with ``np.nan`` marking budget
        exhaustion — the same contract as
        :func:`repro.core.hitting.cobra_cover_trials`.
    """
    oracle = as_oracle(graph)
    _check_samplable(oracle, trials)
    if k < 1:
        raise ValueError(f"branching factor k must be >= 1, got {k}")
    n = oracle.n
    start_arr = _validated_start(oracle, start)
    if max_steps is None:
        from ..core.cobra import _default_budget

        max_steps = _default_budget(n)
    rng = resolve_rng(seed)

    out = np.full(trials, np.nan)
    if start_arr.size == n:
        out[:] = 0.0
        return out

    pair, ftype = _cobra_ftype(oracle, k)
    nn = np.int64(n)
    deg_f = _degree_table(oracle, ftype)

    a = trials  # still-running trial count; `alive` maps rows -> trial ids
    alive = np.arange(trials)
    covered = visited_mask(a, n)
    front = (
        np.repeat(np.arange(a, dtype=np.int64) * n, start_arr.size)
        + np.tile(start_arr, a)
    )
    covered.set_sorted_flat(front)
    count = np.full(a, start_arr.size, dtype=np.int64)
    scratch = np.zeros(a * n, dtype=bool)

    # clearing the dedup mask: a fresh calloc beats an O(|front|)
    # scatter-reset while the mask is small (measured 0.4µs vs 8µs at
    # 35KB), but is an O(a*n) memset per step — switch to the scatter
    # reset once the mask outgrows cache
    reset_by_scatter = a * n > (1 << 21)
    pool = _BufferPool()

    # telemetry taps are plain local accumulators, flushed once after
    # the loop — with the NullTracer default `trace_on` is False and
    # the hot loop carries one dead branch per step, nothing more
    tracer = current_tracer()
    trace_on = tracer.enabled
    obs_steps = obs_draws = obs_fpeak = 0

    for t in range(1, max_steps + 1):
        F = front.size
        if trace_on:
            obs_steps = t
            obs_draws += F if pair else k * F
            obs_fpeak = max(obs_fpeak, F)
        v = np.remainder(front, nn, out=pool.get("v", F, np.int64))
        base = np.subtract(front, v, out=pool.get("base", F, np.int64))
        degs = deg_f.take(v, out=pool.get("deg", F, ftype))
        if pair:
            u = rng.random(out=pool.get("u", F, ftype), dtype=ftype)
            u *= degs
            first = np.floor(u, out=pool.get("first", F, ftype))
            u -= first  # leftover fraction: uniform again
            u *= degs
            i1 = pool.get("i1", F, np.int64)
            np.copyto(i1, first, casting="unsafe")  # trunc == floor (>= 0)
            i2 = pool.get("i2", F, np.int64)
            np.copyto(i2, u, casting="unsafe")
            p1 = oracle.neighbor_at(v, i1)
            p1 += base
            p2 = oracle.neighbor_at(v, i2)
            p2 += base
            scratch[p1] = True
            scratch[p2] = True
        else:
            u = rng.random((k, F), dtype=ftype)
            nbrs = oracle.neighbor_at(v[None, :], (u * degs).astype(np.int64))
            scratch[(base + nbrs).ravel()] = True
        front = scratch.nonzero()[0]
        if reset_by_scatter:
            scratch[front] = False
        else:
            scratch = np.zeros(a * n, dtype=bool)
        # fused test+set: front is sorted unique (it's a nonzero()),
        # and re-setting already-set bits is a no-op
        fresh = front[covered.test_and_set_sorted(front)]
        if fresh.size:
            count += np.bincount(fresh // nn, minlength=a)
            done = count == n
            if done.any():
                out[alive[done]] = t
                keep = ~done
                alive = alive[keep]
                a = alive.size
                if a == 0:
                    break
                count = count[keep]
                rows = front // nn
                keep_front = keep[rows]
                remap = np.cumsum(keep) - 1
                front = remap[rows[keep_front]] * n + front[keep_front] % nn
                covered.keep_rows(keep)
                scratch = np.zeros(a * n, dtype=bool)
                reset_by_scatter = a * n > (1 << 21)
    if trace_on:
        tracer.count("engine_steps", obs_steps)
        tracer.count("rng_draws", obs_draws)
        tracer.gauge("frontier_peak", obs_fpeak)
    return out


def batched_cobra_hit_trials(
    graph: GraphLike,
    target: int,
    *,
    trials: int,
    k: int = 2,
    start: int | np.ndarray = 0,
    seed: SeedLike = None,
    max_steps: int | None = None,
) -> np.ndarray:
    """First-activation times of *target* over *trials* independent
    k-cobra runs advanced in lock-step (the ``metric="hit"`` engine).

    Unlike the cover engine no per-vertex visit ledger is kept: a
    trial is done the step its frontier mask lights up ``target``, so
    the hot loop is just the neighbor draw plus the coalescing scatter.

    Parameters
    ----------
    graph : Graph or NeighborOracle
        Connected graph without isolated vertices (CSR or implicit).
    target : int
        Vertex whose first activation stops a trial.
    trials : int
        Number of independent runs.
    k : int
        Cobra branching factor.
    start : int or numpy.ndarray
        Start vertex or array of start vertices (multi-source).
    seed : SeedLike, optional
        Seed/stream for the single interleaved RNG.
    max_steps : int, optional
        Step budget per trial; defaults to the cobra helper's budget.

    Returns
    -------
    numpy.ndarray
        ``float64[trials]`` hitting times with ``np.nan`` marking
        budget exhaustion — the same contract as
        :func:`repro.core.hitting.cobra_hitting_trials`.
    """
    oracle = as_oracle(graph)
    _check_samplable(oracle, trials)
    if k < 1:
        raise ValueError(f"branching factor k must be >= 1, got {k}")
    n = oracle.n
    if not (0 <= target < n):
        raise ValueError("target out of range")
    start_arr = _validated_start(oracle, start)
    if max_steps is None:
        from ..core.cobra import _default_budget

        max_steps = _default_budget(n)
    rng = resolve_rng(seed)

    out = np.full(trials, np.nan)
    if target in start_arr:
        out[:] = 0.0
        return out

    pair, ftype = _cobra_ftype(oracle, k)
    nn = np.int64(n)
    deg_f = _degree_table(oracle, ftype)

    a = trials
    alive = np.arange(trials)
    target_flat = np.arange(a, dtype=np.int64) * n + target
    front = (
        np.repeat(np.arange(a, dtype=np.int64) * n, start_arr.size)
        + np.tile(start_arr, a)
    )
    scratch = np.zeros(a * n, dtype=bool)

    for t in range(1, max_steps + 1):
        v = front % nn
        _scatter_cobra_draws(
            oracle, v, deg_f.take(v), front - v, k, pair, ftype, rng, scratch
        )
        # hit check reads the mask BEFORE it is reset: the frontier at
        # step t is exactly the activation set of step t
        done = scratch[target_flat]
        front = scratch.nonzero()[0]
        scratch[front] = False
        if done.any():
            out[alive[done]] = t
            keep = ~done
            alive = alive[keep]
            a = alive.size
            if a == 0:
                break
            rows = front // nn
            keep_front = keep[rows]
            remap = np.cumsum(keep) - 1
            front = remap[rows[keep_front]] * n + front[keep_front] % nn
            target_flat = np.arange(a, dtype=np.int64) * n + target
            scratch = np.zeros(a * n, dtype=bool)
    return out


def batched_gossip_spread_trials(
    graph: GraphLike,
    *,
    trials: int,
    start: int = 0,
    seed: SeedLike = None,
    max_steps: int | None = None,
    push: bool = True,
    pull: bool = False,
) -> np.ndarray:
    """Spread times of *trials* independent gossip runs (push and/or
    pull), advanced in lock-step; finished trials are compacted out.

    Per round and per alive trial: every informed vertex pushes the
    rumor to one uniform neighbor (``push``) and/or every uninformed
    vertex polls one uniform neighbor and learns the rumor if that
    neighbor knows it (``pull``) — the same semantics as
    :class:`repro.walks.gossip.GossipSpread`, whose serial runs these
    match distributionally.

    The hot loop draws only for vertices that can still change the
    state: a push from an informed vertex whose whole neighborhood is
    informed, or a pull by a vertex with no informed neighbor, never
    alters the informed set, so skipping those draws leaves the
    process law untouched while cutting per-round work from
    ``O(alive · n)`` to ``O(boundary)``.  The boundary bookkeeping is
    maintained incrementally from each round's freshly informed
    vertices (one oracle neighborhood expansion plus one sparse unique
    — never an ``O(alive · n)`` pass), the batched analogue of a
    wavefront sweep.

    Parameters
    ----------
    graph : Graph or NeighborOracle
        Connected graph without isolated vertices (CSR or implicit).
    trials : int
        Number of independent runs.
    start : int
        The initially informed vertex.
    seed : SeedLike, optional
        Seed/stream for the single interleaved RNG.
    max_steps : int, optional
        Round budget per trial; defaults to the gossip helpers'
        ``O(n log n)``-with-slack budget.
    push : bool
        Informed vertices push to one uniform neighbor per round.
    pull : bool
        Uninformed vertices poll one uniform neighbor per round.

    Returns
    -------
    numpy.ndarray
        ``float64[trials]`` round counts with ``np.nan`` marking
        budget exhaustion.
    """
    oracle = as_oracle(graph)
    _check_samplable(oracle, trials)
    if not (push or pull):
        raise ValueError("enable at least one of push/pull")
    n = oracle.n
    start = int(start)
    if not (0 <= start < n):
        raise ValueError("start out of range")
    if max_steps is None:
        from ..walks.gossip import _budget

        max_steps = _budget(n)
    rng = resolve_rng(seed)

    out = np.full(trials, np.nan)
    if n == 1:
        out[:] = 0.0
        return out

    a = trials
    alive = np.arange(trials)
    nn = np.int64(n)
    deg_i = oracle.degree(np.arange(n, dtype=np.int64))
    deg_f = deg_i.astype(np.float64)
    informed = visited_mask(a, n)
    start_flat = np.arange(a, dtype=np.int64) * n + start
    informed.set_unique_rows(start_flat)
    count = np.ones(a, dtype=np.int64)

    def _neighbor_expand(fresh: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Unique flat neighbor ids of *fresh* (newly informed flat
        ids) and how often each is hit: one oracle expansion + one
        sparse unique — every op is sized by the touched edges, never
        a·n."""
        w = fresh % nn
        nbrs_local, deg = oracle.all_neighbors(w)
        return np.unique(np.repeat(fresh - w, deg) + nbrs_local, return_counts=True)

    # boundary tracking: a push from a vertex whose whole neighborhood
    # is informed, or a pull by one with no informed neighbor, can
    # never change the state, so only boundary vertices ever draw
    uids0, ucnt0 = _neighbor_expand(start_flat)
    uncount = None
    if push:
        # uninformed-neighbor count per flat id (push prune: == 0 means
        # saturated, and saturation is monotone)
        uncount = np.tile(deg_i, a)
        uncount[uids0] -= ucnt0
    everseen = None
    if pull:
        # flat ids that have ever had an informed neighbor (pull grow:
        # a vertex joins the asker pool on its first such event)
        everseen = visited_mask(a, n)
        everseen.set_sorted_flat(uids0)
    # push side: informed flat ids still bordering uninformed vertices
    senders = start_flat
    # pull side: uninformed flat ids with >= 1 informed neighbor
    askers = uids0[~informed.test_flat(uids0)] if pull else None

    for t in range(1, max_steps + 1):
        new_parts = []
        if push:
            senders = senders[uncount[senders] > 0]
            w = senders % nn
            u = rng.random(senders.size)
            cand = (senders - w) + oracle.neighbor_at(
                w, (u * deg_f[w]).astype(np.int64)
            )
            new_parts.append(cand[~informed.test_flat(cand)])
        if pull:
            askers = askers[~informed.test_flat(askers)]
            if askers.size:
                w = askers % nn
                u = rng.random(askers.size)
                src = (askers - w) + oracle.neighbor_at(
                    w, (u * deg_f[w]).astype(np.int64)
                )
                new_parts.append(askers[informed.test_flat(src)])
        new = (
            new_parts[0]
            if len(new_parts) == 1
            else np.concatenate(new_parts)
            if new_parts
            else np.empty(0, dtype=np.int64)
        )
        if new.size == 0:
            continue
        fresh = np.unique(new)
        informed.set_sorted_flat(fresh)
        count += np.bincount(fresh // nn, minlength=a)
        uids, ucnt = _neighbor_expand(fresh)
        if push:
            uncount[uids] -= ucnt
            senders = np.concatenate([senders, fresh])
        if pull:
            newly = uids[~everseen.test_flat(uids)]
            everseen.set_sorted_flat(uids)
            askers = np.concatenate([askers, newly[~informed.test_flat(newly)]])
        done = count == n
        if done.any():
            out[alive[done]] = t
            keep = ~done
            alive = alive[keep]
            a = alive.size
            if a == 0:
                break
            count = count[keep]
            remap = np.cumsum(keep) - 1
            informed.keep_rows(keep)
            if push:
                uncount = np.ascontiguousarray(uncount.reshape(-1, n)[keep]).reshape(-1)
                rows = senders // nn
                m = keep[rows]
                senders = remap[rows[m]] * nn + senders[m] % nn
            if pull:
                everseen.keep_rows(keep)
                rows = askers // nn
                m = keep[rows]
                askers = remap[rows[m]] * nn + askers[m] % nn
    return out


def batched_gossip_hit_trials(
    graph: GraphLike,
    target: int,
    *,
    trials: int,
    start: int = 0,
    seed: SeedLike = None,
    max_steps: int | None = None,
    push: bool = True,
    pull: bool = False,
) -> np.ndarray:
    """First rounds at which *target* learns the rumor, over *trials*
    independent gossip runs advanced in lock-step (the
    ``metric="hit"`` engine for push/pull/push_pull).

    Identical round semantics to
    :func:`batched_gossip_spread_trials` — same boundary-tracked
    push/pull draws, same compaction — but a trial finishes the round
    *target* first becomes informed instead of the round the rumor
    saturates, matching ``GossipSpread.first_visit[target]`` of the
    serial process distributionally.  No per-trial informed *count* is
    kept: the only completion test is target membership in each
    round's freshly informed set.

    Parameters
    ----------
    graph : Graph or NeighborOracle
        Connected graph without isolated vertices (CSR or implicit).
    target : int
        Vertex whose first informing stops a trial.
    trials : int
        Number of independent runs.
    start : int
        The initially informed vertex.
    seed : SeedLike, optional
        Seed/stream for the single interleaved RNG.
    max_steps : int, optional
        Round budget per trial; defaults to the gossip helpers'
        ``O(n log n)``-with-slack budget.
    push : bool
        Informed vertices push to one uniform neighbor per round.
    pull : bool
        Uninformed vertices poll one uniform neighbor per round.

    Returns
    -------
    numpy.ndarray
        ``float64[trials]`` hitting rounds with ``np.nan`` marking
        budget exhaustion (``0.0`` when *target* is the start vertex).
    """
    oracle = as_oracle(graph)
    _check_samplable(oracle, trials)
    if not (push or pull):
        raise ValueError("enable at least one of push/pull")
    n = oracle.n
    start = int(start)
    if not (0 <= start < n):
        raise ValueError("start out of range")
    if not (0 <= target < n):
        raise ValueError("target out of range")
    if max_steps is None:
        from ..walks.gossip import _budget

        max_steps = _budget(n)
    rng = resolve_rng(seed)

    out = np.full(trials, np.nan)
    if target == start:
        out[:] = 0.0
        return out

    a = trials
    alive = np.arange(trials)
    nn = np.int64(n)
    deg_i = oracle.degree(np.arange(n, dtype=np.int64))
    deg_f = deg_i.astype(np.float64)
    informed = visited_mask(a, n)
    start_flat = np.arange(a, dtype=np.int64) * n + start
    informed.set_unique_rows(start_flat)

    def _neighbor_expand(fresh: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        w = fresh % nn
        nbrs_local, deg = oracle.all_neighbors(w)
        return np.unique(np.repeat(fresh - w, deg) + nbrs_local, return_counts=True)

    # the same boundary structures as the spread engine (see there)
    uids0, ucnt0 = _neighbor_expand(start_flat)
    uncount = None
    if push:
        uncount = np.tile(deg_i, a)
        uncount[uids0] -= ucnt0
    everseen = None
    if pull:
        everseen = visited_mask(a, n)
        everseen.set_sorted_flat(uids0)
    senders = start_flat
    askers = uids0[~informed.test_flat(uids0)] if pull else None

    for t in range(1, max_steps + 1):
        new_parts = []
        if push:
            senders = senders[uncount[senders] > 0]
            w = senders % nn
            u = rng.random(senders.size)
            cand = (senders - w) + oracle.neighbor_at(
                w, (u * deg_f[w]).astype(np.int64)
            )
            new_parts.append(cand[~informed.test_flat(cand)])
        if pull:
            askers = askers[~informed.test_flat(askers)]
            if askers.size:
                w = askers % nn
                u = rng.random(askers.size)
                src = (askers - w) + oracle.neighbor_at(
                    w, (u * deg_f[w]).astype(np.int64)
                )
                new_parts.append(askers[informed.test_flat(src)])
        new = (
            new_parts[0]
            if len(new_parts) == 1
            else np.concatenate(new_parts)
            if new_parts
            else np.empty(0, dtype=np.int64)
        )
        if new.size == 0:
            continue
        fresh = np.unique(new)
        informed.set_sorted_flat(fresh)
        uids, ucnt = _neighbor_expand(fresh)
        if push:
            uncount[uids] -= ucnt
            senders = np.concatenate([senders, fresh])
        if pull:
            newly = uids[~everseen.test_flat(uids)]
            everseen.set_sorted_flat(uids)
            askers = np.concatenate([askers, newly[~informed.test_flat(newly)]])
        # completion: which rows informed the target this round (the
        # fresh set is unique, so each hit row appears exactly once)
        hit_rows = fresh[fresh % nn == target] // nn
        if hit_rows.size:
            done = np.zeros(a, dtype=bool)
            done[hit_rows] = True
            out[alive[done]] = t
            keep = ~done
            alive = alive[keep]
            a = alive.size
            if a == 0:
                break
            remap = np.cumsum(keep) - 1
            informed.keep_rows(keep)
            if push:
                uncount = np.ascontiguousarray(uncount.reshape(-1, n)[keep]).reshape(-1)
                rows = senders // nn
                m = keep[rows]
                senders = remap[rows[m]] * nn + senders[m] % nn
            if pull:
                everseen.keep_rows(keep)
                rows = askers // nn
                m = keep[rows]
                askers = remap[rows[m]] * nn + askers[m] % nn
    return out


def batched_parallel_walks_cover_trials(
    graph: GraphLike,
    *,
    trials: int,
    walkers: int = 2,
    start: int | np.ndarray = 0,
    seed: SeedLike = None,
    max_steps: int | None = None,
) -> np.ndarray:
    """Cover times of *trials* independent ``walkers``-walk runs,
    advanced by one batched neighbor draw per step over all
    ``trials * walkers`` positions, on the block-walk driver
    :func:`repro.walks.simple.walk_blocks`.

    The state is tiny (one position per walker), so finished trials
    keep stepping rather than being compacted — the same trade
    ``rw_cover_trials`` makes.

    Parameters
    ----------
    graph : Graph or NeighborOracle
        Connected graph without isolated vertices (CSR or implicit).
    trials : int
        Number of independent runs.
    walkers : int or None
        Independent walkers per trial.
    start : int or numpy.ndarray
        One vertex (all walkers there) or an array of length
        *walkers*, matching :class:`repro.walks.parallel.ParallelWalks`.
    seed : SeedLike, optional
        Seed/stream for the single interleaved RNG.
    max_steps : int, optional
        Step budget per trial; defaults to the parallel-walk helper's
        ``n³/walkers``-with-slack budget.

    Returns
    -------
    numpy.ndarray
        ``float64[trials]`` cover times with ``np.nan`` marking budget
        exhaustion.
    """
    oracle = as_oracle(graph)
    _check_samplable(oracle, trials)
    if walkers < 1:
        raise ValueError("need at least one walker")
    n = oracle.n
    start_pos = np.atleast_1d(np.asarray(start, dtype=np.int64))
    if start_pos.size == 1:
        start_pos = np.full(walkers, start_pos[0], dtype=np.int64)
    if start_pos.size != walkers:
        raise ValueError("start must be scalar or length == walkers")
    if start_pos.min() < 0 or start_pos.max() >= n:
        raise ValueError("start out of range")
    if max_steps is None:
        from ..walks.parallel import _default_budget

        max_steps = _default_budget(n, walkers)
    rng = resolve_rng(seed)

    from ..walks.simple import CoverSettle, walk_blocks

    trial_base = np.repeat(np.arange(trials, dtype=np.int64) * n, walkers)
    pos = np.tile(start_pos, trials)
    covered = visited_mask(trials, n)
    covered.set_sorted_flat(np.unique(trial_base + pos))
    count = np.full(trials, np.unique(start_pos).size, dtype=np.int64)
    out = np.full(trials, np.nan)
    out[count == n] = 0.0
    if not np.isnan(out).any():
        return out
    walk_blocks(oracle, pos, rng, max_steps, CoverSettle(covered, trial_base, count, out))
    return out


def _walt_move_batch(
    oracle: NeighborOracle,
    positions: np.ndarray,
    move_rows: np.ndarray,
    rng: np.random.Generator,
    tmp: np.ndarray,
    tmp2: np.ndarray,
    d1: np.ndarray,
    d2: np.ndarray,
) -> np.ndarray:
    """One non-lazy Walt move applied to the ``move_rows`` trials of the
    ``(a, p)`` pebble-position array; returns the moved ``(m, p)`` block.

    Grouping is sort-free: per-group representatives come from two
    duplicate-scatter passes into the dense per-``(trial, vertex)``
    tables ``tmp``/``tmp2`` (numpy scatter semantics: for repeated
    indices the last write wins, so ``tmp[key] == own_index`` singles
    out exactly one pebble per occupied vertex).  The serial kernel
    (:func:`repro.core.walt.walt_step_positions`) instead lexsorts by
    ``(vertex, rank)`` per trial, at ``O(p log p)`` per trial per step;
    here the whole batch pays only ``O(m·p)`` gathers and scatters.

    Which two pebbles of a group act as the independent movers differs
    from the serial rule ("the two lowest-order"), but pebble identities
    are exchangeable for the position-*multiset* law — the update
    removes the group, places one pebble at each of two independent
    uniform neighbors, and coin-flips the rest between them, regardless
    of which identities carried the draws — so cover times are
    distributionally identical.

    The dense tables carry stale values between calls by design: every
    read is at a key written earlier in the same call, so no O(a·n)
    reset is ever needed.
    """
    n = oracle.n
    sub = positions[move_rows]
    m, p = sub.shape
    mp = m * p
    flat_pos = sub.ravel()
    key = np.repeat(move_rows.astype(np.int64) * n, p) + flat_pos
    idx = np.arange(mp, dtype=np.int64)
    tmp[key] = idx
    leader = tmp[key] == idx
    newpos = np.empty(mp, dtype=np.int64)
    lkey = key[leader]
    newpos[leader] = oracle.sample_one(flat_pos[leader], rng)
    d1[lkey] = newpos[leader]
    nl = np.flatnonzero(~leader)
    if nl.size:
        tmp2[key[nl]] = nl
        vice = nl[tmp2[key[nl]] == nl]
        vkey = key[vice]
        newpos[vice] = oracle.sample_one(flat_pos[vice], rng)
        d2[vkey] = newpos[vice]
        is_rep = leader.copy()
        is_rep[vice] = True
        followers = np.flatnonzero(~is_rep)
        if followers.size:
            coin = rng.random(followers.size) < 0.5
            fkey = key[followers]
            newpos[followers] = np.where(coin, d1[fkey], d2[fkey])
    return newpos.reshape(m, p)


def batched_walt_cover_trials(
    graph: GraphLike,
    *,
    trials: int,
    delta: float = 0.5,
    lazy: bool = True,
    start: int | np.ndarray | None = 0,
    seed: SeedLike = None,
    max_steps: int | None = None,
) -> np.ndarray:
    """Cover times of *trials* independent Walt runs (``δn`` ordered
    pebbles each), advanced in lock-step; finished trials are compacted
    out.

    Pebble placement matches :func:`repro.core.walt.walt_start_positions`:
    integer/array *start* puts all pebbles there (identical across
    trials); ``start=None`` spreads them uniformly at random,
    independently per trial.  The lazy coin is drawn per trial per step,
    so each trial holds independently — distributionally the same as
    the serial process's one global coin.

    Parameters
    ----------
    graph : Graph or NeighborOracle
        Connected graph without isolated vertices (CSR or implicit).
    trials : int
        Number of independent runs.
    delta : float
        Pebble density: ``max(1, int(delta·n))`` pebbles per trial.
    lazy : bool
        Apply the per-step 1/2 holding coin (paper default).
    start : int or numpy.ndarray or None
        Placement vertex/array (``None`` = uniform per trial).
    seed : SeedLike, optional
        Seed/stream for the single interleaved RNG.
    max_steps : int, optional
        Step budget per trial; defaults to the Walt helper's
        ``max(20_000, 1000·n)``.

    Returns
    -------
    numpy.ndarray
        ``float64[trials]`` cover times with ``np.nan`` marking budget
        exhaustion.
    """
    oracle = as_oracle(graph)
    _check_samplable(oracle, trials)
    if not 0 < delta <= 1:
        raise ValueError("delta must be in (0, 1]")
    n = oracle.n
    p = max(1, int(delta * n))
    if max_steps is None:
        # the serial helper's default budget (walt_cover_time)
        max_steps = max(20_000, 1000 * n)
    rng = resolve_rng(seed)

    positions = _walt_initial_positions(oracle, trials, p, start, rng)

    a = trials
    alive = np.arange(trials)
    nn = np.int64(n)
    covered = visited_mask(a, n)
    init_flat = np.unique(
        (np.arange(a, dtype=np.int64) * n)[:, None] + positions
    ).ravel()
    covered.set_sorted_flat(init_flat)
    count = np.bincount(init_flat // nn, minlength=a).astype(np.int64)
    out = np.full(trials, np.nan)
    done0 = count == n
    if done0.any():
        out[done0] = 0.0
        keep = ~done0
        alive = alive[keep]
        a = alive.size
        if a == 0:
            return out
        positions = positions[keep]
        count = count[keep]
        covered.keep_rows(keep)

    # dense per-(trial, vertex) work tables for the sort-free move; no
    # per-step reset needed (see _walt_move_batch)
    tmp = np.empty(a * n, dtype=np.int64)
    tmp2 = np.empty(a * n, dtype=np.int64)
    d1 = np.empty(a * n, dtype=np.int64)
    d2 = np.empty(a * n, dtype=np.int64)

    for t in range(1, max_steps + 1):
        if lazy:
            move_rows = (rng.random(a) >= 0.5).nonzero()[0]
            if move_rows.size == 0:
                continue
        else:
            move_rows = np.arange(a)
        moved = _walt_move_batch(oracle, positions, move_rows, rng, tmp, tmp2, d1, d2)
        positions[move_rows] = moved
        flat = ((move_rows * nn)[:, None] + moved).ravel()
        unseen = ~covered.test_flat(flat)
        if not unseen.any():
            continue
        fresh = np.unique(flat[unseen])
        covered.set_sorted_flat(fresh)
        count += np.bincount(fresh // nn, minlength=a)
        done = count == n
        if done.any():
            out[alive[done]] = t
            keep = ~done
            alive = alive[keep]
            a = alive.size
            if a == 0:
                break
            positions = positions[keep]
            count = count[keep]
            covered.keep_rows(keep)
            tmp = np.empty(a * n, dtype=np.int64)
            tmp2 = np.empty(a * n, dtype=np.int64)
            d1 = np.empty(a * n, dtype=np.int64)
            d2 = np.empty(a * n, dtype=np.int64)
    return out


def batched_walt_hit_trials(
    graph: GraphLike,
    target: int,
    *,
    trials: int,
    delta: float = 0.5,
    lazy: bool = True,
    start: int | np.ndarray | None = 0,
    seed: SeedLike = None,
    max_steps: int | None = None,
) -> np.ndarray:
    """First-arrival times of any pebble at *target* over *trials*
    independent Walt runs (the Walt ``metric="hit"`` engine).

    The cobra hit-engine template ported to Walt: no per-vertex visit
    ledger is kept — a trial is done the round one of its pebbles
    lands on ``target``, so the hot loop is exactly the cover engine's
    grouped move (:func:`_walt_move_batch`) plus one equality scan of
    the moved block.  Placement and the per-trial lazy coin match
    :func:`batched_walt_cover_trials`.

    Parameters
    ----------
    graph : Graph or NeighborOracle
        Connected graph without isolated vertices (CSR or implicit).
    target : int
        Vertex whose first pebble arrival stops a trial.
    trials : int
        Number of independent runs.
    delta : float
        Pebble density: ``max(1, int(delta·n))`` pebbles per trial.
    lazy : bool
        Apply the per-round 1/2 holding coin (paper default).
    start : int or numpy.ndarray or None
        Placement vertex/array (``None`` = uniform per trial).
    seed : SeedLike, optional
        Seed/stream for the single interleaved RNG.
    max_steps : int, optional
        Round budget per trial; defaults to the Walt helper's
        ``max(20_000, 1000·n)``.

    Returns
    -------
    numpy.ndarray
        ``float64[trials]`` hitting times with ``np.nan`` marking
        budget exhaustion.
    """
    oracle = as_oracle(graph)
    _check_samplable(oracle, trials)
    if not 0 < delta <= 1:
        raise ValueError("delta must be in (0, 1]")
    n = oracle.n
    if not (0 <= target < n):
        raise ValueError("target out of range")
    p = max(1, int(delta * n))
    if max_steps is None:
        max_steps = max(20_000, 1000 * n)
    rng = resolve_rng(seed)

    positions = _walt_initial_positions(oracle, trials, p, start, rng)

    out = np.full(trials, np.nan)
    a = trials
    alive = np.arange(trials)
    hit0 = (positions == target).any(axis=1)
    if hit0.any():
        out[hit0] = 0.0
        keep = ~hit0
        alive = alive[keep]
        a = alive.size
        if a == 0:
            return out
        positions = positions[keep]

    tmp = np.empty(a * n, dtype=np.int64)
    tmp2 = np.empty(a * n, dtype=np.int64)
    d1 = np.empty(a * n, dtype=np.int64)
    d2 = np.empty(a * n, dtype=np.int64)

    for t in range(1, max_steps + 1):
        if lazy:
            move_rows = (rng.random(a) >= 0.5).nonzero()[0]
            if move_rows.size == 0:
                continue
        else:
            move_rows = np.arange(a)
        moved = _walt_move_batch(oracle, positions, move_rows, rng, tmp, tmp2, d1, d2)
        positions[move_rows] = moved
        hit_rows = move_rows[(moved == target).any(axis=1)]
        if hit_rows.size:
            done = np.zeros(a, dtype=bool)
            done[hit_rows] = True
            out[alive[done]] = t
            keep = ~done
            alive = alive[keep]
            a = alive.size
            if a == 0:
                break
            positions = positions[keep]
            tmp = np.empty(a * n, dtype=np.int64)
            tmp2 = np.empty(a * n, dtype=np.int64)
            d1 = np.empty(a * n, dtype=np.int64)
            d2 = np.empty(a * n, dtype=np.int64)
    return out


def _walt_initial_positions(
    oracle: NeighborOracle, trials: int, p: int, start, rng: np.random.Generator
) -> np.ndarray:
    """``(trials, p)`` initial pebble placement matching
    :func:`repro.core.walt.walt_start_positions`: ``start=None`` draws
    uniform positions independently per trial, anything else tiles the
    given vertex/array across all pebbles of every trial."""
    n = oracle.n
    if start is None:
        return rng.integers(0, n, size=(trials, p))
    start_arr = np.atleast_1d(np.asarray(start, dtype=np.int64))
    if start_arr.size == 0:
        raise ValueError("need at least one start vertex")
    if start_arr.min() < 0 or start_arr.max() >= n:
        raise ValueError("start vertex out of range")
    return np.tile(np.resize(start_arr, p), (trials, 1))


def batched_lazy_cover_trials(
    graph: GraphLike,
    *,
    trials: int,
    start: int = 0,
    seed: SeedLike = None,
    max_steps: int | None = None,
) -> np.ndarray:
    """Cover times of *trials* independent lazy-random-walk runs.

    The hold-probability variant of the simple-walk engine
    (:func:`repro.walks.simple.rw_cover_trials`), built on the
    jump-chain decomposition rather than a simulated coin per step: a
    lazy walk is the simple walk run in slow motion, each move
    preceded by ``Geometric(1/2)`` holds, so the engine runs the
    *move* chain on the batched simple-walk engine (half the steps,
    none of the per-step coin traffic) and then adds the total holding
    time — the sum of ``N`` independent geometrics, i.e. one
    ``NegativeBinomial(N, 1/2)`` draw per trial — to the per-trial
    move count ``N``.  The resulting cover-time law is exactly that of
    :class:`repro.walks.simple.RandomWalk` with ``lazy=True``
    (coverage can only change at a move, and each step is an
    independent fair coin), including budget censoring: a trial is
    ``nan`` iff its reconstructed step total exceeds *max_steps*.

    Parameters
    ----------
    graph : Graph or NeighborOracle
        Connected graph without isolated vertices (CSR or implicit).
    trials : int
        Number of independent runs.
    start : int
        Common start vertex of every trial.
    seed : SeedLike, optional
        Seed/stream for the single interleaved RNG.
    max_steps : int, optional
        Step budget per trial (holds included, as in the serial walk);
        defaults to the lazy walk's serial budget (Feige's worst-case
        ``n³`` with slack).

    Returns
    -------
    numpy.ndarray
        ``float64[trials]`` cover times, ``np.nan`` marking budget
        exhaustion.
    """
    oracle = as_oracle(graph)
    _check_samplable(oracle, trials)
    from ..walks.simple import _cover_budget, rw_cover_trials

    n = oracle.n
    start = int(start)
    if not (0 <= start < n):
        raise ValueError("start out of range")
    if max_steps is None:
        max_steps = _cover_budget(n)
    rng = resolve_rng(seed)

    out = np.full(trials, np.nan)
    if n == 1:
        out[:] = 0.0
        return out

    # total steps >= moves, so `max_steps` moves bounds every trial
    # that could still finish within the step budget
    moves = rw_cover_trials(
        graph, start=start, trials=trials, seed=rng, max_steps=max_steps
    )
    fin = np.flatnonzero(~np.isnan(moves))
    if fin.size:
        n_moves = moves[fin].astype(np.int64)
        total = n_moves + rng.negative_binomial(np.maximum(n_moves, 1), 0.5)
        total = np.where(n_moves > 0, total, 0)
        ok = total <= max_steps
        out[fin[ok]] = total[ok]
    return out


def batched_branching_cover_trials(
    graph: GraphLike,
    *,
    trials: int,
    k: int = 2,
    start: int = 0,
    seed: SeedLike = None,
    max_steps: int | None = None,
    population_cap: int = 1_000_000,
) -> np.ndarray:
    """Cover times of *trials* independent k-branching-walk runs,
    advanced in lock-step; finished trials are compacted out.

    State is one flat ``int64[trials * n]`` particle-count array, so
    the ragged per-trial frontier is simply ``np.flatnonzero(counts)``
    — a sorted flat array whose runs of equal ``id // n`` are the
    per-trial occupied sets (offsets/counts recoverable by
    ``searchsorted``/``bincount``, never materialised in the hot
    loop).  The ``k·c`` children of the ``c`` particles at a vertex
    distribute multinomially over its neighbors, exactly as in the
    serial kernel (:meth:`repro.walks.branching.BranchingWalk.step`),
    but the multinomial is drawn by *binomial peeling over neighbor
    slots*: slot ``j`` of every occupied vertex with ``deg > j`` takes
    ``Binomial(remaining, 1/(deg-j))`` children in one vectorized draw,
    so a step costs ``O(max_degree)`` batched calls instead of one
    Python-level multinomial per occupied vertex per trial.  (On
    unbounded-degree graphs — the star — the slot loop degenerates to
    ``O(n)`` vectorized calls; the engine is built for the
    bounded-degree graphs the branching literature studies.)

    When a trial's population exceeds *population_cap* its counts are
    renormalised down proportionally with occupied vertices clamped to
    ≥ 1 particle, matching the serial cap semantics (coverage
    statistics remain valid).

    Parameters
    ----------
    graph : Graph or NeighborOracle
        Connected graph without isolated vertices (CSR or implicit).
    trials : int
        Number of independent runs.
    k : int
        Branching factor (children per particle per step).
    start : int
        Common start vertex of every trial (one initial particle).
    seed : SeedLike, optional
        Seed/stream for the single interleaved RNG.
    max_steps : int, optional
        Step budget per trial; defaults to the serial helper's
        ``max(10_000, 50·n)``.
    population_cap : int
        Per-trial particle ceiling before renormalisation.

    Returns
    -------
    numpy.ndarray
        ``float64[trials]`` cover times, ``np.nan`` marking budget
        exhaustion.
    """
    oracle = as_oracle(graph)
    _check_samplable(oracle, trials)
    if k < 1:
        raise ValueError(f"branching factor k must be >= 1, got {k}")
    if population_cap < 1:
        raise ValueError("population_cap must be >= 1")
    n = oracle.n
    start = int(start)
    if not (0 <= start < n):
        raise ValueError("start out of range")
    if max_steps is None:
        max_steps = max(10_000, 50 * n)
    rng = resolve_rng(seed)

    out = np.full(trials, np.nan)
    if n == 1:
        out[:] = 0.0
        return out

    nn = np.int64(n)
    a = trials
    alive = np.arange(trials)
    base = np.arange(a, dtype=np.int64) * n
    counts = np.zeros(a * n, dtype=np.int64)
    counts[base + start] = 1
    covered = visited_mask(a, n)
    covered.set_unique_rows(base + start)
    cov_count = np.ones(a, dtype=np.int64)

    for t in range(1, max_steps + 1):
        occ = np.flatnonzero(counts)  # ragged per-trial frontier, flat+sorted
        v = occ % nn
        deg = oracle.degree(v)
        vbase = occ - v
        remaining = counts[occ] * k
        tgt_parts: list[np.ndarray] = []
        cnt_parts: list[np.ndarray] = []
        for j in range(int(deg.max())):
            sel = np.flatnonzero(deg > j)
            if sel.size == 0:
                break
            rem = remaining[sel]
            deg_sel = deg[sel]
            last = deg_sel == j + 1
            x = np.empty(sel.size, dtype=np.int64)
            split = ~last
            if split.any():
                x[split] = rng.binomial(rem[split], 1.0 / (deg_sel[split] - j))
            x[last] = rem[last]
            remaining[sel] -= x
            nz = np.flatnonzero(x)
            if nz.size:
                pick = sel[nz]
                tgt_parts.append(vbase[pick] + oracle.neighbor_at(v[pick], j))
                cnt_parts.append(x[nz])
        # int sums through float64 weights are exact far beyond any cap
        counts = np.bincount(
            np.concatenate(tgt_parts),
            weights=np.concatenate(cnt_parts),
            minlength=a * n,
        ).astype(np.int64)
        occ2 = np.flatnonzero(counts)
        row = occ2 // nn
        pop = np.bincount(row, weights=counts[occ2].astype(np.float64), minlength=a)
        over = pop > population_cap
        if over.any():
            sel = np.flatnonzero(over[row])
            ids = occ2[sel]
            scale = population_cap / pop[row[sel]]
            counts[ids] = np.maximum((counts[ids] * scale).astype(np.int64), 1)
        unseen = ~covered.test_flat(occ2)
        if not unseen.any():
            continue
        fresh = occ2[unseen]
        covered.set_sorted_flat(fresh)
        cov_count += np.bincount(fresh // nn, minlength=a)
        done = cov_count == n
        if done.any():
            out[alive[done]] = t
            keep = ~done
            alive = alive[keep]
            a = alive.size
            if a == 0:
                break
            cov_count = cov_count[keep]
            counts = np.ascontiguousarray(counts.reshape(-1, n)[keep]).reshape(-1)
            covered.keep_rows(keep)
    return out


def batched_coalescing_cover_trials(
    graph: GraphLike,
    *,
    trials: int,
    walkers: int | None = None,
    start: int | np.ndarray | None = None,
    seed: SeedLike = None,
    max_steps: int | None = None,
) -> np.ndarray:
    """Cover times of *trials* independent coalescing-walk runs,
    advanced in lock-step; finished trials are compacted out.

    The walker sets shrink as walkers merge, so the state is one flat
    *sorted* array of ``trial*n + vertex`` walker ids (the ragged
    per-trial sets are its runs of equal ``id // n``).  Per step every
    surviving walker of every trial joins one batched neighbor draw,
    and the in-step merge is a single duplicate-scatter
    (``np.unique`` on the flat key): co-located walkers of the same
    trial collapse to one id, while walkers of different trials can
    never collide because their ids live ``n`` apart — the same
    distributional law as :class:`repro.walks.coalescing.CoalescingWalks`.

    Parameters
    ----------
    graph : Graph or NeighborOracle
        Connected graph without isolated vertices (CSR or implicit).
    trials : int
        Number of independent runs.
    walkers : int or None
        Walker count for the default placement: distinct uniform
        vertices drawn independently per trial; ``None`` (or
        ``>= n``) starts one walker on every vertex, the classical
        setting — which covers at ``t = 0``.
    start : numpy.ndarray or None
        Explicit walker positions (array, shared by all trials) —
        mirrors the ``"coalescing"`` factory: ``None`` or the facade
        default ``0`` defer to *walkers*; any other scalar raises.
    seed : SeedLike, optional
        Seed/stream for the single interleaved RNG.
    max_steps : int, optional
        Step budget per trial; defaults to the serial helper's
        ``max(100_000, 20·n²)``.

    Returns
    -------
    numpy.ndarray
        ``float64[trials]`` cover times, ``np.nan`` marking budget
        exhaustion.
    """
    oracle = as_oracle(graph)
    _check_samplable(oracle, trials)
    n = oracle.n
    if max_steps is None:
        max_steps = max(100_000, 20 * n * n)
    rng = resolve_rng(seed)

    out = np.full(trials, np.nan)
    a = trials
    alive = np.arange(trials)
    base = np.arange(a, dtype=np.int64) * n

    if start is not None and np.ndim(start) > 0:
        pos0 = np.unique(np.asarray(start, dtype=np.int64))
        if pos0.size == 0:
            raise ValueError("need at least one walker")
        if pos0.min() < 0 or pos0.max() >= n:
            raise ValueError("walker position out of range")
        wpos = np.repeat(base, pos0.size) + np.tile(pos0, a)
    else:
        if start not in (None, 0):
            raise ValueError(
                "the coalescing process takes an array of walker positions "
                "as start (or the walkers= count); a scalar start has no "
                "meaning for a multi-walker coalescing system"
            )
        if walkers is None or walkers >= n:
            # one walker per vertex: everything is covered at t = 0
            out[:] = 0.0
            return out
        if walkers < 1:
            raise ValueError("need at least one walker")
        # per-trial distinct uniform placement: the `walkers` smallest
        # of n iid uniforms index a uniform random subset
        r = rng.random((a, n))
        sel = np.argpartition(r, walkers - 1, axis=1)[:, :walkers]
        wpos = np.sort((base[:, None] + sel).ravel())

    nn = np.int64(n)
    covered = visited_mask(a, n)
    covered.set_sorted_flat(wpos)
    cov_count = np.bincount(wpos // nn, minlength=a).astype(np.int64)

    def _compact(wpos, covered, keep):
        """Drop finished trial rows: remap surviving walker ids onto
        the dense row numbering and compact the covered mask."""
        rows = wpos // nn
        keepw = keep[rows]
        remap = np.cumsum(keep) - 1
        wpos = remap[rows[keepw]] * nn + wpos[keepw] % nn
        covered.keep_rows(keep)
        return wpos

    done0 = cov_count == n
    if done0.any():
        out[alive[done0]] = 0.0
        keep = ~done0
        alive = alive[keep]
        a = alive.size
        if a == 0:
            return out
        cov_count = cov_count[keep]
        wpos = _compact(wpos, covered, keep)

    for t in range(1, max_steps + 1):
        v = wpos % nn
        tb = wpos - v
        moved = oracle.sample_one(v, rng) + tb
        wpos = np.unique(moved)  # in-step merge, trial-local by key design
        unseen = ~covered.test_flat(wpos)
        if not unseen.any():
            continue
        fresh = wpos[unseen]
        covered.set_sorted_flat(fresh)
        cov_count += np.bincount(fresh // nn, minlength=a)
        done = cov_count == n
        if done.any():
            out[alive[done]] = t
            keep = ~done
            alive = alive[keep]
            a = alive.size
            if a == 0:
                break
            cov_count = cov_count[keep]
            wpos = _compact(wpos, covered, keep)
    return out


def batched_cobra_active_sizes(
    graph: GraphLike,
    *,
    trials: int,
    steps: int,
    k: int = 2,
    start: int | np.ndarray = 0,
    seed: SeedLike = None,
) -> np.ndarray:
    """Active-set-size trajectories ``|S_t|`` of *trials* independent
    k-cobra runs over a fixed horizon (no stopping rule).

    The fixed-horizon companion of :func:`batched_cobra_cover_trials`
    for experiments that consume the frontier dynamics themselves
    (``ACTIVE_growth``'s §1.1 growth/saturation measurements) rather
    than a stopping time: all trials advance in one flat frontier and
    each step records every trial's frontier size with one
    ``bincount``.

    Parameters
    ----------
    graph : Graph or NeighborOracle
        Connected graph without isolated vertices (CSR or implicit).
    trials : int
        Number of independent runs.
    steps : int
        Horizon: every trial advances exactly this many steps.
    k : int
        Cobra branching factor.
    start : int or numpy.ndarray
        Start vertex (or array of start vertices) shared by all trials.
    seed : SeedLike, optional
        Seed/stream for the single interleaved RNG.

    Returns
    -------
    numpy.ndarray
        ``int64[trials, steps + 1]``; column ``t`` is ``|S_t|``, with
        column 0 the start-set size — the batched analogue of
        :attr:`repro.core.cobra.CobraWalk.history`.
    """
    oracle = as_oracle(graph)
    _check_samplable(oracle, trials)
    if k < 1:
        raise ValueError(f"branching factor k must be >= 1, got {k}")
    if steps < 0:
        raise ValueError("steps must be >= 0")
    n = oracle.n
    start_arr = _validated_start(oracle, start)
    rng = resolve_rng(seed)

    a = trials
    pair, ftype = _cobra_ftype(oracle, k)
    nn = np.int64(n)
    deg_f = _degree_table(oracle, ftype)
    front = (
        np.repeat(np.arange(a, dtype=np.int64) * n, start_arr.size)
        + np.tile(start_arr, a)
    )
    sizes = np.zeros((trials, steps + 1), dtype=np.int64)
    sizes[:, 0] = start_arr.size
    scratch = np.zeros(a * n, dtype=bool)

    for t in range(1, steps + 1):
        v = front % nn
        _scatter_cobra_draws(
            oracle, v, deg_f.take(v), front - v, k, pair, ftype, rng, scratch
        )
        front = scratch.nonzero()[0]
        scratch[front] = False
        sizes[:, t] = np.bincount(front // nn, minlength=a)
    return sizes


def batched_walt_positions_at(
    graph: GraphLike,
    *,
    trials: int,
    steps: int,
    delta: float = 0.5,
    lazy: bool = True,
    start: int | np.ndarray | None = 0,
    seed: SeedLike = None,
    pebbles: int | None = None,
) -> np.ndarray:
    """Pebble positions of *trials* independent Walt runs after exactly
    *steps* (possibly lazy) rounds.

    The fixed-horizon companion of :func:`batched_walt_cover_trials`
    for the Theorem 8 epoch machinery (``T8_epochs``): the experiment
    needs the pebble *configuration* at the end of an epoch, not a
    cover time.  All trials advance through the same sort-free grouped
    move (:func:`_walt_move_batch`); the lazy coin is drawn per trial
    per round, so each trial holds independently.

    Parameters
    ----------
    graph : Graph or NeighborOracle
        Connected graph without isolated vertices (CSR or implicit).
    trials : int
        Number of independent runs.
    steps : int
        Horizon: every trial advances exactly this many rounds.
    delta : float
        Pebble density — ``max(1, int(delta·n))`` pebbles per trial
        (ignored when *pebbles* is given).
    lazy : bool
        Apply the per-round 1/2 holding coin (paper default).
    start : int or numpy.ndarray or None
        Placement, as in :func:`batched_walt_cover_trials`: a
        vertex/array puts the pebbles there in every trial; ``None``
        spreads them uniformly at random, independently per trial.
    seed : SeedLike, optional
        Seed/stream for the single interleaved RNG.
    pebbles : int or None
        Exact per-trial pebble count overriding *delta* (the epoch
        experiments pin ``max(2, int(δ·n))``).

    Returns
    -------
    numpy.ndarray
        ``int64[trials, p]`` pebble positions after *steps* rounds.
    """
    oracle = as_oracle(graph)
    _check_samplable(oracle, trials)
    if steps < 0:
        raise ValueError("steps must be >= 0")
    n = oracle.n
    if pebbles is None:
        if not 0 < delta <= 1:
            raise ValueError("delta must be in (0, 1]")
        p = max(1, int(delta * n))
    else:
        p = int(pebbles)
        if p < 1:
            raise ValueError("need at least one pebble")
    rng = resolve_rng(seed)
    positions = _walt_initial_positions(oracle, trials, p, start, rng)

    a = trials
    tmp = np.empty(a * n, dtype=np.int64)
    tmp2 = np.empty(a * n, dtype=np.int64)
    d1 = np.empty(a * n, dtype=np.int64)
    d2 = np.empty(a * n, dtype=np.int64)
    for _ in range(steps):
        if lazy:
            move_rows = (rng.random(a) >= 0.5).nonzero()[0]
            if move_rows.size == 0:
                continue
        else:
            move_rows = np.arange(a)
        positions[move_rows] = _walt_move_batch(
            oracle, positions, move_rows, rng, tmp, tmp2, d1, d2
        )
    return positions


def batched_biased_cover_trials(
    graph: GraphLike,
    target: int,
    *,
    trials: int,
    start: int = 0,
    seed: SeedLike = None,
    max_steps: int | None = None,
    eps: float | None = None,
    controller: np.ndarray | None = None,
) -> np.ndarray:
    """Cover times of *trials* independent biased-walk runs.

    One row of state per trial, exactly the
    :func:`repro.walks.simple.rw_cover_trials` idiom but with the
    biased transition — at vertex ``v`` the walk follows the
    controller's neighbor with probability ``eps`` (or the
    inverse-degree bias ``1/d(v)`` when ``eps is None``) and a uniform
    neighbor otherwise.  The controller table is precomputed once (the
    toward-*target* BFS table by default), so each global step is two
    uniform draws per trial — one bias coin, one neighbor index — plus
    the coverage scatter.  Distributionally identical to serial
    :class:`repro.core.biased.BiasedWalk` runs (the serial walk skips
    the neighbor draw on controller steps; the batched engine always
    draws both, a different stream consumption of the same law).

    Parameters
    ----------
    graph : Graph or NeighborOracle
        Connected graph without isolated vertices (CSR or implicit).
        The default BFS controller needs CSR edges, so implicit
        oracles must pass *controller* explicitly.
    target : int
        The vertex the controller steers toward (the biased walk is
        defined relative to a target even when sweeping coverage).
    trials : int
        Number of independent runs.
    start : int
        Common start vertex of every trial.
    seed : SeedLike, optional
        Seed/stream for the single interleaved RNG.
    max_steps : int, optional
        Step budget per trial; defaults to the biased walk's serial
        budget.
    eps : float, optional
        Constant controller probability; ``None`` selects the paper's
        inverse-degree bias ``1/d(v)``.
    controller : numpy.ndarray, optional
        ``int64[n]`` controller table (vertex → chosen neighbor);
        defaults to the toward-target BFS table.

    Returns
    -------
    numpy.ndarray
        ``float64[trials]`` cover times, ``np.nan`` marking budget
        exhaustion.
    """
    oracle = as_oracle(graph)
    _check_samplable(oracle, trials)
    n = oracle.n
    if not (0 <= target < n):
        raise ValueError("target out of range")
    if not (0 <= int(start) < n):
        raise ValueError("start out of range")
    if eps is not None and not 0.0 <= eps <= 1.0:
        raise ValueError("eps must be in [0, 1]")
    if max_steps is None:
        max_steps = 10_000_000
    if controller is None:
        if not isinstance(graph, Graph):
            raise ValueError(
                "the default controller is a BFS table over CSR edges; pass "
                "controller= explicitly when running on an implicit oracle"
            )
        from ..core.biased import toward_target_controller

        controller = toward_target_controller(graph, target)
    controller = np.asarray(controller, dtype=np.int64)
    if controller.shape != (n,):
        raise ValueError("controller table must have one entry per vertex")
    rng = resolve_rng(seed)

    deg = _degree_table(oracle, np.float64)
    nn = np.int64(n)
    row_base = np.arange(trials, dtype=np.int64) * nn
    pos = np.full(trials, int(start), dtype=np.int64)
    covered = visited_mask(trials, n)
    covered.set_unique_rows(row_base + int(start))
    count = np.ones(trials, dtype=np.int64)
    out = np.full(trials, np.nan)
    done = np.zeros(trials, dtype=bool)
    if n == 1:
        return np.zeros(trials)
    for t in range(1, max_steps + 1):
        bias = (1.0 / deg[pos]) if eps is None else eps
        coin = rng.random(trials)
        nbr = oracle.sample_one(pos, rng)
        pos = np.where(coin < bias, controller[pos], nbr)
        flat = row_base + pos
        fresh = ~covered.test_flat(flat)
        covered.set_unique_rows(flat)
        count += fresh
        newly_done = ~done & (count == n)
        if newly_done.any():
            out[newly_done] = t
            done |= newly_done
            if done.all():
                break
    return out


def batched_lazy_hit_trials(
    graph: GraphLike,
    target: int,
    *,
    trials: int,
    start: int = 0,
    seed: SeedLike = None,
    max_steps: int | None = None,
) -> np.ndarray:
    """Hitting times of *target* over *trials* independent
    lazy-random-walk runs (the lazy ``metric="hit"`` engine).

    The same jump-chain time-change as
    :func:`batched_lazy_cover_trials`: first activation of the target
    can only happen at a move, so the *move* chain races to the target
    on the batched simple-walk hit engine
    (:func:`repro.walks.simple.rw_hitting_trials`) and the holds are
    reconstructed afterwards as one ``NegativeBinomial(moves, 1/2)``
    draw per finished trial.  Exactly the law of the serial lazy walk,
    including budget censoring: a trial is ``nan`` iff its
    reconstructed step total exceeds *max_steps*.

    Parameters
    ----------
    graph : Graph or NeighborOracle
        Connected graph without isolated vertices (CSR or implicit).
    target : int
        Vertex whose first visit stops a trial.
    trials : int
        Number of independent runs.
    start : int
        Common start vertex of every trial.
    seed : SeedLike, optional
        Seed/stream for the single interleaved RNG.
    max_steps : int, optional
        Step budget per trial (holds included, as in the serial walk);
        defaults to the lazy walk's serial budget.

    Returns
    -------
    numpy.ndarray
        ``float64[trials]`` hitting times, ``np.nan`` marking budget
        exhaustion.
    """
    oracle = as_oracle(graph)
    _check_samplable(oracle, trials)
    from ..walks.simple import _cover_budget, rw_hitting_trials

    n = oracle.n
    if not (0 <= target < n):
        raise ValueError("target out of range")
    if not (0 <= int(start) < n):
        raise ValueError("start out of range")
    if max_steps is None:
        max_steps = _cover_budget(n)
    rng = resolve_rng(seed)

    # total steps >= moves, so `max_steps` moves bounds every trial
    # that could still hit within the step budget
    moves = rw_hitting_trials(
        graph, target, start=int(start), trials=trials, seed=rng, max_steps=max_steps
    )
    out = np.full(trials, np.nan)
    fin = np.flatnonzero(~np.isnan(moves))
    if fin.size:
        n_moves = moves[fin].astype(np.int64)
        total = n_moves + rng.negative_binomial(np.maximum(n_moves, 1), 0.5)
        total = np.where(n_moves > 0, total, 0)
        ok = total <= max_steps
        out[fin[ok]] = total[ok]
    return out
