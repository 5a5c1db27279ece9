"""Vectorized batched trial engines.

Serial Monte-Carlo sweeps pay per-trial Python overhead: 32 cobra
cover runs are 32 Python step loops, each issuing a dozen small numpy
calls per step.  The engines here advance *all* trials in one flat
``(trials * n,)`` state — trial ``r``'s copy of vertex ``v`` lives at
index ``r*n + v`` — so each global step does one batched neighbor
draw and one boolean-scatter pass for every trial at once (the same
idiom as the serial :func:`repro.core.cobra.cobra_step` kernel,
amortized across trials).
(:func:`repro.walks.simple.rw_trials` plays the same role for the
simple walk.)

Every engine samples through the :class:`repro.graphs.implicit.
NeighborOracle` contract rather than reaching into CSR arrays: a CSR
:class:`~repro.graphs.base.Graph` wraps in the bit-identical adapter
(``as_oracle``), while arithmetic oracles (torus, hypercube,
circulant, Kronecker) answer the same three questions — vertex count,
degrees, neighbor draws — without ever materialising edges, which is
what lets a million-vertex cover cell run in megabytes.

One lock-step driver, :func:`_lockstep`, runs every engine but the
simple-walk family.  It owns the alive rows and the output, records
each trial's finish step (``t = 0`` included), compacts finished rows
out of the state so the tail of slow trials doesn't pay for the fast
ones, enforces the step budget and flushes the counters.  An engine is
one *mover* — the process's step over the alive rows, returning the
flat ids it reached — combined with one of three stop rules:

* **cover** (:class:`_Cover`) — a visited mask plus a per-row count; a
  row stops when its count reaches ``n``;
* **hit** (:class:`_Hit`) — a row stops when the target is among its
  reached ids;
* **horizon** (:class:`_Horizon`) — no row stops; the budget is the
  horizon.

The movers, each with the engines built on it:

* :class:`_CobraMover` — the k-cobra frontier: the sorted flat ids
  reached by the step's ``k`` pebbles per active vertex, deduplicated
  through one boolean scatter.  Cover and hit
  :func:`batched_cobra_trials`, horizon
  :func:`batched_cobra_active_sizes` (per-step ``|S_t|``);
* :class:`_GossipMover` — push / pull / push-pull rumor spreading that
  draws only for boundary vertices (informed ones with an uninformed
  neighbor push, uninformed ones with an informed neighbor pull; no
  other draw can change the state), tracked incrementally from each
  round's freshly informed set.  Spread and hit
  :func:`batched_gossip_trials`;
* :class:`_WaltMover` — Walt's per-vertex pebble groups, found
  sort-free by duplicate-scatter on the flat ``trial*n + vertex`` key
  (groups never span trials) in place of the serial kernel's per-trial
  lexsort, with the lazy coin drawn per trial per step.  Cover and hit
  :func:`batched_walt_trials`, horizon
  :func:`batched_walt_positions_at` (pebble positions);
* :class:`_CoalescingMover` — shrinking walker sets: one neighbor draw
  moves every surviving walker and one sorted unique on the flat key
  merges co-located walkers of a trial (ids of different trials live
  ``n`` apart and never collide).  Cover
  :func:`batched_coalescing_cover_trials`;
* :class:`_BranchingMover` — per-``(trial, vertex)`` particle counts
  whose children split multinomially by binomial peeling over neighbor
  slots, under a per-trial population cap that mirrors the serial
  renormalisation.  Cover :func:`batched_branching_cover_trials`.

An engine that takes ``target`` runs the cover (or spread) rule when
it is ``None`` and the hit rule when it is a vertex; the registry
wires that one function in as the process's ``ProcessSpec.batch``.

The simple-walk family runs on its own block driver,
:func:`repro.walks.simple.walk_blocks`: :func:`batched_parallel_walks_
cover_trials` advances ``trials × walkers`` walkers there, and
:func:`batched_lazy_trials` runs the lazy walk as a time-change — the
move chain rides the simple-walk engine
(:func:`repro.walks.simple.rw_trials`) and the holds are
reconstructed by one negative-binomial draw per trial
(:func:`_add_holds`).

Hot-path notes (measured on the benchmark machine, not guessed):

* index arrays stay ``int64`` end to end — numpy silently converts
  any other integer dtype to ``intp`` per fancy-indexing call, which
  doubles the cost of the scatter;
* flat ids decompose against one **size-n** degree table shared by
  all trials — the old per-flat-id tables tiled
  ``start``/``degree``/``base``/``row`` per trial, an ``O(trials·n)``
  allocation that capped scaling long before the edge arrays did.
  Cobra splits its sorted frontier at the row starts (``searchsorted``,
  ``v = front - base``): 53 µs at 54k ids against 290 µs for ``% n``;
* cobra gathers all ``k·F`` pebbles with one ``take`` from a flat
  ``int64[n · max_degree]`` neighbor table built once per run
  (:func:`_neighbor_table`) instead of a per-step ``neighbor_at`` — on
  ``hypercube_oracle(13)`` at F = 60k, 0.3 ms against 7 ms for the
  ``(F, 13)`` candidate build and row sort.  Oracles whose table would
  pass 1 MiB keep ``neighbor_at``;
* flat-id sets are deduplicated by :func:`~repro.sim.bitmask.sorted_unique`,
  not by numpy 2's hash-based ``np.unique``;
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
  coverage settled once per block (one mask test, one sorted unique,
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
need one independent seed stream per trial.  On CSR
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
from . import bitmask
from .bitmask import sorted_unique, visited_mask
from .rng import SeedLike, resolve_rng

__all__ = [
    "batched_branching_cover_trials",
    "batched_coalescing_cover_trials",
    "batched_cobra_active_sizes",
    "batched_cobra_trials",
    "batched_gossip_trials",
    "batched_lazy_trials",
    "batched_parallel_walks_cover_trials",
    "batched_walt_positions_at",
    "batched_walt_trials",
]

GraphLike = Graph | NeighborOracle

#: cobra's dedup mask is cleared by a fresh ``np.zeros`` up to this many
#: ``trials · n`` cells and by a scatter-reset of the frontier above it:
#: the calloc beats an O(|front|) scatter while the mask is small
#: (measured 0.4µs vs 8µs at 35KB) but is an O(trials·n) memset per step
_SCATTER_RESET_CELLS = 1 << 21

_NO_IDS = np.empty(0, dtype=np.int64)


def _degree_table(oracle: NeighborOracle, ftype=np.float64) -> np.ndarray:
    """Size-``n`` per-vertex degree table in the engine's float width.

    Shared by every trial: the hot loops gather from it at each flat
    id's vertex ``v = front - base`` — the trial-count-independent
    replacement for the old per-flat-id tiled tables."""
    return oracle.degree(np.arange(oracle.n, dtype=np.int64)).astype(ftype)


def _neighbor_table(oracle: NeighborOracle) -> np.ndarray | None:
    """Flat ``int64[n · max_degree]`` table whose row ``v`` lists ``v``'s
    neighbors in ascending order, padded past ``deg(v)`` with its last
    neighbor (never drawn: every slot is below ``deg(v)``).  None when
    the table would exceed :data:`~repro.sim.bitmask.DENSE_LIMIT` bytes
    (read at call time); those oracles answer ``neighbor_at`` per step."""
    width = oracle.max_degree
    if 8 * oracle.n * width > bitmask.DENSE_LIMIT:
        return None
    verts = np.arange(oracle.n, dtype=np.int64)[:, None]
    slots = np.minimum(np.arange(width, dtype=np.int64), oracle.degree(verts) - 1)
    return np.ascontiguousarray(oracle.neighbor_at(verts, slots), dtype=np.int64).ravel()


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
        """A contiguous ``dtype[size]`` slice under *name* (one dtype per
        name)."""
        buf = self._bufs.get(name)
        if buf is None or buf.size < size:
            cap = size if buf is None else max(size, 2 * buf.size)
            buf = self._bufs[name] = np.empty(cap, dtype)
        return buf[:size]


def _start_vertices(oracle: NeighborOracle, start) -> np.ndarray:
    """Facade-style ``start`` (a vertex or an array of them), validated."""
    start_arr = np.atleast_1d(np.asarray(start, dtype=np.int64))
    if start_arr.size == 0:
        raise ValueError("need at least one start vertex")
    if start_arr.min() < 0 or start_arr.max() >= oracle.n:
        raise ValueError("start vertex out of range")
    return start_arr


def _scalar_start(graph: GraphLike, start) -> int:
    """Facade-style ``start`` (a vertex or a one-element array) as the
    single vertex a single-pebble process needs, validated."""
    arr = np.atleast_1d(np.asarray(start, dtype=np.int64))
    if arr.size != 1:
        raise ValueError("this process takes a single start vertex")
    vertex = int(arr[0])
    _check_vertex(graph, vertex, "start")
    return vertex


def _samplable(graph: GraphLike, trials: int) -> NeighborOracle:
    """*graph* as an oracle, checked to have a trial and no isolated vertex."""
    oracle = as_oracle(graph)
    if trials < 1:
        raise ValueError("need at least one trial")
    if oracle.n and oracle.min_degree <= 0:
        raise ValueError("cannot sample a neighbor of an isolated vertex")
    return oracle


def _check_vertex(graph: GraphLike, v: int, what: str) -> None:
    if not (0 <= v < graph.n):
        raise ValueError(f"{what} out of range")


def _keep_flat(ids: np.ndarray, keep: np.ndarray, nn: np.int64) -> np.ndarray:
    """The flat ids ``row·n + v`` of the kept rows, renumbered onto the
    compacted rows (order preserved, so sorted ids stay sorted)."""
    rows = ids // nn
    kept = keep[rows]
    return (np.cumsum(keep) - 1)[rows[kept]] * nn + ids[kept] % nn


def _row_ids(rows: int, n: int, verts: np.ndarray) -> np.ndarray:
    """Sorted flat ids of the sorted vertex set *verts* in every row."""
    return np.repeat(np.arange(rows, dtype=np.int64) * n, verts.size) + np.tile(verts, rows)


# --------------------------------------------------------------------------
# The driver and its stop rules
# --------------------------------------------------------------------------


class _Mover:
    """One process family's step of every alive row.

    ``step()`` advances the rows by one lock-step and returns the flat
    ids ``row·n + v`` the step reached (empty when nothing moved);
    ``keep(mask)`` drops the rows where *mask* is False.  ``draws``
    counts the random variates consumed and ``peak``, for the frontier
    movers, the largest frontier stepped."""

    draws = 0
    peak: int | None = None


class _Rule:
    """A stop rule: ``rule(t, reached, rows)`` returns the ``bool[rows]``
    mask of rows that stop at step *t*, or None when none does.  Rules
    without per-row state ignore compaction."""

    def keep(self, keep: np.ndarray) -> None:
        pass


class _Cover(_Rule):
    """Cover rule: a visited mask plus a per-row count; a row stops the
    step its count reaches ``n``.  Reached ids must be sorted and unique
    (the fused test-and-set) unless ``sorted_ids=False``."""

    def __init__(self, rows: int, n: int, sorted_ids: bool = True) -> None:
        self.n = np.int64(n)
        self.visited = visited_mask(rows, n)
        self.count = np.zeros(rows, dtype=np.int64)
        self.sorted_ids = sorted_ids

    def __call__(self, t: int, reached: np.ndarray, rows: int) -> np.ndarray | None:
        if self.sorted_ids:
            # re-setting already-set bits is a no-op
            fresh = reached[self.visited.test_and_set_sorted(reached)]
        else:
            fresh = sorted_unique(reached[~self.visited.test_flat(reached)])
            self.visited.set_sorted_flat(fresh)
        if not fresh.size:
            return None
        self.count += np.bincount(fresh // self.n, minlength=rows)
        return self.count == self.n

    def keep(self, keep: np.ndarray) -> None:
        self.count = self.count[keep]
        self.visited.keep_rows(keep)


class _Hit(_Rule):
    """Hit rule: a row stops the step *target* is among its reached ids.
    Sorted reached ids are searched per row; ``sorted_ids=False`` scans
    them all."""

    def __init__(self, n: int, target: int, sorted_ids: bool = True) -> None:
        self.n = np.int64(n)
        self.target = target
        self.sorted_ids = sorted_ids

    def __call__(self, t: int, reached: np.ndarray, rows: int) -> np.ndarray:
        if self.sorted_ids:
            want = np.arange(rows, dtype=np.int64) * self.n + self.target
            found = np.minimum(np.searchsorted(reached, want), reached.size - 1)
            return reached[found] == want
        done = np.zeros(rows, dtype=bool)
        done[reached[reached % self.n == self.target] // self.n] = True
        return done


class _Horizon(_Rule):
    """Fixed-horizon rule: no row ever stops.  With *sizes* it records
    each step's per-row reached count in column ``t`` (cobra's
    ``|S_t|``)."""

    def __init__(self, n: int, sizes: np.ndarray | None = None) -> None:
        self.n = np.int64(n)
        self.sizes = sizes

    def __call__(self, t: int, reached: np.ndarray, rows: int) -> None:
        if self.sizes is not None:
            self.sizes[:, t] = np.bincount(reached // self.n, minlength=rows)


def _lockstep(
    mover: _Mover, rule: _Rule, trials: int, max_steps: int, reached: np.ndarray
) -> np.ndarray:
    """Step *mover* until *rule* has stopped every trial or *max_steps*
    steps have run; ``float64[trials]`` stop times, ``nan`` where the
    budget ran out.

    *reached* is the start state's ids, so a trial can stop at
    ``t = 0``.  Stopped rows are compacted out of the mover and the
    rule.  Under an active tracer the call reports ``engine_steps``
    (lock-steps), ``trial_steps`` (steps taken by still-running trials,
    summed over trials), ``rng_draws`` (variates drawn) and, for the
    frontier movers, the ``frontier_peak`` gauge."""
    out = np.full(trials, np.nan)
    alive = np.arange(trials)
    t = 0
    while True:
        done = rule(t, reached, alive.size) if reached.size else None
        if done is not None and done.any():
            out[alive[done]] = t
            keep = ~done
            alive = alive[keep]
            if not alive.size:
                break
            mover.keep(keep)
            rule.keep(keep)
        if t >= max_steps:
            break
        t += 1
        reached = mover.step()
    tracer = current_tracer()
    if tracer.enabled:
        tracer.count("engine_steps", t)
        tracer.count("trial_steps", int(np.where(np.isnan(out), t, out).sum()))
        tracer.count("rng_draws", mover.draws)
        if mover.peak is not None:
            tracer.gauge("frontier_peak", mover.peak)
    return out


# --------------------------------------------------------------------------
# Movers
# --------------------------------------------------------------------------


class _CobraMover(_Mover):
    """The k-cobra frontier: every active vertex of every row sends
    ``k`` pebbles to uniform neighbors, and the sorted set of flat ids
    they reach is the next frontier.  Per-step temporaries come from a
    buffer pool; the uniforms are float32 while the ``k == 2``
    double-draw (degree ≤ 64) or the single-draw index (degree < 2^20)
    stays exact (module notes).  Neighbors come from the neighbor table
    where there is one, else from ``neighbor_at``, with the same ids."""

    peak = 0

    def __init__(
        self, oracle: NeighborOracle, k: int, rows: int, start: np.ndarray, rng
    ) -> None:
        self.oracle, self.k, self.rng = oracle, k, rng
        self.front = _row_ids(rows, oracle.n, start)
        self.pair = k == 2
        exact = oracle.max_degree <= 64 if self.pair else oracle.max_degree < (1 << 20)
        self.ftype = np.float32 if exact else np.float64
        self.nn = np.int64(oracle.n)
        self.deg_f = _degree_table(oracle, self.ftype)
        self.table = _neighbor_table(oracle)
        self.width = np.int64(oracle.max_degree)
        self.pool = _BufferPool()
        self._clear_scratch(rows)

    def _clear_scratch(self, rows: int) -> None:
        self.scratch = np.zeros(rows * int(self.nn), dtype=bool)
        self.row_starts = np.arange(rows + 1, dtype=np.int64) * self.nn
        self.reset_by_scatter = self.scratch.size > _SCATTER_RESET_CELLS

    def step(self) -> np.ndarray:
        front, pool, ftype, scratch = self.front, self.pool, self.ftype, self.scratch
        F = front.size
        self.draws += F if self.pair else self.k * F
        self.peak = max(self.peak, F)
        # the sorted frontier splits into rows at the row starts
        bounds = front.searchsorted(self.row_starts)
        base = self.row_starts[:-1].repeat(bounds[1:] - bounds[:-1])
        v = np.subtract(front, base, out=pool.get("v", F, np.int64))
        degs = self.deg_f.take(v, out=pool.get("deg", F, ftype))
        if self.pair:
            u = self.rng.random(out=pool.get("u", F, ftype), dtype=ftype)
            u *= degs
            scaled = pool.get("scaled", 2 * F, ftype).reshape(2, F)
            first, rest = scaled
            np.floor(u, out=first)
            np.subtract(u, first, out=rest)  # leftover fraction: uniform again
            rest *= degs
        else:
            scaled = self.rng.random((self.k, F), dtype=ftype)
            scaled *= degs
        # the scaled uniforms truncate (== floor, they are >= 0) to slots,
        # offset to the vertex's table row where there is a table
        slots = pool.get("slots", scaled.size, np.int64).reshape(scaled.shape)
        offset = 0 if self.table is None else np.multiply(v, self.width, out=v)
        np.add(scaled, offset, out=slots, dtype=np.int64, casting="unsafe")
        if self.table is not None:
            picks = self.table.take(slots)
            picks += base
            scratch[picks] = True
        else:
            pooled = self.oracle.pooled_slots or not self.pair
            for block in (slots,) if pooled else slots:
                picks = self.oracle.neighbor_at(v, block)
                picks += base
                scratch[picks] = True
        front = self.front = scratch.nonzero()[0]
        if self.reset_by_scatter:
            scratch[front] = False
        else:
            self.scratch = np.zeros(scratch.size, dtype=bool)
        return front

    def keep(self, keep: np.ndarray) -> None:
        self.front = _keep_flat(self.front, keep, self.nn)
        self._clear_scratch(int(keep.sum()))


class _GossipMover(_Mover):
    """Push and/or pull rumor spreading over the boundary only: a push
    from an informed vertex whose whole neighborhood is informed, or a
    pull by one with no informed neighbor, can never change the state,
    so only boundary vertices draw.  The boundary is maintained from
    each round's freshly informed ids (one oracle neighborhood
    expansion plus one sparse unique — never an ``O(rows · n)`` pass);
    ``step`` returns those ids, sorted."""

    peak = 0

    def __init__(
        self, oracle: NeighborOracle, rows: int, start: int, rng, push: bool, pull: bool
    ) -> None:
        n = oracle.n
        self.oracle, self.rng, self.push, self.pull = oracle, rng, push, pull
        self.nn = np.int64(n)
        deg_i = oracle.degree(np.arange(n, dtype=np.int64))
        self.deg_f = deg_i.astype(np.float64)
        self.informed = visited_mask(rows, n)
        self.start = np.arange(rows, dtype=np.int64) * n + start
        self.informed.set_unique_rows(self.start)
        uids0, ucnt0 = self._expand(self.start)
        if push:
            # uninformed-neighbor count per flat id (push prune: == 0 means
            # saturated, and saturation is monotone)
            self.uncount = np.tile(deg_i, rows)
            self.uncount[uids0] -= ucnt0
        self.askers = _NO_IDS
        if pull:
            # flat ids that have ever had an informed neighbor (pull grow:
            # a vertex joins the asker pool on its first such event)
            self.everseen = visited_mask(rows, n)
            self.everseen.set_sorted_flat(uids0)
            # uninformed flat ids with >= 1 informed neighbor
            self.askers = uids0[~self.informed.test_flat(uids0)]
        # informed flat ids still bordering uninformed vertices
        self.senders = self.start

    def _expand(self, fresh: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Unique flat neighbor ids of *fresh* and how often each is hit."""
        w = fresh % self.nn
        nbrs_local, deg = self.oracle.all_neighbors(w)
        return sorted_unique(np.repeat(fresh - w, deg) + nbrs_local, return_counts=True)

    def _draw(self, ids: np.ndarray) -> np.ndarray:
        """One uniform neighbor's flat id per flat id in *ids*."""
        w = ids % self.nn
        u = self.rng.random(ids.size)
        slots = (u * self.deg_f[w]).astype(np.int64)
        return (ids - w) + self.oracle.neighbor_at(w, slots)

    def step(self) -> np.ndarray:
        informed = self.informed
        new_parts = []
        if self.push:
            self.senders = self.senders[self.uncount[self.senders] > 0]
            cand = self._draw(self.senders)
            new_parts.append(cand[~informed.test_flat(cand)])
        if self.pull:
            self.askers = self.askers[~informed.test_flat(self.askers)]
            if self.askers.size:
                new_parts.append(self.askers[informed.test_flat(self._draw(self.askers))])
        drawn = self.senders.size * self.push + self.askers.size
        self.draws += drawn
        self.peak = max(self.peak, drawn)
        new = np.concatenate(new_parts) if new_parts else _NO_IDS
        if new.size == 0:
            return _NO_IDS
        fresh = sorted_unique(new)
        informed.set_sorted_flat(fresh)
        uids, ucnt = self._expand(fresh)
        if self.push:
            self.uncount[uids] -= ucnt
            self.senders = np.concatenate([self.senders, fresh])
        if self.pull:
            newly = uids[~self.everseen.test_flat(uids)]
            self.everseen.set_sorted_flat(uids)
            self.askers = np.concatenate([self.askers, newly[~informed.test_flat(newly)]])
        return fresh

    def keep(self, keep: np.ndarray) -> None:
        self.informed.keep_rows(keep)
        if self.push:
            self.uncount = self.uncount.reshape(keep.size, -1)[keep].ravel()
            self.senders = _keep_flat(self.senders, keep, self.nn)
        if self.pull:
            self.everseen.keep_rows(keep)
            self.askers = _keep_flat(self.askers, keep, self.nn)


class _WaltMover(_Mover):
    """One non-lazy Walt move of the moving rows of the ``(rows, p)``
    pebble-position array, after a per-row lazy coin when *lazy*;
    ``step`` returns the moved pebbles' flat ids.

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

    The dense tables are sized on the first step and carry stale values
    between steps by design: every read is at a key written earlier in
    the same step, so no O(rows·n) reset is ever needed, and compaction
    only shrinks the keys in use."""

    def __init__(
        self, oracle: NeighborOracle, positions: np.ndarray, lazy: bool, rng
    ) -> None:
        self.oracle, self.positions, self.lazy, self.rng = oracle, positions, lazy, rng
        self.nn = np.int64(oracle.n)
        self.tables: np.ndarray | None = None

    def flat_ids(self, rows: np.ndarray) -> np.ndarray:
        """Flat ids of every pebble of *rows*."""
        return ((rows * self.nn)[:, None] + self.positions[rows]).ravel()

    def step(self) -> np.ndarray:
        a = self.positions.shape[0]
        if self.lazy:
            self.draws += a
            move_rows = (self.rng.random(a) >= 0.5).nonzero()[0]
            if move_rows.size == 0:
                return _NO_IDS
        else:
            move_rows = np.arange(a)
        if self.tables is None:
            self.tables = np.empty((4, a * int(self.nn)), dtype=np.int64)
        tmp, tmp2, d1, d2 = self.tables
        oracle, rng = self.oracle, self.rng
        sub = self.positions[move_rows]
        m, p = sub.shape
        flat_pos = sub.ravel()
        key = np.repeat(move_rows.astype(np.int64) * self.nn, p) + flat_pos
        idx = np.arange(m * p, dtype=np.int64)
        tmp[key] = idx
        leader = tmp[key] == idx
        newpos = np.empty(m * p, dtype=np.int64)
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
        self.draws += m * p
        self.positions[move_rows] = newpos.reshape(m, p)
        return self.flat_ids(move_rows)

    def keep(self, keep: np.ndarray) -> None:
        self.positions = self.positions[keep]


class _CoalescingMover(_Mover):
    """Coalescing walkers held as one sorted array of flat walker ids:
    one neighbor draw moves every surviving walker, and one
    sorted unique merges co-located walkers of the same trial."""

    peak = 0

    def __init__(self, oracle: NeighborOracle, walkers: np.ndarray, rng) -> None:
        self.oracle, self.walkers, self.rng = oracle, walkers, rng
        self.nn = np.int64(oracle.n)

    def step(self) -> np.ndarray:
        v = self.walkers % self.nn
        self.draws += v.size
        self.peak = max(self.peak, v.size)
        moved = self.oracle.sample_one(v, self.rng) + (self.walkers - v)
        self.walkers = sorted_unique(moved)  # in-step merge, trial-local by key design
        return self.walkers

    def keep(self, keep: np.ndarray) -> None:
        self.walkers = _keep_flat(self.walkers, keep, self.nn)


class _BranchingMover(_Mover):
    """k-branching particle counts in one flat ``int64[rows · n]`` array;
    ``step`` returns the occupied flat ids, sorted.  The ``k·c``
    children of the ``c`` particles at a vertex split multinomially by
    binomial peeling: slot ``j`` of every occupied vertex with
    ``deg > j`` takes ``Binomial(remaining, 1/(deg-j))`` children in one
    draw, so a step costs ``O(max_degree)`` batched calls.  A row whose
    population exceeds *cap* is renormalised down proportionally with
    occupied vertices clamped to ≥ 1 particle."""

    peak = 0

    def __init__(
        self, oracle: NeighborOracle, k: int, counts: np.ndarray, cap: int, rng
    ) -> None:
        self.oracle, self.k, self.counts, self.cap, self.rng = oracle, k, counts, cap, rng
        self.n = oracle.n
        self.nn = np.int64(oracle.n)

    def step(self) -> np.ndarray:
        oracle, nn, counts = self.oracle, self.nn, self.counts
        a = counts.size // self.n
        occ = np.flatnonzero(counts)  # ragged per-trial frontier, flat+sorted
        self.peak = max(self.peak, occ.size)
        v = occ % nn
        deg = oracle.degree(v)
        vbase = occ - v
        remaining = counts[occ] * self.k
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
                x[split] = self.rng.binomial(rem[split], 1.0 / (deg_sel[split] - j))
                self.draws += int(split.sum())
            x[last] = rem[last]
            remaining[sel] -= x
            nz = np.flatnonzero(x)
            if nz.size:
                pick = sel[nz]
                tgt_parts.append(vbase[pick] + oracle.neighbor_at(v[pick], j))
                cnt_parts.append(x[nz])
        # int sums through float64 weights are exact far beyond any cap
        counts = self.counts = np.bincount(
            np.concatenate(tgt_parts),
            weights=np.concatenate(cnt_parts),
            minlength=a * self.n,
        ).astype(np.int64)
        occ2 = np.flatnonzero(counts)
        row = occ2 // nn
        pop = np.bincount(row, weights=counts[occ2].astype(np.float64), minlength=a)
        over = pop > self.cap
        if over.any():
            sel = np.flatnonzero(over[row])
            ids = occ2[sel]
            scale = self.cap / pop[row[sel]]
            counts[ids] = np.maximum((counts[ids] * scale).astype(np.int64), 1)
        return occ2

    def keep(self, keep: np.ndarray) -> None:
        self.counts = self.counts.reshape(keep.size, -1)[keep].ravel()


# --------------------------------------------------------------------------
# Engines
# --------------------------------------------------------------------------


def _cobra_mover(
    graph: GraphLike, trials: int, k: int, start, seed, target=None
) -> _CobraMover:
    oracle = _samplable(graph, trials)
    if k < 1:
        raise ValueError(f"branching factor k must be >= 1, got {k}")
    if target is not None:
        _check_vertex(oracle, target, "target")
    start_arr = sorted_unique(_start_vertices(oracle, start))
    return _CobraMover(oracle, k, trials, start_arr, resolve_rng(seed))


def batched_cobra_trials(
    graph: GraphLike,
    target: int | None = None,
    *,
    trials: int,
    k: int = 2,
    start: int | np.ndarray = 0,
    seed: SeedLike = None,
    max_steps: int | None = None,
) -> np.ndarray:
    """Cover times (``target=None``) or first-activation times of
    *target* over *trials* independent k-cobra runs, advanced in
    lock-step; finished trials are compacted out so the tail of slow
    trials doesn't pay for the fast ones.

    The hit rule keeps no per-vertex visit ledger: a trial is done the
    step its frontier contains *target*, so its hot loop is the cover
    rule's frontier step plus one search of the new frontier.

    Under an active :mod:`repro.obs` tracer the engine reports the
    driver's ``engine_steps``, ``trial_steps``, ``rng_draws`` and
    ``frontier_peak`` counters on the enclosing span; with the default
    :data:`~repro.obs.trace.NULL_TRACER` the taps are dead branches.

    Parameters
    ----------
    graph : Graph or NeighborOracle
        Connected graph without isolated vertices (CSR or implicit).
    target : int, optional
        Vertex whose first activation stops a trial; ``None`` stops a
        trial when it has covered the graph.
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
        ``float64[trials]`` cover or hitting times with ``np.nan``
        marking budget exhaustion — the same contract as the serial
        path of :func:`repro.sim.facade.run_batch`.
    """
    mover = _cobra_mover(graph, trials, k, start, seed, target)
    n = mover.oracle.n
    if max_steps is None:
        from ..core.cobra import _default_budget

        max_steps = _default_budget(n)
    rule = _Cover(trials, n) if target is None else _Hit(n, target)
    return _lockstep(mover, rule, trials, max_steps, mover.front)


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

    The fixed-horizon companion of :func:`batched_cobra_trials`
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
    if steps < 0:
        raise ValueError("steps must be >= 0")
    mover = _cobra_mover(graph, trials, k, start, seed)
    sizes = np.zeros((trials, steps + 1), dtype=np.int64)
    _lockstep(mover, _Horizon(mover.oracle.n, sizes), trials, steps, mover.front)
    return sizes


def batched_gossip_trials(
    graph: GraphLike,
    target: int | None = None,
    *,
    trials: int,
    start: int | np.ndarray = 0,
    seed: SeedLike = None,
    max_steps: int | None = None,
    push: bool = True,
    pull: bool = False,
) -> np.ndarray:
    """Spread times (``target=None``) or the rounds at which *target*
    learns the rumor, over *trials* independent gossip runs (push
    and/or pull) advanced in lock-step; finished trials are compacted
    out.

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
    wavefront sweep.  The hit rule keeps no informed count: its only
    test is target membership in each round's freshly informed set.

    Parameters
    ----------
    graph : Graph or NeighborOracle
        Connected graph without isolated vertices (CSR or implicit).
    target : int, optional
        Vertex whose first informing stops a trial; ``None`` stops a
        trial when the rumor has saturated the graph.
    trials : int
        Number of independent runs.
    start : int or numpy.ndarray
        The initially informed vertex (or a one-element array of it).
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
        budget exhaustion (``0.0`` when *target* is the start vertex).
    """
    oracle = _samplable(graph, trials)
    if not (push or pull):
        raise ValueError("enable at least one of push/pull")
    n = oracle.n
    start = _scalar_start(oracle, start)
    if target is not None:
        _check_vertex(oracle, target, "target")
    if max_steps is None:
        from ..walks.gossip import _budget

        max_steps = _budget(n)
    mover = _GossipMover(oracle, trials, start, resolve_rng(seed), push, pull)
    # the cover rule's visited mask repeats the mover's informed set; the
    # copy costs one mask pass over each round's fresh ids
    rule = _Cover(trials, n) if target is None else _Hit(n, target)
    return _lockstep(mover, rule, trials, max_steps, mover.start)


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
    ``rw_trials`` makes.

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
    from ..walks.parallel import _default_budget, _start_positions

    oracle = _samplable(graph, trials)
    n = oracle.n
    start_pos = _start_positions(n, walkers, start)
    if max_steps is None:
        max_steps = _default_budget(n, walkers)
    rng = resolve_rng(seed)

    from ..walks.simple import CoverSettle, walk_blocks

    trial_base = np.repeat(np.arange(trials, dtype=np.int64) * n, walkers)
    pos = np.tile(start_pos, trials)
    covered = visited_mask(trials, n)
    covered.set_sorted_flat(sorted_unique(trial_base + pos))
    count = np.full(trials, sorted_unique(start_pos).size, dtype=np.int64)
    out = np.full(trials, np.nan)
    out[count == n] = 0.0
    if not np.isnan(out).any():
        return out
    walk_blocks(oracle, pos, rng, max_steps, CoverSettle(covered, trial_base, count, out))
    return out


def _walt_run(
    oracle: NeighborOracle,
    trials: int,
    p: int,
    lazy: bool,
    start,
    seed,
    rule: _Rule,
    steps: int,
) -> tuple[np.ndarray, _WaltMover]:
    """Stop times and final mover of *trials* Walt runs of *p* pebbles,
    placed as :func:`repro.core.walt.walt_start_positions` places them:
    ``start=None`` draws uniform positions independently per trial,
    anything else tiles the given vertex/array across the pebbles."""
    rng = resolve_rng(seed)
    if start is None:
        mover = _WaltMover(oracle, rng.integers(0, oracle.n, size=(trials, p)), lazy, rng)
        mover.draws = trials * p
    else:
        positions = np.tile(np.resize(_start_vertices(oracle, start), p), (trials, 1))
        mover = _WaltMover(oracle, positions, lazy, rng)
    return _lockstep(mover, rule, trials, steps, mover.flat_ids(np.arange(trials))), mover


def batched_walt_trials(
    graph: GraphLike,
    target: int | None = None,
    *,
    trials: int,
    delta: float = 0.5,
    lazy: bool = True,
    start: int | np.ndarray | None = 0,
    seed: SeedLike = None,
    max_steps: int | None = None,
) -> np.ndarray:
    """Cover times (``target=None``) or first-arrival times of any
    pebble at *target* over *trials* independent Walt runs (``δn``
    ordered pebbles each), advanced in lock-step; finished trials are
    compacted out.

    Pebble placement matches :func:`repro.core.walt.walt_start_positions`:
    integer/array *start* puts all pebbles there (identical across
    trials); ``start=None`` spreads them uniformly at random,
    independently per trial.  The lazy coin is drawn per trial per step,
    so each trial holds independently — distributionally the same as
    the serial process's one global coin.  The hit rule keeps no visit
    ledger: a trial is done the round one of its pebbles lands on
    *target*.

    Parameters
    ----------
    graph : Graph or NeighborOracle
        Connected graph without isolated vertices (CSR or implicit).
    target : int, optional
        Vertex whose first pebble arrival stops a trial; ``None`` stops
        a trial when its pebbles have covered the graph.
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
        Step budget per trial; defaults to Walt's budget
        (``_budget`` in :mod:`repro.core.walt`).

    Returns
    -------
    numpy.ndarray
        ``float64[trials]`` cover or hitting times with ``np.nan``
        marking budget exhaustion.
    """
    oracle = _samplable(graph, trials)
    if not 0 < delta <= 1:
        raise ValueError("delta must be in (0, 1]")
    n = oracle.n
    if target is None:
        rule: _Rule = _Cover(trials, n, sorted_ids=False)
    else:
        _check_vertex(oracle, target, "target")
        rule = _Hit(n, target, sorted_ids=False)
    if max_steps is None:
        from ..core.walt import _budget

        max_steps = _budget(n)
    p = max(1, int(delta * n))
    return _walt_run(oracle, trials, p, lazy, start, seed, rule, max_steps)[0]


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

    The fixed-horizon companion of :func:`batched_walt_trials`
    for the Theorem 8 epoch machinery (``T8_epochs``): the experiment
    needs the pebble *configuration* at the end of an epoch, not a
    cover time.  All trials advance through the same sort-free grouped
    move; the lazy coin is drawn per trial per round, so each trial
    holds independently.

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
        Placement, as in :func:`batched_walt_trials`: a
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
    oracle = _samplable(graph, trials)
    if steps < 0:
        raise ValueError("steps must be >= 0")
    if pebbles is None:
        if not 0 < delta <= 1:
            raise ValueError("delta must be in (0, 1]")
        p = max(1, int(delta * oracle.n))
    else:
        p = int(pebbles)
        if p < 1:
            raise ValueError("need at least one pebble")
    _, mover = _walt_run(oracle, trials, p, lazy, start, seed, _Horizon(oracle.n), steps)
    return mover.positions


def _add_holds(moves: np.ndarray, max_steps: int, rng: np.random.Generator) -> np.ndarray:
    """Lazy-walk step totals from the move chain's move counts: the
    ``N`` moves of a trial are each preceded by ``Geometric(1/2)``
    holds, one ``NegativeBinomial(N, 1/2)`` draw per finished trial;
    totals above *max_steps* are ``nan``.

    Under an active tracer the move chain's ``engine_steps`` and
    ``trial_steps`` are topped up to the lazy walk's (the step at which
    its last trial stops, and the steps its trials ran), and each hold
    draw counts as one ``rng_draws`` variate."""
    out = np.full(moves.size, np.nan)
    fin = np.flatnonzero(~np.isnan(moves))
    if fin.size:
        n_moves = moves[fin].astype(np.int64)
        total = n_moves + rng.negative_binomial(np.maximum(n_moves, 1), 0.5)
        total = np.where(n_moves > 0, total, 0)
        ok = total <= max_steps
        out[fin[ok]] = total[ok]
    tracer = current_tracer()
    if tracer.enabled:
        def steps(times: np.ndarray) -> tuple[int, int]:
            last = max_steps if np.isnan(times).any() else int(times.max(initial=0))
            return last, int(np.where(np.isnan(times), last, times).sum())

        (chain, chain_rows), (lazy, lazy_rows) = steps(moves), steps(out)
        tracer.count("engine_steps", lazy - chain)
        tracer.count("trial_steps", lazy_rows - chain_rows)
        tracer.count("rng_draws", fin.size)
    return out


def batched_lazy_trials(
    graph: GraphLike,
    target: int | None = None,
    *,
    trials: int,
    start: int | np.ndarray = 0,
    seed: SeedLike = None,
    max_steps: int | None = None,
) -> np.ndarray:
    """Cover times (``target=None``) or hitting times of *target* over
    *trials* independent lazy-random-walk runs.

    The hold-probability variant of the simple-walk engine
    (:func:`repro.walks.simple.rw_trials`), built on the jump-chain
    decomposition rather than a simulated coin per step: a lazy walk
    is the simple walk run in slow motion, each move preceded by
    ``Geometric(1/2)`` holds, so the engine runs the *move* chain on
    the batched simple-walk engine (half the steps, none of the
    per-step coin traffic) under the same stop rule, and then adds the
    total holding time — the sum of ``N`` independent geometrics, i.e.
    one ``NegativeBinomial(N, 1/2)`` draw per finished trial — to the
    per-trial move count ``N``.  Coverage and first activation can
    only change at a move and each step is an independent fair coin,
    so the law is exactly that of :class:`repro.walks.simple.RandomWalk`
    with ``lazy=True``, including budget censoring: a trial is ``nan``
    iff its reconstructed step total exceeds *max_steps*.

    Parameters
    ----------
    graph : Graph or NeighborOracle
        Connected graph without isolated vertices (CSR or implicit).
    target : int, optional
        Vertex whose first visit stops a trial; ``None`` stops a trial
        when it has covered the graph.
    trials : int
        Number of independent runs.
    start : int or numpy.ndarray
        Common start vertex of every trial (or a one-element array of it).
    seed : SeedLike, optional
        Seed/stream for the single interleaved RNG.
    max_steps : int, optional
        Step budget per trial (holds included, as in the serial walk);
        defaults to the lazy walk's serial budget (Feige's worst-case
        ``n³`` with slack).

    Returns
    -------
    numpy.ndarray
        ``float64[trials]`` cover or hitting times, ``np.nan`` marking
        budget exhaustion.
    """
    oracle = _samplable(graph, trials)
    from ..walks.simple import _cover_budget, rw_trials

    if max_steps is None:
        max_steps = _cover_budget(oracle.n)
    rng = resolve_rng(seed)
    # total steps >= moves, so `max_steps` moves bounds every trial
    # that could still stop within the step budget; the move-chain
    # engine checks start and target
    moves = rw_trials(graph, target, start=start, trials=trials, seed=rng, max_steps=max_steps)
    return _add_holds(moves, max_steps, rng)


def batched_branching_cover_trials(
    graph: GraphLike,
    *,
    trials: int,
    k: int = 2,
    start: int | np.ndarray = 0,
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
    start : int or numpy.ndarray
        Common start vertex of every trial (one initial particle), or a
        one-element array of it.
    seed : SeedLike, optional
        Seed/stream for the single interleaved RNG.
    max_steps : int, optional
        Step budget per trial; defaults to the branching walk's
        budget (``_budget`` in :mod:`repro.walks.branching`).
    population_cap : int
        Per-trial particle ceiling before renormalisation.

    Returns
    -------
    numpy.ndarray
        ``float64[trials]`` cover times, ``np.nan`` marking budget
        exhaustion.
    """
    oracle = _samplable(graph, trials)
    if k < 1:
        raise ValueError(f"branching factor k must be >= 1, got {k}")
    if population_cap < 1:
        raise ValueError("population_cap must be >= 1")
    n = oracle.n
    start = _scalar_start(oracle, start)
    if max_steps is None:
        from ..walks.branching import _budget

        max_steps = _budget(n)
    occupied = np.arange(trials, dtype=np.int64) * n + start
    counts = np.zeros(trials * n, dtype=np.int64)
    counts[occupied] = 1
    mover = _BranchingMover(oracle, k, counts, population_cap, resolve_rng(seed))
    return _lockstep(mover, _Cover(trials, n), trials, max_steps, occupied)


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
    (a sorted unique on the flat key): co-located walkers of the same
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
        Step budget per trial; defaults to the coalescing walks'
        budget (``_budget`` in :mod:`repro.walks.coalescing`).

    Returns
    -------
    numpy.ndarray
        ``float64[trials]`` cover times, ``np.nan`` marking budget
        exhaustion.
    """
    from ..walks.coalescing import _budget, _walker_positions

    oracle = _samplable(graph, trials)
    n = oracle.n
    if max_steps is None:
        max_steps = _budget(n)
    rng = resolve_rng(seed)
    draws = 0
    positions = _walker_positions(start)
    if positions is not None:
        pos0 = sorted_unique(positions.ravel())
        if pos0.size == 0:
            raise ValueError("need at least one walker")
        if pos0.min() < 0 or pos0.max() >= n:
            raise ValueError("walker position out of range")
        wpos = _row_ids(trials, n, pos0)
    else:
        if walkers is None or walkers >= n:
            # one walker per vertex: everything is covered at t = 0
            return np.zeros(trials)
        if walkers < 1:
            raise ValueError("need at least one walker")
        # per-trial distinct uniform placement: the `walkers` smallest
        # of n iid uniforms index a uniform random subset
        draws = trials * n
        sel = np.argpartition(rng.random((trials, n)), walkers - 1, axis=1)[:, :walkers]
        wpos = np.sort((np.arange(trials, dtype=np.int64)[:, None] * n + sel).ravel())
    mover = _CoalescingMover(oracle, wpos, rng)
    mover.draws = draws
    return _lockstep(mover, _Cover(trials, n), trials, max_steps, wpos)
