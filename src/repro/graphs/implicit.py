"""Implicit-topology neighbor oracles: structured graphs without edges.

Every batched engine in :mod:`repro.sim.batch` needs exactly three
things from a graph: its vertex count, per-vertex degrees, and uniform
neighbor draws.  For structured topologies — tori, hypercubes,
circulants, Kronecker powers — all three are *arithmetic* on vertex
ids, so the CSR edge arrays (:class:`repro.graphs.base.Graph`) are
pure memory overhead: a ``10^6``-vertex 2-d torus spends ~40 MB on
``indptr``/``indices`` it never needed.

This module defines the :class:`NeighborOracle` contract the engines
sample through, with two families of implementations:

* :class:`CSRNeighborOracle` wraps an existing :class:`Graph`; its
  draws are **bit-for-bit identical** to
  :func:`repro.graphs.base.sample_uniform_neighbors`, so refactored
  engines reproduce their pre-oracle streams exactly on CSR input.
* Arithmetic oracles (:class:`TorusOracle`, :class:`HypercubeOracle`,
  :class:`CirculantOracle`, :class:`KroneckerOracle`) compute the
  ``slot``-th neighbor of a vertex on the fly, in the same ascending
  order a CSR row would store — which makes each arithmetic oracle
  **seed-for-seed identical** to the CSR adapter over the
  materialised graph (``tests/graphs/test_implicit.py`` pins this per
  topology and per engine).

``as_oracle`` is the engines' entry point; ``to_csr`` materialises any
oracle for small-instance conformance checks.  The oracle builders
(``torus_oracle``, ``hypercube_oracle``, ``circulant_oracle``,
``kronecker_oracle``) are exported from :mod:`repro.graphs`, so sweep
cells can name them as ``graph_builder`` axes in
:mod:`repro.store.spec` — provenance records the oracle ``kind`` per
cell.  ``IMPLICIT_TOPOLOGIES`` is the registry the ``RPL203`` lint
contract audits: every entry must bind the full protocol and
round-trip through the store's graph axes.
"""

from __future__ import annotations

import math

import numpy as np

from .base import Graph, sample_uniform_neighbors

__all__ = [
    "NeighborOracle",
    "CSRNeighborOracle",
    "TorusOracle",
    "HypercubeOracle",
    "CirculantOracle",
    "KroneckerOracle",
    "as_oracle",
    "to_csr",
    "torus_oracle",
    "hypercube_oracle",
    "circulant_oracle",
    "kronecker_oracle",
    "kronecker",
    "IMPLICIT_TOPOLOGIES",
]


class NeighborOracle:
    """The vectorized neighbor contract every batched engine samples.

    An oracle answers three questions, all vectorized over arrays of
    vertex ids:

    * ``degree(vertices)`` — per-vertex degrees;
    * ``neighbor_at(vertices, slots)`` — the ``slot``-th neighbor of
      each vertex **in ascending neighbor order** (the order a CSR row
      stores), broadcastable;
    * ``sample_one(vertices, rng)`` / ``sample_neighbors(vertices, k,
      rng)`` — uniform neighbor draws built on the two above, with the
      exact RNG consumption of
      :func:`repro.graphs.base.sample_uniform_neighbors` (one
      ``rng.random`` call per draw row, ``floor(U * deg)`` slots).

    Subclasses implement ``degree`` and ``neighbor_at`` and pass exact
    ``min_degree``/``max_degree`` to the constructor — engines use
    ``max_degree`` to pick float widths, so an estimate would silently
    change streams.  The arithmetic oracles guarantee ``min_degree >=
    1`` by construction; the CSR adapter inherits whatever the wrapped
    graph has, and the engines' samplability check rejects isolated
    vertices with the same message either way.

    Attributes
    ----------
    n : int
        Vertex count.
    name : str
        Display name (matches the CSR builder's name where one exists).
    meta : dict
        Builder metadata, same conventions as :class:`Graph`.
    kind : str
        Topology tag recorded in campaign provenance (``"csr"``,
        ``"torus"``, ``"hypercube"``, ``"circulant"``, ``"kronecker"``).
    min_degree, max_degree : int
        Exact degree bounds.
    pooled_slots : bool
        Whether one ``neighbor_at`` call with a ``(k, F)`` slot block
        against ``F`` vertices beats ``k`` calls with ``F`` slots each:
        true where the oracle builds a per-vertex table once per call.
        Engines drawing several neighbors per vertex through
        ``neighbor_at`` pool their slots only then; a CSR gather of
        ``k·F`` slots at once is slower than ``k`` gathers of ``F``.
        (Cobra gathers from a per-run neighbor table instead, unless it
        would pass 1 MiB.)
    """

    kind = "implicit"
    pooled_slots = False

    def __init__(
        self,
        n: int,
        *,
        name: str,
        min_degree: int,
        max_degree: int,
        meta: dict | None = None,
    ) -> None:
        self.n = int(n)
        self.name = name
        self.meta = dict(meta or {})
        self.min_degree = int(min_degree)
        self.max_degree = int(max_degree)

    def __len__(self) -> int:
        return self.n

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(name={self.name!r}, n={self.n})"

    # -- the two primitives subclasses implement ------------------------
    def degree(self, vertices: np.ndarray) -> np.ndarray:
        """Per-vertex degrees (``int64``, same shape as *vertices*)."""
        raise NotImplementedError

    def neighbor_at(self, vertices: np.ndarray, slots: np.ndarray) -> np.ndarray:
        """The ``slot``-th neighbor of each vertex, ascending order.

        *vertices* and *slots* broadcast against each other; slots must
        lie in ``[0, degree)`` per vertex (unchecked, hot path).
        """
        raise NotImplementedError

    # -- derived draws (shared by all oracles) --------------------------
    def sample_one(
        self,
        vertices: np.ndarray,
        rng: np.random.Generator,
        *,
        out: np.ndarray | None = None,
    ) -> np.ndarray:
        """One uniform neighbor per vertex — the engines' hot kernel.

        RNG consumption is exactly that of
        :func:`~repro.graphs.base.sample_uniform_neighbors`: one
        ``rng.random(len(vertices))`` draw, ``floor(U * deg)`` slots.
        """
        vertices = np.asarray(vertices, dtype=np.int64)
        degs = self.degree(vertices)
        offsets = (rng.random(vertices.size) * degs).astype(np.int64)
        picks = self.neighbor_at(vertices, offsets)
        if out is not None:
            out[: picks.size] = picks
            return out[: picks.size]
        return picks

    def sample_neighbors(
        self, vertices: np.ndarray, k: int, rng: np.random.Generator
    ) -> np.ndarray:
        """``k`` independent uniform neighbors per vertex, shape
        ``(k, len(vertices))`` — one vectorized draw for the whole
        block."""
        vertices = np.asarray(vertices, dtype=np.int64)
        degs = self.degree(vertices)
        offsets = (rng.random((k, vertices.size)) * degs).astype(np.int64)
        return self.neighbor_at(vertices[None, :], offsets)

    def all_neighbors(self, vertices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Every neighbor of every vertex, ragged-flat.

        Returns ``(nbrs_flat, deg)`` where ``nbrs_flat`` concatenates
        each vertex's full ascending neighbor list and ``deg`` gives
        the per-vertex counts (so ``np.repeat(vertices, deg)`` aligns
        sources with ``nbrs_flat``).  This is the gossip engines'
        boundary-expansion primitive and the ``to_csr`` backbone.
        """
        vertices = np.asarray(vertices, dtype=np.int64)
        deg = self.degree(vertices)
        if vertices.size == 0:
            return np.empty(0, dtype=np.int64), deg
        csum = np.cumsum(deg)
        slots = np.arange(int(csum[-1]), dtype=np.int64) - np.repeat(csum - deg, deg)
        reps = np.repeat(vertices, deg)
        return self.neighbor_at(reps, slots), deg


class CSRNeighborOracle(NeighborOracle):
    """Adapter presenting a CSR :class:`Graph` as a neighbor oracle.

    Draws delegate to :func:`~repro.graphs.base.sample_uniform_neighbors`
    on the wrapped graph, so engines running through this adapter are
    bit-for-bit identical to the pre-oracle code paths.
    """

    kind = "csr"

    def __init__(self, graph: Graph) -> None:
        super().__init__(
            graph.n,
            name=graph.name,
            meta=graph.meta,
            min_degree=graph.min_degree,
            max_degree=graph.max_degree,
        )
        self.graph = graph

    def degree(self, vertices: np.ndarray) -> np.ndarray:
        return self.graph.degrees[vertices]

    def neighbor_at(self, vertices: np.ndarray, slots: np.ndarray) -> np.ndarray:
        # indptr[vertices] broadcasts against slots, so (k, N) slot
        # blocks work without an explicit broadcast step
        return self.graph.indices[self.graph.indptr[vertices] + slots]

    def sample_one(
        self,
        vertices: np.ndarray,
        rng: np.random.Generator,
        *,
        out: np.ndarray | None = None,
    ) -> np.ndarray:
        return sample_uniform_neighbors(self.graph, vertices, rng, out=out)

    def all_neighbors(self, vertices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        vertices = np.asarray(vertices, dtype=np.int64)
        deg = self.graph.degrees[vertices]
        if vertices.size == 0:
            return np.empty(0, dtype=np.int64), deg
        csum = np.cumsum(deg)
        pos = (
            np.arange(int(csum[-1]), dtype=np.int64)
            - np.repeat(csum - deg, deg)
            + np.repeat(self.graph.indptr[vertices], deg)
        )
        return self.graph.indices[pos], deg


class _CandidateTableOracle(NeighborOracle):
    """Shared ``neighbor_at`` for constant-degree arithmetic oracles
    whose per-vertex neighbor list is a small sorted candidate row."""

    pooled_slots = True

    def _sorted_neighbors(self, vertices: np.ndarray) -> np.ndarray:
        """``(len(vertices), degree)`` ascending candidate table."""
        raise NotImplementedError

    def degree(self, vertices: np.ndarray) -> np.ndarray:
        v = np.asarray(vertices, dtype=np.int64)
        return np.full(v.shape, self.min_degree, dtype=np.int64)

    def neighbor_at(self, vertices: np.ndarray, slots: np.ndarray) -> np.ndarray:
        # one table row per given vertex, not per broadcast query: a
        # (k, F) slot block against F vertices builds and sorts F rows
        v = np.asarray(vertices, dtype=np.int64)
        cand = self._sorted_neighbors(v.ravel())
        rows = np.arange(v.size, dtype=np.int64).reshape(v.shape)
        return cand[rows, np.asarray(slots, dtype=np.int64)]


class TorusOracle(_CandidateTableOracle):
    """The d-dimensional torus of :func:`repro.graphs.grid.torus`,
    edge-free: neighbors are ``±1`` steps per dimension with wraparound
    on mixed-radix vertex ids.

    ``n`` is the side *extent* (``n + 1`` vertices per dimension),
    matching the CSR builder's convention; ``n >= 2`` so the wrap
    neighbors are distinct and the degree is exactly ``2 d``.  Unlike
    the CSR builder there is **no size cap** — a million-vertex torus
    costs nothing but this object.
    """

    kind = "torus"

    def __init__(self, n: int, d: int = 2) -> None:
        side = n + 1
        if side < 3:
            raise ValueError(
                f"torus oracle needs side length >= 3 (n >= 2), got n={n}"
            )
        if d < 1:
            raise ValueError(f"dimension must be >= 1, got {d}")
        super().__init__(
            side**d,
            name=f"torus[0,{n}]^{d}",
            meta={"side": side, "d": d, "periodic": True},
            min_degree=2 * d,
            max_degree=2 * d,
        )
        self.side = side
        self.d = d

    def _sorted_neighbors(self, vertices: np.ndarray) -> np.ndarray:
        side, d = self.side, self.d
        cand = np.empty((vertices.size, 2 * d), dtype=np.int64)
        stride = 1
        for j in range(d):
            coord = (vertices // stride) % side
            cand[:, 2 * j] = np.where(
                coord == side - 1, vertices - (side - 1) * stride, vertices + stride
            )
            cand[:, 2 * j + 1] = np.where(
                coord == 0, vertices + (side - 1) * stride, vertices - stride
            )
            stride *= side
        cand.sort(axis=1)
        return cand


class HypercubeOracle(_CandidateTableOracle):
    """The ``dim``-dimensional hypercube ``Q_dim`` of
    :func:`repro.graphs.expanders.hypercube`, edge-free: neighbors are
    single-bit flips.  No ``dim <= 22`` cap — ``dim = 20`` is the
    million-vertex scale point."""

    kind = "hypercube"

    def __init__(self, dim: int) -> None:
        if dim < 1:
            raise ValueError("dimension must be >= 1")
        super().__init__(
            1 << dim,
            name=f"hypercube({dim})",
            meta={"dim": dim, "conductance_exact": 1.0 / dim},
            min_degree=dim,
            max_degree=dim,
        )
        self.dim = dim

    def _sorted_neighbors(self, vertices: np.ndarray) -> np.ndarray:
        flips = np.int64(1) << np.arange(self.dim, dtype=np.int64)
        cand = vertices[:, None] ^ flips[None, :]
        cand.sort(axis=1)
        return cand


class CirculantOracle(_CandidateTableOracle):
    """The circulant graph of :func:`repro.graphs.expanders.circulant`,
    edge-free: ``x ~ x ± s (mod n)`` per offset.

    Offsets are validated so the ``2 |offsets|`` candidates are
    pairwise distinct (``s % n != 0``, ``2 s % n != 0``, and the
    ``{s, n - s}`` pairs disjoint) — the CSR builder silently dedups
    colliding offsets, which would break the oracle's constant-degree
    contract, so the oracle refuses them instead.
    """

    kind = "circulant"

    def __init__(self, n: int, offsets: list[int] | tuple[int, ...]) -> None:
        if n < 3:
            raise ValueError("circulant needs n >= 3")
        if not offsets:
            raise ValueError("need at least one offset")
        norm: list[int] = []
        seen: set[frozenset[int]] = set()
        for raw in offsets:
            s = int(raw) % n
            if s == 0:
                raise ValueError("offset 0 would create self-loops")
            if 2 * s % n == 0:
                raise ValueError(
                    f"circulant oracle offset {raw} is an involution mod {n} "
                    "(s == -s), collapsing its ± pair; use the CSR builder "
                    "for degenerate offsets"
                )
            pair = frozenset((s, n - s))
            if pair in seen:
                raise ValueError(
                    f"circulant oracle offsets collide mod ±{n} "
                    "(the CSR builder would dedup them; the oracle's "
                    "constant degree cannot)"
                )
            seen.add(pair)
            norm.append(s)
        super().__init__(
            n,
            name=f"circulant({n},{[int(s) for s in offsets]})",
            meta={"offsets": tuple(norm)},
            min_degree=2 * len(norm),
            max_degree=2 * len(norm),
        )
        self.offsets = tuple(norm)

    def _sorted_neighbors(self, vertices: np.ndarray) -> np.ndarray:
        n = self.n
        cand = np.empty((vertices.size, 2 * len(self.offsets)), dtype=np.int64)
        for j, s in enumerate(self.offsets):
            cand[:, 2 * j] = (vertices + s) % n
            cand[:, 2 * j + 1] = (vertices - s) % n
        cand.sort(axis=1)
        return cand


class KroneckerOracle(NeighborOracle):
    """The ``power``-th Kronecker power of a small 0/1 seed matrix,
    self-loops removed — the stochastic-Kronecker generator family
    (Leskovec et al.), reachable only through the implicit route at
    scale.

    *base* is the seed adjacency matrix, row-major flat (so sweep specs
    can carry it as a JSON list); it must be square, symmetric, 0/1,
    with every row non-empty.  A vertex of ``B^{⊗K}`` is a base-``b``
    string of ``K`` digits (most-significant first); ``u ~ v`` iff
    ``B[u_i, v_i] = 1`` for all digit positions, minus the diagonal.
    Degrees are products of per-digit base degrees (minus one when
    every digit carries a loop), and the ``slot``-th neighbor decodes
    by mixed-radix arithmetic over per-digit sorted neighbor lists —
    with the vertex's own self-rank skipped, which is what keeps the
    enumeration aligned with the loop-free CSR materialisation.
    """

    kind = "kronecker"

    def __init__(self, base: list[int] | tuple[int, ...], power: int) -> None:
        flat = np.asarray(base, dtype=np.int64).ravel()
        b = math.isqrt(flat.size)
        if b * b != flat.size or b < 2:
            raise ValueError(
                "Kronecker base must be a flat row-major square matrix "
                f"with side >= 2, got {flat.size} entries"
            )
        if power < 1:
            raise ValueError("Kronecker power must be >= 1")
        mat = flat.reshape(b, b)
        if not np.isin(mat, (0, 1)).all():
            raise ValueError("Kronecker base entries must be 0/1")
        if not np.array_equal(mat, mat.T):
            raise ValueError("Kronecker base must be symmetric")
        degl = mat.sum(axis=1)
        if degl.min() < 1:
            raise ValueError("every Kronecker base row needs at least one 1")
        hasloop = np.diagonal(mat) == 1
        maxdegl = int(degl.max())
        mindegl = int(degl.min())
        lists = np.zeros((b, maxdegl), dtype=np.int64)
        looppos = np.zeros(b, dtype=np.int64)
        for i in range(b):
            nbrs = np.flatnonzero(mat[i])
            lists[i, : nbrs.size] = nbrs
            looppos[i] = int(np.searchsorted(nbrs, i))
        # exact degree bounds: the self pair subtracts one exactly when
        # every digit carries a loop, so the min drops iff some
        # min-degree row has a loop (repeat it) and the max drops iff
        # every max-degree row has one (no loop-free escape digit)
        min_deg = mindegl**power - int(bool(hasloop[degl == mindegl].any()))
        max_deg = maxdegl**power - int(bool(hasloop[degl == maxdegl].all()))
        if min_deg < 1:
            raise ValueError(
                "Kronecker base would create isolated vertices "
                "(a degree-1 digit whose only neighbor is its own loop)"
            )
        super().__init__(
            b**power,
            name=f"kron[{b}^{power}]",
            meta={"base": tuple(int(x) for x in flat), "b": b, "power": power},
            min_degree=min_deg,
            max_degree=max_deg,
        )
        self.b = b
        self.power = power
        self._lists = lists
        self._degl = degl
        self._hasloop = hasloop
        self._looppos = looppos

    def _digits(self, vertices: np.ndarray) -> np.ndarray:
        """``(power, N)`` base-``b`` digits, most-significant first."""
        out = np.empty((self.power, vertices.size), dtype=np.int64)
        rem = vertices
        for i in range(self.power - 1, -1, -1):
            out[i] = rem % self.b
            rem = rem // self.b
        return out

    def degree(self, vertices: np.ndarray) -> np.ndarray:
        v = np.asarray(vertices, dtype=np.int64)
        shape = v.shape
        digs = self._digits(np.ascontiguousarray(v).ravel())
        deg = np.prod(self._degl[digs], axis=0)
        deg -= self._hasloop[digs].all(axis=0)
        return deg.reshape(shape)

    def neighbor_at(self, vertices: np.ndarray, slots: np.ndarray) -> np.ndarray:
        v, s = np.broadcast_arrays(
            np.asarray(vertices, dtype=np.int64), np.asarray(slots, dtype=np.int64)
        )
        shape = v.shape
        vf = np.ascontiguousarray(v).ravel()
        sf = np.ascontiguousarray(s).ravel()
        digs = self._digits(vf)
        degl = self._degl[digs]
        # mixed-radix weights over the candidate enumeration: weight of
        # digit i is the product of the less-significant digit degrees
        w = np.empty_like(degl)
        w[-1] = 1
        for i in range(self.power - 2, -1, -1):
            w[i] = w[i + 1] * degl[i + 1]
        # when every digit has a loop, the candidate at self_rank is the
        # vertex itself; skip it so slots enumerate proper neighbors
        self_rank = (self._looppos[digs] * w).sum(axis=0)
        all_loop = self._hasloop[digs].all(axis=0)
        slot = sf + (all_loop & (sf >= self_rank))
        out = np.zeros(vf.size, dtype=np.int64)
        pw = np.int64(1)
        for i in range(self.power - 1, -1, -1):
            choice = (slot // w[i]) % degl[i]
            out += self._lists[digs[i], choice] * pw
            pw *= self.b
        return out.reshape(shape)


# ---------------------------------------------------------------------------
# conversions and builders
# ---------------------------------------------------------------------------
def as_oracle(graph: Graph | NeighborOracle) -> NeighborOracle:
    """The engines' front door: any graph-like object as an oracle.

    A :class:`NeighborOracle` passes through; a CSR :class:`Graph`
    wraps in the bit-identical adapter.
    """
    if isinstance(graph, NeighborOracle):
        return graph
    if isinstance(graph, Graph):
        return CSRNeighborOracle(graph)
    raise TypeError(
        f"expected a Graph or NeighborOracle, got {type(graph).__name__}"
    )


def to_csr(oracle: NeighborOracle) -> Graph:
    """Materialise an oracle as a validated CSR :class:`Graph`.

    Small instances only (this allocates the edge arrays the oracle
    exists to avoid); the conformance suite uses it to check every
    arithmetic oracle against real CSR semantics.
    """
    if isinstance(oracle, CSRNeighborOracle):
        return oracle.graph
    if oracle.n > 5_000_000:
        raise ValueError(
            f"refusing to materialise {oracle.name} ({oracle.n} vertices) as "
            "CSR; the implicit oracle exists to avoid exactly this"
        )
    verts = np.arange(oracle.n, dtype=np.int64)
    nbrs, deg = oracle.all_neighbors(verts)
    indptr = np.zeros(oracle.n + 1, dtype=np.int64)
    np.cumsum(deg, out=indptr[1:])
    return Graph(
        indptr,
        np.ascontiguousarray(nbrs, dtype=np.int64),
        name=oracle.name,
        meta=dict(oracle.meta),
        validate=True,
    )


def torus_oracle(n: int, d: int = 2) -> TorusOracle:
    """Edge-free torus ``[0, n]^d`` (see :class:`TorusOracle`)."""
    return TorusOracle(n, d)


def hypercube_oracle(dim: int) -> HypercubeOracle:
    """Edge-free hypercube ``Q_dim`` (see :class:`HypercubeOracle`)."""
    return HypercubeOracle(dim)


def circulant_oracle(n: int, offsets: list[int]) -> CirculantOracle:
    """Edge-free circulant on ``Z_n`` (see :class:`CirculantOracle`)."""
    return CirculantOracle(n, offsets)


def kronecker_oracle(base: list[int], power: int) -> KroneckerOracle:
    """Edge-free Kronecker power of a flat 0/1 seed matrix (see
    :class:`KroneckerOracle`)."""
    return KroneckerOracle(base, power)


def kronecker(base: list[int], power: int) -> Graph:
    """CSR materialisation of the Kronecker-power graph — the seed
    matrix's ``power``-th tensor power minus self-loops.  Small
    instances only; at scale use :func:`kronecker_oracle`."""
    return to_csr(KroneckerOracle(base, power))


#: the registry the RPL203 contract audit walks: topology kind →
#: (builder name in ``repro.graphs``, small-instance builder kwargs).
#: Every entry must bind the full oracle protocol and round-trip
#: through the store's graph axes (``repro.store.spec``).
IMPLICIT_TOPOLOGIES: dict[str, tuple[str, dict]] = {
    "torus": ("torus_oracle", {"n": 4, "d": 2}),
    "hypercube": ("hypercube_oracle", {"dim": 4}),
    "circulant": ("circulant_oracle", {"n": 11, "offsets": (1, 3)}),
    "kronecker": (
        "kronecker_oracle",
        {"base": (0, 1, 1, 1, 0, 1, 1, 1, 0), "power": 2},
    ),
}
