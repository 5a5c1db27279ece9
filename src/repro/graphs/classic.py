"""Classic named graph families.

Includes the witnesses the paper's general-graph bounds are measured
against: the lollipop graph (the standard ``Θ(n³)`` random-walk
cover-time worst case) and the star graph (the ``Ω(n log n)`` cobra
lower bound from the paper's conclusion).
"""

from __future__ import annotations

import numpy as np

from .base import Graph
from .builders import csr_from_sorted_edges, from_edge_list

__all__ = [
    "path_graph",
    "cycle_graph",
    "complete_graph",
    "star_graph",
    "complete_bipartite",
    "lollipop",
    "barbell",
]


def path_graph(n: int) -> Graph:
    """Path on ``n`` vertices ``0 - 1 - ... - n-1``."""
    if n < 1:
        raise ValueError("path needs at least 1 vertex")
    u = np.arange(n - 1, dtype=np.int64)
    return csr_from_sorted_edges(
        n, np.concatenate([u, u + 1]), np.concatenate([u + 1, u]), name=f"path({n})"
    )


def cycle_graph(n: int) -> Graph:
    """Cycle on ``n >= 3`` vertices — the canonical 2-regular graph."""
    if n < 3:
        raise ValueError("cycle needs at least 3 vertices")
    u = np.arange(n, dtype=np.int64)
    v = (u + 1) % n
    return csr_from_sorted_edges(
        n, np.concatenate([u, v]), np.concatenate([v, u]), name=f"cycle({n})"
    )


def complete_graph(n: int) -> Graph:
    """Complete graph ``K_n``."""
    if n < 1:
        raise ValueError("complete graph needs at least 1 vertex")
    if n == 1:
        return Graph(np.zeros(2, dtype=np.int64), np.empty(0, dtype=np.int64), name="K1", validate=False)
    src = np.repeat(np.arange(n, dtype=np.int64), n - 1)
    dst = np.concatenate([np.delete(np.arange(n, dtype=np.int64), i) for i in range(n)])
    indptr = np.arange(0, n * (n - 1) + 1, max(n - 1, 1), dtype=np.int64)
    return Graph(indptr, dst, name=f"K{n}", validate=False)


def star_graph(n: int) -> Graph:
    """Star with one hub (vertex 0) and ``n - 1`` leaves.

    The conclusion of the paper notes the star shows cobra cover time
    can be ``Ω(n log n)`` (a coupon-collector argument: only the hub's
    two draws discover leaves).
    """
    if n < 2:
        raise ValueError("star needs at least 2 vertices")
    leaves = np.arange(1, n, dtype=np.int64)
    return from_edge_list(
        n, np.column_stack([np.zeros(n - 1, dtype=np.int64), leaves]), name=f"star({n})"
    )


def complete_bipartite(a: int, b: int) -> Graph:
    """``K_{a,b}`` with left part ``0..a-1``, right part ``a..a+b-1``."""
    if a < 1 or b < 1:
        raise ValueError("both parts need at least 1 vertex")
    left = np.repeat(np.arange(a, dtype=np.int64), b)
    right = np.tile(np.arange(a, a + b, dtype=np.int64), a)
    return from_edge_list(a + b, np.column_stack([left, right]), name=f"K{a},{b}")


def lollipop(n: int, *, clique_fraction: float = 2 / 3) -> Graph:
    """Lollipop graph: a clique on ``~clique_fraction·n`` vertices with a
    path attached to one clique vertex, total ``n`` vertices.

    The ``2n/3``-clique / ``n/3``-path split maximises the simple
    random-walk cover time at ``(4/27 + o(1)) n³`` — the witness for the
    Θ(n³) worst case the paper's Theorem 20 is measured against.
    """
    if n < 4:
        raise ValueError("lollipop needs at least 4 vertices")
    if not 0.0 < clique_fraction < 1.0:
        raise ValueError("clique_fraction must be in (0, 1)")
    c = max(3, int(round(clique_fraction * n)))
    c = min(c, n - 1)  # leave at least one path vertex
    edges = [(i, j) for i in range(c) for j in range(i + 1, c)]
    # path c-1 .. c .. n-1 hangs off clique vertex c-1
    edges += [(i, i + 1) for i in range(c - 1, n - 1)]
    return from_edge_list(
        n, edges, name=f"lollipop({n},c={c})", meta={"clique": c, "path": n - c}
    )


def barbell(n: int) -> Graph:
    """Two ``n/3``-cliques joined by an ``n/3``-path (total ``n`` vertices,
    rounded).  A second high-cover-time witness with two traps."""
    if n < 9:
        raise ValueError("barbell needs at least 9 vertices")
    c = n // 3
    path_len = n - 2 * c
    edges = [(i, j) for i in range(c) for j in range(i + 1, c)]
    hi = n - c
    edges += [(hi + i, hi + j) for i in range(c) for j in range(i + 1, c)]
    # path from clique-A vertex c-1 through bridge vertices c..hi-1 to hi
    chain = [c - 1, *range(c, hi), hi]
    edges += [(chain[i], chain[i + 1]) for i in range(len(chain) - 1)]
    return from_edge_list(n, edges, name=f"barbell({n})", meta={"clique": c, "path": path_len})
