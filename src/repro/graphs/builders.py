"""Constructors that normalise assorted inputs into CSR :class:`Graph`.

All builders deduplicate parallel edges, drop self-loops on request (or
reject them), sort each neighbor list, and produce validated graphs.
Generators inside :mod:`repro.graphs` construct CSR directly and skip
these slow paths.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping

import numpy as np

from .base import Graph

__all__ = [
    "from_edge_list",
    "from_networkx",
    "csr_from_sorted_edges",
]


def csr_from_sorted_edges(n: int, src: np.ndarray, dst: np.ndarray, **kw) -> Graph:
    """Build a Graph from *directed half-edge* arrays (both directions
    present), assumed already deduplicated and loop-free.  Sorting into
    CSR happens here; validation is skipped (trusted internal path).
    """
    order = np.lexsort((dst, src))
    src = src[order]
    dst = dst[order]
    counts = np.bincount(src, minlength=n).astype(np.int64)
    indptr = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)
    return Graph(indptr, dst.astype(np.int64), validate=False, **kw)


def from_edge_list(
    n: int,
    edges: Iterable[tuple[int, int]] | np.ndarray,
    *,
    name: str = "graph",
    meta: Mapping | None = None,
    allow_self_loops: bool = False,
) -> Graph:
    """Build a graph on ``n`` vertices from an iterable of ``(u, v)`` pairs.

    Parallel edges are merged.  Self-loops are dropped when
    ``allow_self_loops`` is true and rejected otherwise (the cobra-walk
    model of the paper is defined on simple graphs).
    """
    arr = np.asarray(list(edges) if not isinstance(edges, np.ndarray) else edges, dtype=np.int64)
    if arr.size == 0:
        arr = arr.reshape(0, 2)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError("edges must be an iterable of (u, v) pairs")
    if arr.size and (arr.min() < 0 or arr.max() >= n):
        raise ValueError("edge endpoint out of range")
    loops = arr[:, 0] == arr[:, 1]
    if loops.any():
        if not allow_self_loops:
            raise ValueError("self-loops are not allowed (pass allow_self_loops=True to drop)")
        arr = arr[~loops]
    # canonical orientation, dedupe, then mirror
    lo = np.minimum(arr[:, 0], arr[:, 1])
    hi = np.maximum(arr[:, 0], arr[:, 1])
    keys = np.unique(lo * np.int64(n) + hi)
    lo = keys // n
    hi = keys % n
    src = np.concatenate([lo, hi])
    dst = np.concatenate([hi, lo])
    return csr_from_sorted_edges(n, src, dst, name=name, meta=meta)


def from_networkx(g, *, name: str | None = None) -> Graph:
    """Convert a :class:`networkx.Graph`.

    Vertex labels are relabelled to ``0..n-1`` in sorted order when
    sortable, otherwise in iteration order.  Directed graphs are
    rejected; convert explicitly first.
    """

    if g.is_directed():
        raise ValueError("from_networkx expects an undirected graph")
    nodes = list(g.nodes())
    try:
        nodes = sorted(nodes)
    except TypeError:
        pass
    index = {u: i for i, u in enumerate(nodes)}
    edges = [(index[u], index[v]) for u, v in g.edges() if u != v]
    return from_edge_list(len(nodes), edges, name=name or "networkx")
