"""Expander-family generators.

Theorem 8 / Corollary 9 are exercised on regular graphs whose
conductance we can either compute or control: hypercubes, random
regular graphs (configuration model with switching repairs), and
circulants.
"""

from __future__ import annotations

import numpy as np

from .base import Graph
from .builders import from_edge_list
from .checks import is_connected
from ..sim.rng import SeedLike, resolve_rng

__all__ = [
    "hypercube",
    "random_regular",
    "circulant",
]


def hypercube(dim: int) -> Graph:
    """The ``dim``-dimensional hypercube ``Q_dim`` (``2^dim`` vertices,
    ``dim``-regular, conductance ``Θ(1/dim)``)."""
    if dim < 1:
        raise ValueError("dimension must be >= 1")
    if dim > 22:
        raise ValueError("hypercube too large")
    n = 1 << dim
    ids = np.arange(n, dtype=np.int64)
    nbrs = ids[:, None] ^ (np.int64(1) << np.arange(dim, dtype=np.int64))[None, :]
    nbrs.sort(axis=1)
    indptr = np.arange(0, n * dim + 1, dim, dtype=np.int64)
    return Graph(
        indptr,
        nbrs.ravel(),
        name=f"hypercube({dim})",
        meta={"dim": dim, "conductance_exact": 1.0 / dim},
        validate=False,
    )


def random_regular(n: int, d: int, seed: SeedLike = None, *, max_tries: int = 60) -> Graph:
    """Random ``d``-regular simple graph by configuration-model pairing
    with defect-repair switching.

    A uniformly random stub pairing is drawn; self-loops and parallel
    edges are then removed by double-edge switches that strictly reduce
    the defect count (each switch replaces a defective edge and a
    random healthy edge by a crosswise pair).  The result is connected
    with probability ``1 - O(n^{-(d-2)})`` for ``d >= 3``; disconnected
    draws are rejected and resampled.
    """
    if n * d % 2 != 0:
        raise ValueError("n*d must be even")
    if d < 1 or d >= n:
        raise ValueError("need 1 <= d < n")
    rng = resolve_rng(seed)
    for _ in range(max_tries):
        edges = _pair_and_repair(n, d, rng)
        if edges is None:
            continue
        g = from_edge_list(n, edges, name=f"random_regular({n},{d})", meta={"d": d})
        if g.degrees.min() == d == g.degrees.max() and (d < 3 or is_connected(g)):
            if d >= 3 or is_connected(g):
                return g
    raise RuntimeError(f"failed to sample a connected {d}-regular graph on {n} vertices")


def _pair_and_repair(n: int, d: int, rng: np.random.Generator) -> np.ndarray | None:
    stubs = np.repeat(np.arange(n, dtype=np.int64), d)
    rng.shuffle(stubs)
    src = stubs[0::2].copy()
    dst = stubs[1::2].copy()
    m = src.size
    for _ in range(200):
        key = np.minimum(src, dst) * np.int64(n) + np.maximum(src, dst)
        order = np.argsort(key, kind="stable")
        sorted_key = key[order]
        dup = np.zeros(m, dtype=bool)
        dup[order[1:]] = sorted_key[1:] == sorted_key[:-1]
        bad = dup | (src == dst)
        nbad = int(bad.sum())
        if nbad == 0:
            return np.column_stack([src, dst])
        bad_idx = np.flatnonzero(bad)
        partner = rng.integers(0, m, size=bad_idx.size)
        for i, j in zip(bad_idx, partner):
            if i == j:
                continue
            # propose swap: (a,b),(c,e) -> (a,e),(c,b)
            a, b = src[i], dst[i]
            c, e = src[j], dst[j]
            if a == e or c == b:
                continue
            src[i], dst[i], src[j], dst[j] = a, e, c, b
    return None


def circulant(n: int, offsets: list[int]) -> Graph:
    """Circulant graph: ``x ~ x ± s (mod n)`` for each offset ``s``."""
    if n < 3:
        raise ValueError("circulant needs n >= 3")
    if not offsets:
        raise ValueError("need at least one offset")
    x = np.arange(n, dtype=np.int64)
    parts = []
    for s in offsets:
        s = s % n
        if s == 0:
            raise ValueError("offset 0 would create self-loops")
        parts.append(np.column_stack([x, (x + s) % n]))
    return from_edge_list(n, np.concatenate(parts), name=f"circulant({n},{offsets})")
