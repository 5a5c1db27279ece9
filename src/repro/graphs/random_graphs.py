"""Random graph models.

Theorem 8's discussion names power-law graphs and random geometric
graphs as families with useful conductance; these generators supply
them.  Both are seeded and implemented from scratch (Miller–Hagberg
style weight sampling for Chung–Lu, cell lists for geometric graphs).
"""

from __future__ import annotations

import numpy as np

from .base import Graph
from .builders import from_edge_list
from ..sim.rng import SeedLike, resolve_rng

__all__ = [
    "chung_lu_powerlaw",
    "random_geometric",
    "largest_component",
]


def chung_lu_powerlaw(
    n: int,
    exponent: float = 2.5,
    *,
    avg_degree: float = 8.0,
    seed: SeedLike = None,
) -> Graph:
    """Chung–Lu graph with power-law expected degrees ``w_i ∝ (i+i0)^{-1/(β-1)}``.

    Edge ``(i, j)`` appears independently with probability
    ``min(1, w_i w_j / W)``.  Implemented with the Miller–Hagberg
    skip-sampling trick over weight-sorted vertices: O(n + m) expected
    time.
    """
    if exponent <= 2.0:
        raise ValueError("exponent must exceed 2 for bounded average degree")
    rng = resolve_rng(seed)
    i0 = 1.0
    w = (np.arange(n, dtype=np.float64) + i0) ** (-1.0 / (exponent - 1.0))
    w *= avg_degree * n / w.sum()
    order = np.argsort(-w)  # decreasing
    w = w[order]
    total_w = w.sum()
    edges = []
    for i in range(n - 1):
        # walk j > i with skip sampling at the envelope probability q = min(1, w_i w_j / W);
        # since w is sorted decreasing, q is monotone in j and we re-anchor as we go.
        j = i + 1
        p_env = min(1.0, w[i] * w[j] / total_w)
        while j < n and p_env > 0:
            if p_env < 1.0:
                skip = int(np.floor(np.log(1.0 - rng.random()) / np.log1p(-p_env)))
                j += skip
            if j >= n:
                break
            q = min(1.0, w[i] * w[j] / total_w)
            if rng.random() < q / p_env:
                edges.append((int(order[i]), int(order[j])))
            p_env = q
            j += 1
    return from_edge_list(n, edges, name=f"chung_lu({n},β={exponent})")


def random_geometric(n: int, radius: float, seed: SeedLike = None) -> Graph:
    """Random geometric graph: ``n`` uniform points in the unit square,
    edges between pairs within Euclidean *radius* (cell-list search)."""
    if not 0 < radius <= np.sqrt(2):
        raise ValueError("radius must be in (0, sqrt(2)]")
    rng = resolve_rng(seed)
    pts = rng.random((n, 2))
    cells = max(1, int(1.0 / radius))
    cx = np.minimum((pts[:, 0] * cells).astype(np.int64), cells - 1)
    cy = np.minimum((pts[:, 1] * cells).astype(np.int64), cells - 1)
    cell_id = cx * cells + cy
    order = np.argsort(cell_id, kind="stable")
    sorted_cells = cell_id[order]
    starts = np.searchsorted(sorted_cells, np.arange(cells * cells))
    ends = np.searchsorted(sorted_cells, np.arange(cells * cells), side="right")
    r2 = radius * radius
    edges = []
    for gx in range(cells):
        for gy in range(cells):
            mine = order[starts[gx * cells + gy] : ends[gx * cells + gy]]
            if mine.size == 0:
                continue
            for dx in (0, 1):
                for dy in (-1, 0, 1):
                    if dx == 0 and dy < 0:
                        continue
                    nx_, ny_ = gx + dx, gy + dy
                    if not (0 <= nx_ < cells and 0 <= ny_ < cells):
                        continue
                    other = order[starts[nx_ * cells + ny_] : ends[nx_ * cells + ny_]]
                    if other.size == 0:
                        continue
                    d2 = ((pts[mine, None, :] - pts[None, other, :]) ** 2).sum(-1)
                    ii, jj = np.nonzero(d2 <= r2)
                    for a, b in zip(mine[ii], other[jj]):
                        if (dx == 0 and dy == 0 and a < b) or (dx, dy) != (0, 0):
                            edges.append((int(a), int(b)))
    return from_edge_list(n, edges, name=f"rgg({n},r={radius:.3f})", meta={"points": pts})


def largest_component(graph: Graph) -> Graph:
    """Restrict to the largest connected component (vertices relabelled
    by ascending original id)."""
    from .checks import connected_components

    labels = connected_components(graph)
    biggest = np.argmax(np.bincount(labels))
    keep = np.flatnonzero(labels == biggest)
    remap = -np.ones(graph.n, dtype=np.int64)
    remap[keep] = np.arange(keep.size)
    edges = graph.edges()
    mask = (remap[edges[:, 0]] >= 0) & (remap[edges[:, 1]] >= 0)
    sub = np.column_stack([remap[edges[mask, 0]], remap[edges[mask, 1]]])
    return from_edge_list(keep.size, sub, name=f"{graph.name}|lcc")
