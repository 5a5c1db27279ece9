"""Tree generators.

The paper remarks (Section 3) that the two-step case analysis of
Lemma 2 shows 2-cobra walks on ``k``-ary trees cover in time
proportional to the diameter for ``k ∈ {2, 3}`` and conjectures the
same for every constant ``k`` — the ``TREES_kary`` experiment probes
this.
"""

from __future__ import annotations

import numpy as np

from .base import Graph
from .builders import from_edge_list

__all__ = [
    "kary_tree",
    "balanced_binary_tree",
    "kary_tree_depth",
]


def kary_tree(k: int, depth: int) -> Graph:
    """Complete rooted ``k``-ary tree of the given *depth*.

    Depth 0 is a single root.  Vertex 0 is the root; children of vertex
    ``v`` are ``k·v + 1 .. k·v + k`` (heap order), giving
    ``(k^{depth+1} - 1) / (k - 1)`` vertices.
    """
    if k < 2:
        raise ValueError("arity k must be >= 2")
    if depth < 0:
        raise ValueError("depth must be >= 0")
    n = (k ** (depth + 1) - 1) // (k - 1)
    if n > 5_000_000:
        raise ValueError("tree too large")
    child = np.arange(1, n, dtype=np.int64)
    parent = (child - 1) // k
    return from_edge_list(
        n,
        np.column_stack([parent, child]),
        name=f"{k}-ary_tree(depth={depth})",
        meta={"k": k, "depth": depth, "diameter": 2 * depth},
    )


def balanced_binary_tree(depth: int) -> Graph:
    """Complete binary tree (``k = 2``) of the given depth."""
    return kary_tree(2, depth)


def kary_tree_depth(k: int, n_min: int) -> int:
    """Smallest depth whose complete ``k``-ary tree has ≥ ``n_min`` vertices."""
    depth, n = 0, 1
    while n < n_min:
        depth += 1
        n = (k ** (depth + 1) - 1) // (k - 1)
    return depth
