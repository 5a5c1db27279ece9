"""Named graphs used across the experiments.

:func:`petersen` / :func:`kneser_graph` are classic 3-regular
non-bipartite expander-ish graphs, ideal Lemma 11 bases.
"""

from __future__ import annotations

from itertools import combinations

from .base import Graph
from .builders import from_edge_list

__all__ = [
    "petersen",
    "kneser_graph",
]


def kneser_graph(n: int, k: int) -> Graph:
    """Kneser graph ``K(n, k)``: vertices are k-subsets of ``{0..n-1}``,
    edges join disjoint subsets.  ``K(5, 2)`` is the Petersen graph."""
    if k < 1 or n < 2 * k:
        raise ValueError("need 1 <= k and n >= 2k")
    subsets = list(combinations(range(n), k))
    index = {s: i for i, s in enumerate(subsets)}
    edges = []
    for i, a in enumerate(subsets):
        sa = set(a)
        for b in subsets[i + 1 :]:
            if sa.isdisjoint(b):
                edges.append((i, index[b]))
    return from_edge_list(len(subsets), edges, name=f"kneser({n},{k})")


def petersen() -> Graph:
    """The Petersen graph: 3-regular, girth 5, non-bipartite, Φ = 1/3."""
    g = kneser_graph(5, 2)
    return from_edge_list(
        g.n, g.edges(), name="petersen", meta={"conductance_exact": 1 / 3}
    )
