"""Graph products and the Lemma 11 directed pair-walk construction.

Lemma 11 analyses two Walt pebbles jointly as a single walk on a
*directed, weighted* version ``D(G×G)`` of the tensor product: off the
diagonal both pebbles step independently (weight ``1/d²`` per
neighbor pair); on the diagonal the lower-priority pebble copies the
leader with probability ``1/2``, which the paper models by ``d + 1``
parallel arcs to each diagonal neighbor.  :func:`walt_pair_chain`
builds the resulting transition matrix (optionally lazy, as the paper
requires) together with the Eulerian stationary distribution
``π = 2/(n²+n)`` on the diagonal and ``1/(n²+n)`` off it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .base import Graph
from .builders import from_edge_list

if TYPE_CHECKING:
    import scipy.sparse as sp

__all__ = [
    "tensor_product",
    "cartesian_product",
    "walt_pair_chain",
    "WaltPairChain",
]


def tensor_product(g: Graph, h: Graph) -> Graph:
    """Tensor (categorical) product ``G × H``: ``(a, c) ~ (b, d)`` iff
    ``a ~ b`` in G and ``c ~ d`` in H.  Vertex id of ``(a, c)`` is
    ``a · |H| + c``."""
    eg = g.edges()
    eh = h.edges()
    nh = h.n
    # each G-edge (a,b) with each H-edge (c,d) yields (a,c)-(b,d) and (a,d)-(b,c)
    a = eg[:, 0][:, None]
    b = eg[:, 1][:, None]
    c = eh[:, 0][None, :]
    d = eh[:, 1][None, :]
    e1 = np.column_stack([(a * nh + c).ravel(), (b * nh + d).ravel()])
    e2 = np.column_stack([(a * nh + d).ravel(), (b * nh + c).ravel()])
    return from_edge_list(
        g.n * h.n, np.concatenate([e1, e2]), name=f"({g.name})x({h.name})"
    )


def cartesian_product(g: Graph, h: Graph) -> Graph:
    """Cartesian product ``G □ H``: step in exactly one coordinate."""
    nh = h.n
    eg = g.edges()
    eh = h.edges()
    parts = []
    if eg.size:
        a, b = eg[:, 0][:, None], eg[:, 1][:, None]
        c = np.arange(nh, dtype=np.int64)[None, :]
        parts.append(np.column_stack([(a * nh + c).ravel(), (b * nh + c).ravel()]))
    if eh.size:
        c, d = eh[:, 0][None, :], eh[:, 1][None, :]
        a = np.arange(g.n, dtype=np.int64)[:, None]
        parts.append(np.column_stack([(a * nh + c).ravel(), (a * nh + d).ravel()]))
    edges = np.concatenate(parts) if parts else np.empty((0, 2), dtype=np.int64)
    return from_edge_list(g.n * h.n, edges, name=f"({g.name})□({h.name})")


@dataclass(frozen=True)
class WaltPairChain:
    """The Lemma 11 pair walk on ``D(G×G)``.

    Attributes
    ----------
    transition:
        ``n² × n²`` row-stochastic CSR matrix (lazy if requested).
    stationary:
        The Eulerian stationary distribution: ``2/(n²+n)`` on diagonal
        states ``(u, u)``, ``1/(n²+n)`` elsewhere.
    n:
        Number of vertices of the base graph.
    lazy:
        Whether the chain includes the paper's 1/2 holding probability.
    """

    transition: sp.csr_matrix
    stationary: np.ndarray
    n: int
    lazy: bool

    def state_id(self, u: int, v: int) -> int:
        """State index of the ordered pebble pair ``(u, v)``."""
        return u * self.n + v

    def diagonal_states(self) -> np.ndarray:
        """Ids of the ``S1`` (collided) states ``(u, u)``."""
        u = np.arange(self.n, dtype=np.int64)
        return u * self.n + u


def walt_pair_chain(g: Graph, *, lazy: bool = True, allow_reducible: bool = False) -> WaltPairChain:
    """Build the Lemma 11 joint chain of two ordered Walt pebbles on a
    regular graph *g*.

    Off-diagonal state ``(u, v)``: both pebbles step independently and
    uniformly — probability ``1/(d(u)·d(v))`` to each neighbor pair.
    Diagonal state ``(u, u)``: the leader steps uniformly to ``x``; the
    follower copies ``x`` with probability 1/2, otherwise steps
    uniformly — matching the paper's ``(d+1)/2d²`` diagonal-to-diagonal
    and ``1/2d²`` diagonal-to-off arc weights.  With ``lazy=True`` the
    chain holds with probability 1/2 (the paper's technical condition).

    The graph must be regular for the Eulerian stationary form of the
    paper to hold; irregular input raises :class:`ValueError`.

    **Bipartite caveat** (a subtlety Lemma 11 leaves implicit): when
    *g* is bipartite the tensor product ``G×G`` is disconnected — the
    parity of the pebbles' color sum is invariant, so pebbles started
    on opposite colors can never collide and the pair chain is
    *reducible*.  Chung's convergence machinery then fails (``λ₁ = 0``).
    Bipartite input raises unless ``allow_reducible=True`` (useful for
    inspecting the local transition structure only).
    """
    if not g.is_regular():
        raise ValueError("walt_pair_chain requires a regular graph (as in Lemma 11)")
    import scipy.sparse as sp

    from .checks import is_bipartite

    if not allow_reducible and is_bipartite(g):
        raise ValueError(
            "walt_pair_chain on a bipartite graph is reducible (G×G is "
            "disconnected); Lemma 11 requires a non-bipartite base graph. "
            "Pass allow_reducible=True to build the chain anyway."
        )
    n = g.n
    d = g.degree(0) if n else 0
    if d == 0:
        raise ValueError("graph must have positive degree")
    rows: list[np.ndarray] = []
    cols: list[np.ndarray] = []
    vals: list[np.ndarray] = []
    inv_d2 = 1.0 / (d * d)
    for u in range(n):
        nu = g.neighbors(u)
        for v in range(n):
            state = u * n + v
            nv = g.neighbors(v)
            if u != v:
                targets = (nu[:, None] * n + nv[None, :]).ravel()
                rows.append(np.full(targets.size, state, dtype=np.int64))
                cols.append(targets)
                vals.append(np.full(targets.size, inv_d2))
            else:
                # leader to x (1/d); follower copies (1/2) or re-draws (1/2d)
                diag_targets = nu * n + nu
                rows.append(np.full(nu.size, state, dtype=np.int64))
                cols.append(diag_targets)
                vals.append(np.full(nu.size, (d + 1) / (2 * d * d)))
                xy = np.transpose([np.repeat(nu, nu.size), np.tile(nu, nu.size)])
                offmask = xy[:, 0] != xy[:, 1]
                off_targets = xy[offmask, 0] * n + xy[offmask, 1]
                rows.append(np.full(off_targets.size, state, dtype=np.int64))
                cols.append(off_targets)
                vals.append(np.full(off_targets.size, 1.0 / (2 * d * d)))
    size = n * n
    p = sp.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(size, size),
    )
    p.sum_duplicates()
    if lazy:
        p = 0.5 * sp.eye(size, format="csr") + 0.5 * p
    pi = np.full(size, 1.0 / (n * n + n))
    u = np.arange(n, dtype=np.int64)
    pi[u * n + u] = 2.0 / (n * n + n)
    return WaltPairChain(transition=p.tocsr(), stationary=pi, n=n, lazy=lazy)
