"""The commute-time identity as an oracle for the exact hitting times."""

import numpy as np
import pytest

from repro.graphs import complete_graph, cycle_graph, grid, kary_tree
from repro.spectral import combinatorial_laplacian
from repro.walks import rw_exact_hitting_times


def commute_time(graph, u, v):
    """``2m · R_eff(u, v)`` of the unit-resistance network on *graph*.

    ``R_eff`` comes from the Laplacian's Moore–Penrose pseudo-inverse,
    via the rank-one trick ``(L + J/n)^{-1} - J/n``.
    """
    n = graph.n
    j = np.full((n, n), 1.0 / n)
    li = np.linalg.inv(combinatorial_laplacian(graph).toarray() + j) - j
    return 2.0 * graph.m * float(li[u, u] + li[v, v] - 2 * li[u, v])


class TestCommuteTimeIdentity:
    @pytest.mark.parametrize(
        "graph",
        [cycle_graph(11), grid(3, 2), kary_tree(2, 3), complete_graph(7)],
    )
    def test_hitting_plus_reverse_equals_2m_reff(self, graph):
        # Chandra et al.: H(u,v) + H(v,u) = 2m R_eff(u,v) — cross-checks
        # the linear-solve hitting times against pure linear algebra
        u, v = 0, graph.n - 1
        huv = rw_exact_hitting_times(graph, v)[u]
        hvu = rw_exact_hitting_times(graph, u)[v]
        assert huv + hvu == pytest.approx(commute_time(graph, u, v), rel=1e-9)
