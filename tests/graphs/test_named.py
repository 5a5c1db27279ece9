"""Tests for named graph families."""

import numpy as np
import pytest

from repro.graphs import (
    diameter,
    is_bipartite,
    kneser_graph,
    petersen,
)
from repro.spectral import conductance_exact


class TestPetersen:
    def test_structure(self):
        g = petersen()
        assert g.n == 10 and g.m == 15
        assert g.is_regular() and g.degree(0) == 3
        assert not is_bipartite(g)
        assert diameter(g) == 2

    def test_girth_five_no_triangles_or_squares(self):
        g = petersen()
        a = np.zeros((10, 10))
        for u, v in g.iter_edges():
            a[u, v] = a[v, u] = 1
        assert np.trace(a @ a @ a) == 0  # no triangles
        # closed 4-walks that are genuine squares: tr(A^4) - expected
        # degenerate walks = 2m + sum d(d-1)*2 for 3-regular: any 4-cycle
        # adds 8; check none.
        tr4 = np.trace(np.linalg.matrix_power(a, 4))
        degenerate = 2 * g.m + sum(
            g.degree(v) * (g.degree(v) - 1) for v in range(10)
        ) * 2 // 2 * 2
        # simpler exact count for 3-regular: tr(A^4) = 2m + 2*sum d(d-1) + 8*#C4
        expect_no_c4 = 2 * g.m + 2 * sum(
            g.degree(v) * (g.degree(v) - 1) for v in range(10)
        )
        assert tr4 == expect_no_c4

    def test_conductance_meta(self):
        g = petersen()
        assert g.meta["conductance_exact"] == pytest.approx(1 / 3)
        assert conductance_exact(g, max_n=10) == pytest.approx(1 / 3)


class TestKneser:
    def test_petersen_is_k52(self):
        assert kneser_graph(5, 2).m == 15

    def test_regular_degree(self):
        # K(n,k) is (n-k choose k)-regular
        g = kneser_graph(6, 2)
        assert g.is_regular() and g.degree(0) == 6  # C(4,2)

    def test_validation(self):
        with pytest.raises(ValueError):
            kneser_graph(3, 2)
