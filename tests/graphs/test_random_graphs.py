"""Tests for random graph models."""

import numpy as np
import pytest

from repro.graphs import (
    chung_lu_powerlaw,
    from_edge_list,
    is_connected,
    largest_component,
    random_geometric,
)


class TestChungLu:
    def test_powerlaw_tail(self):
        g = chung_lu_powerlaw(2000, 2.5, avg_degree=6.0, seed=9)
        assert abs(g.degrees.mean() - 6.0) < 2.0
        assert g.max_degree > 8 * g.degrees.mean()

    def test_exponent_validation(self):
        with pytest.raises(ValueError):
            chung_lu_powerlaw(100, 1.5)

    def test_determinism(self):
        a = chung_lu_powerlaw(300, 2.5, seed=10)
        b = chung_lu_powerlaw(300, 2.5, seed=10)
        assert a == b


class TestRandomGeometric:
    def test_radius_respected(self):
        g = random_geometric(150, 0.2, seed=12)
        pts = g.meta["points"]
        for u, v in g.iter_edges():
            assert np.linalg.norm(pts[u] - pts[v]) <= 0.2 + 1e-12

    def test_no_missed_edges(self):
        g = random_geometric(100, 0.25, seed=13)
        pts = g.meta["points"]
        d2 = ((pts[:, None, :] - pts[None, :, :]) ** 2).sum(-1)
        expect = (d2 <= 0.25**2).sum() - 100  # off-diagonal directed pairs
        assert 2 * g.m == expect

    def test_invalid_radius(self):
        with pytest.raises(ValueError):
            random_geometric(10, 0.0)


class TestLargestComponent:
    def test_extracts_lcc(self):
        # a 5-cycle on 3..7, a path 0-1-2 and an isolated vertex 8
        edges = [(3, 4), (4, 5), (5, 6), (6, 7), (7, 3), (0, 1), (1, 2)]
        g = from_edge_list(9, edges)
        lcc = largest_component(g)
        assert is_connected(lcc)
        assert lcc.n <= g.n
        assert (lcc.n, lcc.m) == (5, 5) and lcc.is_regular()

    def test_connected_graph_unchanged_size(self):
        from repro.graphs import cycle_graph

        g = cycle_graph(20)
        assert largest_component(g).n == 20
