"""Tests for classic, tree, grid, and expander generators."""

import numpy as np
import pytest

from repro.graphs import (
    barbell,
    balanced_binary_tree,
    circulant,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    diameter,
    grid,
    grid_coords,
    grid_manhattan,
    grid_vertex,
    hypercube,
    is_bipartite,
    is_connected,
    kary_tree,
    kary_tree_depth,
    lollipop,
    path_graph,
    random_regular,
    star_graph,
    torus,
)


class TestClassic:
    def test_path(self):
        g = path_graph(5)
        assert g.n == 5 and g.m == 4
        assert g.degree(0) == 1 and g.degree(2) == 2
        assert diameter(g) == 4

    def test_cycle(self):
        g = cycle_graph(7)
        assert g.n == 7 and g.m == 7
        assert g.is_regular() and g.degree(0) == 2
        assert diameter(g) == 3

    def test_cycle_minimum_size(self):
        with pytest.raises(ValueError):
            cycle_graph(2)

    def test_complete(self):
        g = complete_graph(6)
        assert g.m == 15
        assert g.is_regular() and g.degree(0) == 5
        assert diameter(g) == 1

    def test_complete_small(self):
        assert complete_graph(1).n == 1
        assert complete_graph(2).m == 1

    def test_star(self):
        g = star_graph(10)
        assert g.degree(0) == 9
        assert all(g.degree(v) == 1 for v in range(1, 10))
        assert is_bipartite(g)

    def test_complete_bipartite(self):
        g = complete_bipartite(3, 4)
        assert g.n == 7 and g.m == 12
        assert is_bipartite(g)
        assert g.degree(0) == 4 and g.degree(3) == 3

    def test_lollipop_structure(self):
        g = lollipop(30)
        c = g.meta["clique"]
        assert c == 20
        assert is_connected(g)
        # clique vertices all have degree >= c-1
        assert all(g.degree(v) >= c - 1 for v in range(c))
        # path end has degree 1
        assert g.degree(g.n - 1) == 1

    def test_lollipop_custom_fraction(self):
        g = lollipop(20, clique_fraction=0.5)
        assert g.meta["clique"] == 10

    def test_barbell(self):
        g = barbell(30)
        assert is_connected(g)
        assert g.meta["clique"] == 10


class TestGrid:
    @pytest.mark.parametrize("n,d", [(4, 1), (4, 2), (3, 3)])
    def test_sizes(self, n, d):
        g = grid(n, d)
        assert g.n == (n + 1) ** d
        assert g.m == d * n * (n + 1) ** (d - 1)
        assert is_connected(g)

    def test_corner_and_interior_degrees(self):
        g = grid(4, 2)
        assert g.degree(0) == 2  # corner (0,0)
        center = grid_vertex([2, 2], 4, 2)
        assert g.degree(center) == 4

    def test_diameter_is_dn(self):
        assert diameter(grid(5, 2)) == 10

    def test_torus_regular(self):
        t = torus(4, 2)
        assert t.is_regular() and t.degree(0) == 4
        assert t.m == 2 * t.n

    def test_torus_side_two_no_parallel_edges(self):
        t = torus(1, 2)  # side 2: wrap edge equals lattice edge
        assert t.degrees.max() <= 2

    def test_coords_roundtrip(self):
        n, d = 6, 3
        ids = np.arange((n + 1) ** d)
        coords = grid_coords(ids, n, d)
        back = grid_vertex(coords, n, d)
        assert np.array_equal(back, ids)

    def test_manhattan(self):
        assert grid_manhattan(grid_vertex([0, 0], 5, 2), grid_vertex([3, 4], 5, 2), 5, 2) == 7

    def test_coordinate_out_of_range(self):
        with pytest.raises(ValueError):
            grid_vertex([7, 0], 5, 2)

    def test_grid_edges_are_unit_steps(self):
        n, d = 4, 2
        g = grid(n, d)
        for u, v in g.edges():
            assert grid_manhattan(int(u), int(v), n, d) == 1


class TestTrees:
    @pytest.mark.parametrize("k,depth", [(2, 3), (3, 2), (5, 2)])
    def test_kary_size(self, k, depth):
        g = kary_tree(k, depth)
        assert g.n == (k ** (depth + 1) - 1) // (k - 1)
        assert g.m == g.n - 1
        assert is_connected(g)
        assert diameter(g) == 2 * depth

    def test_kary_root_and_leaf_degrees(self):
        g = kary_tree(3, 2)
        assert g.degree(0) == 3
        assert g.degree(g.n - 1) == 1

    def test_balanced_binary(self):
        assert balanced_binary_tree(3).n == 15

    def test_kary_tree_depth_helper(self):
        assert kary_tree_depth(2, 15) == 3
        assert kary_tree_depth(2, 16) == 4
        assert kary_tree_depth(3, 1) == 0


class TestExpanders:
    def test_hypercube(self):
        g = hypercube(4)
        assert g.n == 16 and g.is_regular() and g.degree(0) == 4
        assert is_bipartite(g)
        assert diameter(g) == 4

    def test_hypercube_neighbors_are_bitflips(self):
        g = hypercube(5)
        for v in [0, 7, 31]:
            for u in g.neighbors(v):
                x = int(u) ^ v
                assert x and (x & (x - 1)) == 0  # power of two

    @pytest.mark.parametrize("n,d", [(20, 3), (50, 4), (31, 6)])
    def test_random_regular(self, n, d):
        g = random_regular(n, d, seed=42)
        assert g.is_regular() and g.degree(0) == d
        assert is_connected(g)

    def test_random_regular_parity_check(self):
        with pytest.raises(ValueError):
            random_regular(7, 3)

    def test_random_regular_determinism(self):
        assert random_regular(30, 3, seed=9) == random_regular(30, 3, seed=9)

    def test_circulant(self):
        g = circulant(10, [1, 3])
        assert g.is_regular() and g.degree(0) == 4
        assert g.has_edge(0, 3) and g.has_edge(0, 7)
