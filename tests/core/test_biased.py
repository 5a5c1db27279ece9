"""Tests for biased walks and the Section 5 machinery."""

import numpy as np
import pytest

from repro.core import (
    epsilon_biased_transition,
    exact_hitting_times,
    exact_return_time,
    inverse_degree_biased_transition,
    metropolis_chain_lemma16,
    return_time_bound_cor17,
    sigma_hat_exact,
    sigma_hat_lemma18_bound,
    stationary_lower_bound_thm13,
    toward_target_controller,
)
from repro.graphs import (
    complete_graph,
    cycle_graph,
    grid,
    kary_tree,
    lollipop,
    path_graph,
    star_graph,
)
from repro.sim import simulate
from repro.spectral import stationary_of_chain
from repro.walks import rw_exact_hitting_times


class TestController:
    def test_moves_closer(self):
        g = grid(4, 2)
        target = 12
        ctrl = toward_target_controller(g, target)
        from repro.graphs import bfs_distances

        dist = bfs_distances(g, target)
        for v in range(g.n):
            if v != target:
                assert dist[ctrl[v]] == dist[v] - 1

    def test_target_self_maps(self):
        ctrl = toward_target_controller(cycle_graph(8), 3)
        assert ctrl[3] == 3


class TestTransitionMatrices:
    def test_eps_biased_rows(self, small_cycle):
        ctrl = toward_target_controller(small_cycle, 0)
        p = epsilon_biased_transition(small_cycle, ctrl, 0.3)
        assert np.allclose(p.sum(axis=1), 1.0)

    def test_eps_zero_is_simple_walk(self, small_cycle):
        from repro.spectral import transition_matrix

        ctrl = toward_target_controller(small_cycle, 0)
        p = epsilon_biased_transition(small_cycle, ctrl, 0.0)
        assert np.allclose(p, transition_matrix(small_cycle).toarray())

    def test_eps_one_is_deterministic(self, small_cycle):
        ctrl = toward_target_controller(small_cycle, 0)
        p = epsilon_biased_transition(small_cycle, ctrl, 1.0)
        for v in range(small_cycle.n):
            assert p[v, ctrl[v]] == pytest.approx(1.0)

    def test_inverse_degree_rows(self):
        g = lollipop(15)
        p = inverse_degree_biased_transition(g, 0)
        assert np.allclose(p.sum(axis=1), 1.0)

    def test_inverse_degree_target_unbiased(self):
        g = cycle_graph(9)
        p = inverse_degree_biased_transition(g, 4)
        assert p[4, 3] == pytest.approx(0.5)
        assert p[4, 5] == pytest.approx(0.5)

    def test_bias_magnitude(self):
        # off-target vertex v: controller neighbor gets 1/d + (1-1/d)/d
        g = cycle_graph(9)
        ctrl = toward_target_controller(g, 0)
        p = inverse_degree_biased_transition(g, 0, ctrl)
        v = 4
        c = ctrl[v]
        assert p[v, c] == pytest.approx(1 / 2 + (1 - 1 / 2) / 2)

    def test_invalid_eps(self, small_cycle):
        ctrl = toward_target_controller(small_cycle, 0)
        with pytest.raises(ValueError):
            epsilon_biased_transition(small_cycle, ctrl, 1.5)


class TestHittingAlgebra:
    def test_biased_beats_simple_walk_on_cycle(self):
        n = 24
        g = cycle_graph(n)
        p = inverse_degree_biased_transition(g, 0)
        h_biased = exact_hitting_times(p, 0)
        h_simple = rw_exact_hitting_times(g, 0)
        # simple walk: h(k) = k(n-k); biased drift cuts it to O(n)
        assert h_biased.max() < h_simple.max() / 3

    def test_simulation_matches_exact(self):
        g = cycle_graph(12)
        p = inverse_degree_biased_transition(g, 0)
        h = exact_hitting_times(p, 0)
        times = [
            simulate(g, "biased", metric="hit", target=0, start=6, seed=s,
                     max_steps=100_000).extras["hit_time"]
            for s in range(300)
        ]
        assert abs(np.mean(times) - h[6]) < 0.15 * h[6]

    def test_return_time_is_inverse_stationary(self):
        g = cycle_graph(9)
        p = inverse_degree_biased_transition(g, 0)
        pi = stationary_of_chain(0.5 * np.eye(g.n) + 0.5 * p, tol=1e-13)
        assert exact_return_time(p, 0) == pytest.approx(1.0 / pi[0], rel=1e-6)


class TestTheorem13:
    def test_bound_in_unit_interval(self):
        g = grid(4, 2)
        b = stationary_lower_bound_thm13(g, [0], 0.25)
        assert 0.0 < b < 1.0

    def test_bound_monotone_in_eps(self):
        g = cycle_graph(20)
        b1 = stationary_lower_bound_thm13(g, [0], 0.1)
        b2 = stationary_lower_bound_thm13(g, [0], 0.5)
        assert b2 > b1

    def test_eps_biased_walk_achieves_bound_on_cycle(self):
        # the toward-target controller on a cycle is the optimal one;
        # its stationary mass at the target must meet Theorem 13's bound
        g = cycle_graph(15)
        eps = 0.5
        ctrl = toward_target_controller(g, 0)
        p = epsilon_biased_transition(g, ctrl, eps)
        pi = stationary_of_chain(0.5 * np.eye(g.n) + 0.5 * p, tol=1e-13)
        assert pi[0] >= stationary_lower_bound_thm13(g, [0], eps) - 1e-9

    def test_validation(self):
        with pytest.raises(ValueError):
            stationary_lower_bound_thm13(cycle_graph(5), [], 0.5)
        with pytest.raises(ValueError):
            stationary_lower_bound_thm13(cycle_graph(5), [0], 0.0)


class TestSigmaHat:
    def test_cycle_closed_form(self):
        # cycle: every vertex degree 2 -> sigma_hat(x,v) = (1/2)^{dist+1}
        g = cycle_graph(12)
        s = sigma_hat_exact(g, 0)
        from repro.graphs import bfs_distances

        dist = bfs_distances(g, 0)
        assert np.allclose(s, 0.5 ** (dist + 1))

    def test_leaf_vertices_zero(self):
        g = star_graph(6)
        s = sigma_hat_exact(g, 0)
        # leaves have degree 1 -> any path through them has factor 0;
        # sigma_hat(leaf, hub) includes the leaf itself -> 0
        assert np.allclose(s[1:], 0.0)

    def test_lemma18_upper_bound(self, any_graph):
        if any_graph.n < 3:
            return
        s = sigma_hat_exact(any_graph, 0)
        b = sigma_hat_lemma18_bound(any_graph, 0)
        assert (s <= b + 1e-12).all()

    def test_monotone_decreasing_in_distance_on_path(self):
        g = path_graph(10)
        s = sigma_hat_exact(g, 0)
        assert (np.diff(s[1:-1]) <= 1e-15).all()


class TestLemma16Metropolis:
    def test_m_is_stochastic_and_stationary(self):
        g = lollipop(12)
        mc = metropolis_chain_lemma16(g, [g.n - 1])
        assert np.allclose(mc.m.sum(axis=1), 1.0)
        assert np.allclose(mc.target_pi @ mc.m, mc.target_pi, atol=1e-12)

    def test_p_is_inverse_degree_biased(self):
        # Lemma 16 asserts P(x,y) >= (1-1/d(x))/d(x); the provable form
        # (via sigma_hat(y,S) >= (1-1/d(y)) sigma_hat(x,S) — the paper
        # slips d(x) for d(y) here) is P(x,y) >= (1-1/d(y))/d(x).
        # See EXPERIMENTS.md, reproduction note R2.
        g = lollipop(12)
        mc = metropolis_chain_lemma16(g, [0])
        for x in range(g.n):
            dx = g.degree(x)
            for y in g.neighbors(x):
                dy = g.degree(int(y))
                assert mc.p[x, y] >= (1 - 1 / dy) / dx - 1e-12

    def test_regular_graph_matches_paper_form(self):
        # on regular graphs d(x) == d(y) and the paper's bound is exact
        g = cycle_graph(12)
        mc = metropolis_chain_lemma16(g, [0])
        for x in range(g.n):
            dx = g.degree(x)
            for y in g.neighbors(x):
                assert mc.p[x, y] >= (1 - 1 / dx) / dx - 1e-12

    def test_cor17_bound_exact_for_metropolis_chain(self):
        # Cor 17's value equals 1/pi_M(v), i.e. the return time of the
        # self-loop-ed Metropolis chain M — exactly.
        for graph in [cycle_graph(16), complete_graph(8), kary_tree(2, 3)]:
            v = 0
            mc = metropolis_chain_lemma16(graph, [v])
            ret_m = exact_return_time(mc.m, v)
            assert ret_m == pytest.approx(return_time_bound_cor17(graph, v), rel=1e-9)

    def test_cor17_loop_free_chain_within_holding_factor(self):
        # removing self-loops (M -> P) stretches the return time by at
        # most 1/(1 - M(v,v)); the O(n^{11/4}) shape is unaffected.
        # (Reproduction note R2 in EXPERIMENTS.md.)
        for graph in [cycle_graph(16), complete_graph(8), kary_tree(2, 3)]:
            v = 0
            mc = metropolis_chain_lemma16(graph, [v])
            ret_p = exact_return_time(mc.p, v)
            hold = 1.0 / (1.0 - mc.m[v, v])
            assert ret_p <= hold * return_time_bound_cor17(graph, v) + 1e-6

    def test_empty_targets(self):
        with pytest.raises(ValueError):
            metropolis_chain_lemma16(cycle_graph(5), [])
