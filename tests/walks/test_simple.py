"""Tests for simple random-walk baselines."""

import numpy as np
import pytest

from repro.graphs import complete_graph, cycle_graph, lollipop, path_graph
from repro.sim import simulate
from repro.walks import RandomWalk, rw_exact_hitting_times, rw_trials


class TestRandomWalk:
    def test_moves_along_edges(self, small_grid):
        w = RandomWalk(small_grid, start=0, seed=1)
        prev = w.position
        for _ in range(100):
            cur = w.step()
            assert small_grid.has_edge(prev, cur)
            prev = cur

    def test_lazy_holds(self, small_cycle):
        w = RandomWalk(small_cycle, start=0, lazy=True, seed=2)
        holds = sum(w.step() == 0 for _ in range(1)) if False else 0
        held = 0
        pos = w.position
        for _ in range(400):
            nxt = w.step()
            held += nxt == pos
            pos = nxt
        assert 140 < held < 260  # ~half

    def test_cover_complete(self):
        t = simulate(complete_graph(20), "simple", seed=3).cover_time
        assert t is not None
        # coupon collector ~ n ln n ~ 60
        assert 19 <= t < 400

    def test_hitting_distance_bound(self, small_cycle):
        t = simulate(small_cycle, "simple", metric="hit", target=6, seed=4).extras["hit_time"]
        assert t is not None and t >= 6

    def test_budget_returns_none(self):
        assert simulate(path_graph(100), "simple", seed=5, max_steps=5).cover_time is None

    def test_validation(self, small_cycle):
        with pytest.raises(ValueError):
            RandomWalk(small_cycle, start=100)
        with pytest.raises(ValueError):
            simulate(small_cycle, "simple", metric="hit", target=50, max_steps=10)


class TestBatchedTrials:
    def test_cover_trials_match_scalar_distribution(self):
        g = cycle_graph(10)
        batched = rw_trials(g, trials=200, seed=6)
        scalar = np.array(
            [simulate(g, "simple", seed=1000 + i).value for i in range(200)],
            dtype=np.float64,
        )
        # same process, independent draws: means within 15%
        assert abs(np.nanmean(batched) - np.nanmean(scalar)) < 0.15 * np.nanmean(scalar)

    def test_cycle_cover_is_quadratic(self):
        # E[cover] of the cycle = n(n-1)/2 exactly
        n = 16
        mean = np.nanmean(rw_trials(cycle_graph(n), trials=400, seed=7))
        expect = n * (n - 1) / 2
        assert abs(mean - expect) < 0.12 * expect

    def test_hitting_trials_antipodal_cycle(self):
        # E[hit] from 0 to k on a cycle = k(n-k)
        n = 12
        mean = np.nanmean(rw_trials(cycle_graph(n), 6, trials=500, seed=8))
        assert abs(mean - 36.0) < 4.5

    def test_budget_gives_nans(self):
        out = rw_trials(path_graph(50), trials=4, seed=9, max_steps=3)
        assert np.isnan(out).all()

    def test_trials_validation(self, small_cycle):
        with pytest.raises(ValueError):
            rw_trials(small_cycle, trials=0)

    @pytest.mark.parametrize("start", [-1, 8, [0, 1]])
    def test_bad_start_rejected(self, start):
        g = cycle_graph(8)
        for target in (None, 4):
            with pytest.raises(ValueError, match="start"):
                rw_trials(g, target, start=start, trials=3, seed=0)

    @pytest.mark.parametrize("target", [-1, 8])
    def test_bad_target_rejected(self, target):
        with pytest.raises(ValueError, match="target out of range"):
            rw_trials(cycle_graph(8), target, trials=3, seed=0)

    def test_one_element_start_array(self):
        g = cycle_graph(8)
        assert np.array_equal(
            rw_trials(g, start=np.array([3]), trials=5, seed=1),
            rw_trials(g, start=3, trials=5, seed=1),
        )


class TestExactHitting:
    def test_cycle_closed_form(self):
        # H(k -> 0) = k(n-k) on the n-cycle
        n = 10
        h = rw_exact_hitting_times(cycle_graph(n), 0)
        for k in range(n):
            assert h[k] == pytest.approx(k * (n - k))

    def test_path_closed_form(self):
        # path 0..n-1: H(k -> 0) = k^2 + k(2(n-1-k)) ... use H(1->0)=2n-3
        n = 6
        h = rw_exact_hitting_times(path_graph(n), 0)
        assert h[1] == pytest.approx(2 * n - 3)

    def test_lollipop_hits_cubically(self):
        # hitting from the clique to the path end grows ~ n^3
        h20 = rw_exact_hitting_times(lollipop(20), 19).max()
        h40 = rw_exact_hitting_times(lollipop(40), 39).max()
        assert h40 / h20 > 5.0  # cubic predicts 8

    def test_simulation_agrees_with_exact(self):
        g = cycle_graph(8)
        h = rw_exact_hitting_times(g, 0)
        sim = np.nanmean(rw_trials(g, 0, start=4, trials=600, seed=10))
        assert abs(sim - h[4]) < 0.12 * h[4]
