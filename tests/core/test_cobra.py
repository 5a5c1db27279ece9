"""Tests for the cobra-walk kernel and runner."""

import numpy as np
import pytest

from repro.core import (
    CobraWalk,
    cobra_step,
    cobra_step_reference,
)
from repro.graphs import (
    complete_graph,
    cycle_graph,
    grid,
    path_graph,
    star_graph,
)
from repro.sim import simulate


class TestCobraStep:
    def test_next_frontier_in_neighborhood(self, small_grid, rng):
        active = np.array([0, 5, 12], dtype=np.int64)
        nxt = cobra_step(small_grid, active, 2, rng)
        allowed = set()
        for v in active:
            allowed.update(small_grid.neighbors(int(v)).tolist())
        assert set(nxt.tolist()) <= allowed

    def test_frontier_size_bounds(self, small_grid, rng):
        active = np.array([10], dtype=np.int64)
        for _ in range(50):
            active = cobra_step(small_grid, active, 2, rng)
            assert 1 <= active.size <= 2 * small_grid.n

    def test_branching_bound_k(self, small_complete, rng):
        # |S_{t+1}| <= k |S_t|
        active = np.array([0], dtype=np.int64)
        for _ in range(10):
            nxt = cobra_step(small_complete, active, 3, rng)
            assert nxt.size <= 3 * active.size
            active = nxt

    def test_output_sorted_unique(self, small_hypercube, rng):
        active = np.arange(small_hypercube.n, dtype=np.int64)
        nxt = cobra_step(small_hypercube, active, 2, rng)
        assert np.array_equal(nxt, np.unique(nxt))

    def test_k1_is_plain_random_walk_step(self, small_cycle, rng):
        active = np.array([4], dtype=np.int64)
        nxt = cobra_step(small_cycle, active, 1, rng)
        assert nxt.size == 1
        assert int(nxt[0]) in (3, 5)

    def test_invalid_k(self, small_cycle, rng):
        with pytest.raises(ValueError):
            cobra_step(small_cycle, np.array([0]), 0, rng)

    def test_empty_active_rejected(self, small_cycle, rng):
        with pytest.raises(ValueError):
            cobra_step(small_cycle, np.empty(0, dtype=np.int64), 2, rng)

    def test_dense_and_sparse_paths_agree_distributionally(self, rng):
        # K20 with a full frontier forces the dense path; star with one
        # vertex the sparse path.  Check marginal frequencies on K6.
        g = complete_graph(6)
        active = np.array([0], dtype=np.int64)
        hits = np.zeros(6)
        for _ in range(4000):
            nxt = cobra_step(g, active, 2, rng)
            hits[nxt] += 1
        # each neighbor of 0 should be next-active with prob 1-(4/5)^2=0.36
        freq = hits[1:] / 4000
        assert np.allclose(freq, 0.36, atol=0.04)

    def test_reference_agreement(self):
        # kernel and reference have the same next-frontier distribution
        g = cycle_graph(8)
        rng1, rng2 = np.random.default_rng(1), np.random.default_rng(2)
        counts_kernel: dict[frozenset, int] = {}
        counts_ref: dict[frozenset, int] = {}
        for _ in range(3000):
            nk = frozenset(cobra_step(g, np.array([0]), 2, rng1).tolist())
            nr = frozenset(cobra_step_reference(g, {0}, 2, rng2))
            counts_kernel[nk] = counts_kernel.get(nk, 0) + 1
            counts_ref[nr] = counts_ref.get(nr, 0) + 1
        assert set(counts_kernel) == set(counts_ref) == {
            frozenset({1}),
            frozenset({7}),
            frozenset({1, 7}),
        }
        for key in counts_kernel:
            assert abs(counts_kernel[key] - counts_ref[key]) < 250


class TestCobraWalk:
    def test_initial_state(self, small_grid):
        w = CobraWalk(small_grid, start=3, seed=0)
        assert w.t == 0
        assert w.num_covered == 1
        assert w.first_activation[3] == 0

    def test_multi_source_start(self, small_grid):
        w = CobraWalk(small_grid, start=np.array([0, 10, 20]), seed=0)
        assert w.num_covered == 3

    def test_coverage_monotone(self, small_grid):
        w = CobraWalk(small_grid, seed=1)
        prev = w.num_covered
        for _ in range(100):
            w.step()
            assert w.num_covered >= prev
            prev = w.num_covered

    def test_first_activation_consistency(self, small_hypercube):
        w = CobraWalk(small_hypercube, seed=2)
        res = w.run_until_cover(10_000)
        assert res.covered
        fa = res.first_activation
        assert fa.min() == 0
        assert (fa >= 0).all()
        assert res.cover_time == fa.max()

    def test_history_recording(self, small_cycle):
        w = CobraWalk(small_cycle, seed=3, record_history=True)
        res = w.run_until_cover(10_000)
        assert res.active_size_history is not None
        assert res.active_size_history.size == res.steps + 1
        assert res.active_size_history[0] == 1
        assert (res.active_size_history >= 1).all()

    def test_run_until_hit(self, small_cycle):
        w = CobraWalk(small_cycle, start=0, seed=4)
        t = w.run_until_hit(6, 10_000)
        assert t is not None and t >= 6  # distance 6 needs >= 6 steps

    def test_budget_exhaustion(self):
        g = path_graph(200)
        w = CobraWalk(g, seed=5)
        res = w.run_until_cover(3)
        assert not res.covered
        assert res.cover_time is None
        assert res.steps == 3

    def test_invalid_start(self, small_cycle):
        with pytest.raises(ValueError):
            CobraWalk(small_cycle, start=99)
        with pytest.raises(ValueError):
            CobraWalk(small_cycle, start=np.array([], dtype=np.int64))

    def test_determinism(self, small_grid):
        a = simulate(small_grid, "cobra", seed=42)
        b = simulate(small_grid, "cobra", seed=42)
        assert a.cover_time == b.cover_time
        assert np.array_equal(a.first_activation, b.first_activation)


class TestCoverHitHelpers:
    def test_complete_graph_covers_fast(self):
        res = simulate(complete_graph(64), "cobra", seed=6)
        assert res.covered
        # K_n cobra behaves like a 2x-coupon collector: well under n
        assert res.cover_time < 64

    def test_star_cover_is_coupon_collector_like(self):
        n = 200
        res = simulate(star_graph(n), "cobra", seed=7)
        assert res.covered
        # hub informs <= 2 fresh leaves every other round: >= (n-1)/4ish
        assert res.cover_time > n / 8
        assert res.cover_time < 20 * n * np.log(n)

    def test_hitting_time_distance_lower_bound(self):
        g = grid(10, 2)
        target = g.n - 1  # opposite corner, Manhattan distance 20
        t = simulate(g, "cobra", metric="hit", target=target, seed=8).extras["hit_time"]
        assert t is not None and t >= 20

    def test_hitting_target_equals_start(self, small_cycle):
        res = simulate(small_cycle, "cobra", metric="hit", target=0, start=0, seed=9)
        assert res.extras["hit_time"] == 0

    def test_invalid_target(self, small_cycle):
        w = CobraWalk(small_cycle, seed=0)
        with pytest.raises(ValueError):
            w.run_until_hit(-1, 10)
