"""Tests for the Walt process."""

import numpy as np
import pytest

from repro.core import WaltProcess, walt_step_positions
from repro.graphs import complete_graph, cycle_graph, random_regular
from repro.sim import simulate


class TestWaltStep:
    def test_pebble_count_invariant(self, small_grid, rng):
        pos = rng.integers(0, small_grid.n, size=17).astype(np.int64)
        for _ in range(50):
            pos = walt_step_positions(small_grid, pos, rng)
            assert pos.size == 17

    def test_moves_are_edges(self, small_grid, rng):
        pos = rng.integers(0, small_grid.n, size=9).astype(np.int64)
        nxt = walt_step_positions(small_grid, pos, rng)
        for a, b in zip(pos, nxt):
            assert small_grid.has_edge(int(a), int(b))

    def test_followers_join_leader_or_vice(self, rng):
        # all pebbles on one K5 vertex: after a move, positions must be
        # a subset of the two leaders' destinations
        g = complete_graph(5)
        pos = np.zeros(10, dtype=np.int64)
        nxt = walt_step_positions(g, pos, rng)
        leaders = {int(nxt[0]), int(nxt[1])}
        assert set(nxt.tolist()) <= leaders

    def test_two_pebbles_independent(self, rng):
        # with exactly two co-located pebbles both move independently:
        # over many trials they should land on distinct vertices ~ often
        g = complete_graph(6)
        distinct = 0
        for _ in range(2000):
            nxt = walt_step_positions(g, np.zeros(2, dtype=np.int64), rng)
            distinct += nxt[0] != nxt[1]
        # P(distinct) = 4/5
        assert 0.75 < distinct / 2000 < 0.85

    def test_follower_split_is_fair(self, rng):
        # 3rd pebble picks leader vs vice with probability 1/2 each
        g = cycle_graph(10)
        to_leader = 0
        trials = 4000
        for _ in range(trials):
            nxt = walt_step_positions(g, np.zeros(3, dtype=np.int64), rng)
            if nxt[2] == nxt[0]:
                to_leader += 1
            else:
                assert nxt[2] == nxt[1]
        # unconditionally P(follow leader's vertex) >= 1/2 (ties when
        # leader and vice coincide); on the cycle P(same)=1/2 so
        # P(nxt2 == nxt0) = 1/2 + 1/2*1/2 = 3/4
        assert 0.70 < to_leader / trials < 0.80

    def test_empty_rejected(self, small_cycle, rng):
        with pytest.raises(ValueError):
            walt_step_positions(small_cycle, np.empty(0, dtype=np.int64), rng)


class TestWaltProcess:
    def test_initial_coverage(self, small_grid):
        proc = WaltProcess(small_grid, np.array([0, 0, 5]), seed=0)
        assert proc.num_covered == 2
        assert proc.num_pebbles == 3

    def test_lazy_steps_hold_everything(self, small_grid):
        proc = WaltProcess(small_grid, np.array([3, 7]), lazy=True, seed=1)
        held = 0
        for _ in range(200):
            before = proc.positions.copy()
            proc.step()
            if np.array_equal(before, proc.positions):
                held += 1
        assert 60 < held  # ~half the steps hold (unequal moves possible too)

    def test_non_lazy_always_moves(self, small_cycle):
        proc = WaltProcess(small_cycle, np.array([0]), lazy=False, seed=2)
        before = proc.positions.copy()
        proc.step()
        assert not np.array_equal(before, proc.positions)

    def test_cover_run(self, small_hypercube):
        res = simulate(small_hypercube, "walt", delta=0.5, start=0, seed=3)
        assert res.covered
        assert res.cover_time is not None and res.cover_time > 0

    def test_first_activation_consistency(self, small_grid):
        res = simulate(small_grid, "walt", delta=0.3, start=0, seed=4)
        assert res.covered
        assert res.first_activation.min() == 0
        assert res.cover_time == res.first_activation.max()

    def test_uniform_start(self, small_grid):
        res = simulate(small_grid, "walt", delta=0.5, start=None, seed=5)
        assert res.covered

    def test_delta_validation(self, small_grid):
        with pytest.raises(ValueError):
            simulate(small_grid, "walt", delta=0.0)
        with pytest.raises(ValueError):
            simulate(small_grid, "walt", delta=1.5)

    def test_position_validation(self, small_cycle):
        with pytest.raises(ValueError):
            WaltProcess(small_cycle, np.array([99]))
        with pytest.raises(ValueError):
            WaltProcess(small_cycle, np.empty(0, dtype=np.int64))

    def test_determinism(self):
        g = random_regular(40, 4, seed=6)
        a = simulate(g, "walt", seed=7)
        b = simulate(g, "walt", seed=7)
        assert a.cover_time == b.cover_time
