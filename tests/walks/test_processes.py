"""Tests for parallel walks, gossip, coalescing, and branching walks."""

import numpy as np
import pytest

from repro.graphs import (
    complete_graph,
    cycle_graph,
    grid,
    hypercube,
    path_graph,
    star_graph,
)
from repro.sim import simulate
from repro.walks import BranchingWalk, CoalescingWalks


def _cover(graph, process, **kwargs):
    return simulate(graph, process, **kwargs).cover_time


def _hit(graph, process, target, **kwargs):
    return simulate(graph, process, metric="hit", target=target, **kwargs).extras[
        "hit_time"
    ]


class TestParallelWalks:
    def test_more_walkers_no_slower(self):
        g = cycle_graph(40)
        t1 = np.mean([_cover(g, "parallel", walkers=1, seed=s) for s in range(15)])
        t8 = np.mean([_cover(g, "parallel", walkers=8, seed=s) for s in range(15)])
        assert t8 < t1

    def test_start_array(self):
        g = cycle_graph(20)
        t = _cover(g, "parallel", walkers=4, start=np.array([0, 5, 10, 15]), seed=1)
        assert t is not None and t < 500

    def test_hitting_zero_when_started_there(self, small_cycle):
        assert _hit(small_cycle, "parallel", 3, walkers=2, start=3, seed=2) == 0

    def test_hitting_distance_bound(self):
        g = cycle_graph(30)
        t = _hit(g, "parallel", 15, walkers=3, seed=3)
        assert t is not None and t >= 15

    def test_validation(self, small_cycle):
        with pytest.raises(ValueError):
            _cover(small_cycle, "parallel", walkers=0)
        with pytest.raises(ValueError):
            _cover(small_cycle, "parallel", walkers=3, start=np.array([0, 1]))
        with pytest.raises(ValueError):
            _hit(small_cycle, "parallel", 99)


class TestGossip:
    def test_push_informs_all_fast_on_complete(self):
        t = _cover(complete_graph(128), "push", seed=4)
        # ~ log2(n) + ln(n) ~ 12; generous band
        assert t is not None and 7 <= t <= 40

    def test_push_on_star_is_coupon_collector(self):
        n = 100
        t = _cover(star_graph(n), "push", seed=5)
        # hub pushes 1 leaf per round but half the rounds the leaves
        # push back: ~ 2 n ln n rounds
        assert t is not None and t > n

    def test_pull_completes(self):
        t = _cover(hypercube(6), "pull", seed=6)
        assert t is not None

    def test_push_pull_no_slower_than_push(self):
        g = grid(8, 2)
        push = np.mean([_cover(g, "push", seed=s) for s in range(10)])
        both = np.mean([_cover(g, "push_pull", seed=s) for s in range(10)])
        assert both <= push * 1.1

    def test_budget_returns_none(self):
        assert _cover(path_graph(100), "push", seed=7, max_steps=3) is None

    def test_single_vertex_graph(self):
        from repro.graphs import complete_graph

        assert _cover(complete_graph(2), "push", seed=8) == 1


class TestCoalescing:
    def test_walker_count_monotone_nonincreasing(self, small_complete, rng):
        proc = CoalescingWalks(small_complete, np.arange(10), seed=9)
        prev = proc.num_walkers
        for _ in range(200):
            proc.step()
            assert proc.num_walkers <= prev
            prev = proc.num_walkers
            if prev == 1:
                break

    def test_coalesces_on_complete(self):
        res = simulate(complete_graph(12), "coalescing", seed=10)
        t = res.extras["coalescence_time"]
        assert t is not None and t > 0

    def test_two_walkers_on_odd_cycle_meet(self):
        g = cycle_graph(9)
        proc = CoalescingWalks(g, np.array([0, 4]), seed=11)
        res = proc.run_until_coalesced(100_000)
        assert res.coalesced

    def test_single_walker_trivially_coalesced(self, small_cycle):
        proc = CoalescingWalks(small_cycle, np.array([3]), seed=12)
        res = proc.run_until_coalesced(10)
        assert res.coalesced and res.steps == 0

    def test_validation(self, small_cycle):
        with pytest.raises(ValueError):
            CoalescingWalks(small_cycle, np.array([99]))


class TestBranching:
    def test_population_grows_without_cap(self):
        g = complete_graph(30)
        walk = BranchingWalk(g, k=2, seed=13, population_cap=10**9)
        for _ in range(8):
            walk.step()
        assert walk.population == 2**8

    def test_covers_faster_than_cobra_on_cycle(self):
        # branching has strictly more particles than cobra (no merge)
        g = cycle_graph(60)
        b = np.mean([_cover(g, "branching", seed=s) for s in range(8)])
        c = np.mean([_cover(g, "cobra", seed=s) for s in range(8)])
        assert b <= c * 1.05

    def test_cap_flag(self):
        # run past coverage so the population must cross the cap
        g = complete_graph(10)
        walk = BranchingWalk(g, seed=14, population_cap=50)
        for _ in range(10):
            walk.step()
        assert walk.hit_cap
        assert walk.population <= 70  # cap plus per-vertex floor slack

    def test_validation(self, small_cycle):
        with pytest.raises(ValueError):
            BranchingWalk(small_cycle, k=0)
        with pytest.raises(ValueError):
            BranchingWalk(small_cycle, start=99)
