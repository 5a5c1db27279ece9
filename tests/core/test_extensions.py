"""Tests for the generalized (variable-branching) cobra walk — the
extension the paper's §1 names but leaves unexplored."""

import numpy as np
import pytest

from repro.core import (
    DegreeProportionalBranching,
    GeneralizedCobraWalk,
    RandomBranching,
    generalized_cobra_cover_time,
)
from repro.graphs import complete_graph, cycle_graph, grid, random_regular, star_graph
from repro.sim import simulate


class TestRandomBranching:
    def test_mean(self):
        rb = RandomBranching({1: 0.5, 3: 0.5})
        assert rb.mean == pytest.approx(2.0)

    def test_draws_match_distribution(self, rng):
        rb = RandomBranching({1: 0.25, 2: 0.75})
        counts = rb(0, np.zeros(20_000, dtype=np.int64), rng)
        assert set(np.unique(counts)) <= {1, 2}
        assert abs((counts == 2).mean() - 0.75) < 0.02

    def test_validation(self):
        with pytest.raises(ValueError):
            RandomBranching({})
        with pytest.raises(ValueError):
            RandomBranching({0: 1.0})
        with pytest.raises(ValueError):
            RandomBranching({1: 0.4, 2: 0.4})


class TestDegreeProportionalBranching:
    def test_counts_follow_degree(self):
        g = star_graph(10)
        sched = DegreeProportionalBranching(g, lambda deg: np.where(deg > 1, 3, 1))
        rng = np.random.default_rng(0)
        ks = sched(0, np.array([0, 1, 2]), rng)
        assert ks.tolist() == [3, 1, 1]

    def test_shape_mismatch_rejected(self):
        g = cycle_graph(6)
        sched = DegreeProportionalBranching(g, lambda deg: deg[:1])
        with pytest.raises(ValueError):
            sched(0, np.array([0, 1]), np.random.default_rng(0))


class TestGeneralizedCobraWalk:
    def test_constant_schedule_matches_cobra(self):
        # identical seeds: same RNG consumption pattern => same trajectory
        g = grid(8, 2)
        ref = simulate(g, "cobra", k=2, seed=42)
        gen = generalized_cobra_cover_time(g, 2, seed=42)
        assert gen == ref.cover_time

    def test_frontier_stays_in_graph(self):
        g = cycle_graph(20)
        walk = GeneralizedCobraWalk(g, RandomBranching({1: 0.3, 2: 0.7}), seed=1)
        for _ in range(100):
            active = walk.step()
            assert active.min() >= 0 and active.max() < g.n
            assert np.array_equal(active, np.unique(active))

    def test_ek_interpolates_cover_time(self):
        # E[k] -> 1 approaches the random walk; E[k] = 2 the cobra walk.
        g = random_regular(128, 4, seed=2)
        covers = []
        for p2 in (0.1, 0.5, 1.0):
            sched = RandomBranching({1: 1.0 - p2, 2: p2})
            times = [
                generalized_cobra_cover_time(g, sched, seed=s, max_steps=500_000)
                for s in range(5)
            ]
            covers.append(np.mean([t for t in times if t is not None]))
        assert covers[0] > covers[1] > covers[2]

    def test_supercritical_random_branching_is_fast(self):
        # even E[k]=1.5 covers the expander in polylog-like time
        g = random_regular(256, 8, seed=3)
        sched = RandomBranching({1: 0.5, 2: 0.5})
        t = generalized_cobra_cover_time(g, sched, seed=4)
        assert t is not None and t < 200

    def test_time_dependent_schedule(self):
        # branch heavily only every third step
        g = complete_graph(30)
        sched = lambda t, verts, rng: np.full(
            verts.size, 3 if t % 3 == 0 else 1, dtype=np.int64
        )
        t = generalized_cobra_cover_time(g, sched, seed=5)
        assert t is not None

    def test_degree_schedule_on_star(self):
        g = star_graph(40)
        sched = DegreeProportionalBranching(g, lambda deg: np.where(deg > 1, 4, 1))
        t = generalized_cobra_cover_time(g, sched, seed=6)
        # hub branches 4x: coupon collector finishes ~2x faster than k=2
        ref = simulate(g, "cobra", k=2, seed=7).cover_time
        assert t is not None and t < ref

    def test_validation(self):
        g = cycle_graph(5)
        with pytest.raises(ValueError):
            GeneralizedCobraWalk(g, 0)
        with pytest.raises(ValueError):
            GeneralizedCobraWalk(g, 2, start=np.array([], dtype=np.int64))
        walk = GeneralizedCobraWalk(g, lambda t, v, r: np.zeros(v.size, dtype=np.int64))
        with pytest.raises(ValueError):
            walk.step()
