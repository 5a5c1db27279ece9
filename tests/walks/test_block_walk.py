"""Bit-identity pin for the block-walk driver.

``rw_trials`` (cover and hit) and
``batched_parallel_walks_cover_trials`` step in blocks of uniforms
(:func:`repro.walks.simple.walk_blocks`).  The reference engines below
are the per-step loops those engines ran before, kept verbatim; every
case asserts equal values *and* an equal generator afterwards (the next
``rng.random()``), because the lazy engines keep drawing from the same
stream once the move chain returns.
"""

import numpy as np
import pytest

import repro.walks.simple as simple_mod
from repro.graphs import (
    complete_graph,
    cycle_graph,
    grid,
    hypercube_oracle,
    lollipop,
    path_graph,
    random_regular,
    torus_oracle,
)
from repro.graphs.base import Graph
from repro.graphs.implicit import as_oracle
from repro.obs.trace import Tracer, activate
from repro.sim import bitmask
from repro.sim.batch import batched_lazy_trials, batched_parallel_walks_cover_trials
from repro.sim.bitmask import BitMask, DenseMask, visited_mask
from repro.sim.rng import resolve_rng
from repro.walks.simple import (
    BLOCK_POSITIONS,
    FIRST_BLOCK_STEPS,
    _cover_budget,
    rw_trials,
)


# -- the per-step reference loops, verbatim -------------------------------
def ref_cover_trials(graph, *, start=0, trials=10, seed=None, max_steps=None):
    if trials < 1:
        raise ValueError("need at least one trial")
    oracle = as_oracle(graph)
    n = oracle.n
    if max_steps is None:
        max_steps = _cover_budget(n)
    rng = resolve_rng(seed)
    pos = np.full(trials, start, dtype=np.int64)
    row_base = np.arange(trials, dtype=np.int64) * n
    covered = visited_mask(trials, n)
    covered.set_unique_rows(row_base + start)
    count = np.ones(trials, dtype=np.int64)
    out = np.full(trials, np.nan)
    done = np.zeros(trials, dtype=bool)
    for t in range(1, max_steps + 1):
        pos = oracle.sample_one(pos, rng)
        flat = row_base + pos
        fresh = ~covered.test_flat(flat)
        covered.set_unique_rows(flat)
        count += fresh
        newly_done = ~done & (count == n)
        if newly_done.any():
            out[newly_done] = t
            done |= newly_done
            if done.all():
                break
    return out


def ref_hitting_trials(graph, target, *, start=0, trials=10, seed=None, max_steps=None):
    if trials < 1:
        raise ValueError("need at least one trial")
    oracle = as_oracle(graph)
    if max_steps is None:
        max_steps = _cover_budget(oracle.n)
    rng = resolve_rng(seed)
    pos = np.full(trials, start, dtype=np.int64)
    out = np.full(trials, np.nan)
    if start == target:
        return np.zeros(trials)
    alive = np.ones(trials, dtype=bool)
    for t in range(1, max_steps + 1):
        pos = oracle.sample_one(pos, rng)
        hit = alive & (pos == target)
        if hit.any():
            out[hit] = t
            alive &= ~hit
            if not alive.any():
                break
    return out


def ref_trials(graph, target=None, **kwargs):
    """The two reference loops behind ``rw_trials``'s one signature."""
    if target is None:
        return ref_cover_trials(graph, **kwargs)
    return ref_hitting_trials(graph, target, **kwargs)


def ref_parallel_cover_trials(graph, *, trials, walkers=2, start=0, seed=None,
                              max_steps=None):
    oracle = as_oracle(graph)
    n = oracle.n
    start_pos = np.atleast_1d(np.asarray(start, dtype=np.int64))
    if start_pos.size == 1:
        start_pos = np.full(walkers, start_pos[0], dtype=np.int64)
    if max_steps is None:
        from repro.walks.parallel import _default_budget

        max_steps = _default_budget(n, walkers)
    rng = resolve_rng(seed)

    pos = np.tile(start_pos, trials)
    trial_base = np.repeat(np.arange(trials, dtype=np.int64) * n, walkers)
    nn = np.int64(n)
    covered = visited_mask(trials, n)
    covered.set_sorted_flat(np.unique(trial_base + pos))
    count = np.full(trials, np.unique(start_pos).size, dtype=np.int64)
    out = np.full(trials, np.nan)
    done = count == n
    out[done] = 0.0
    if done.all():
        return out

    for t in range(1, max_steps + 1):
        pos = oracle.sample_one(pos, rng)
        flat = trial_base + pos
        fresh = np.unique(flat[~covered.test_flat(flat)])
        if fresh.size:
            covered.set_sorted_flat(fresh)
            count += np.bincount(fresh // nn, minlength=trials)
            newly = ~done & (count == n)
            if newly.any():
                out[newly] = t
                done |= newly
                if done.all():
                    break
    return out


# -- harness --------------------------------------------------------------
def assert_same(engine, reference, *args, seed=7, **kwargs):
    """Equal values (nan-aware) and an equal generator afterwards."""
    rng_new, rng_ref = np.random.default_rng(seed), np.random.default_rng(seed)
    got = engine(*args, seed=rng_new, **kwargs)
    want = reference(*args, seed=rng_ref, **kwargs)
    np.testing.assert_array_equal(got, want)
    assert rng_new.random() == rng_ref.random()
    return got


def block_ends(width, upto):
    """Steps at which the driver's blocks end for *width* positions."""
    full = max(1, BLOCK_POSITIONS // width)
    ends, rows, t = [], min(full, FIRST_BLOCK_STEPS), 0
    while t < upto:
        t += rows
        ends.append(t)
        rows = min(full, 2 * rows)
    return ends


def isolated_tail():
    """A triangle on 0..2 plus the isolated vertex 3."""
    return Graph(np.array([0, 2, 4, 6, 6]), np.array([1, 2, 0, 2, 0, 1]),
                 name="triangle+isolated")


GRAPHS = {
    "grid2": lambda: grid(8, 2),
    "path": lambda: path_graph(24),
    "cycle": lambda: cycle_graph(17),
    "lollipop": lambda: lollipop(14),
    "regular": lambda: random_regular(40, 4, seed=3),
    "triangle+isolated": isolated_tail,
    "torus_oracle": lambda: torus_oracle(5, 2),
    "hypercube_oracle": lambda: hypercube_oracle(5),
}


class TestCover:
    @pytest.mark.parametrize("name", sorted(GRAPHS))
    @pytest.mark.parametrize("trials", [1, 5, 64])
    def test_full_budget(self, name, trials):
        # the isolated vertex is never covered: run a short budget out
        budget = 2_500 if name == "triangle+isolated" else None
        out = assert_same(rw_trials, ref_cover_trials, GRAPHS[name](),
                          trials=trials, start=1, max_steps=budget)
        assert np.isnan(out).all() == (budget is not None)

    def test_all_trials_finish_mid_block(self):
        # a 9-cycle is covered in tens of steps: the runs end inside one
        # of the first blocks and are rewound (or, rarely, on an edge)
        last = [
            np.max(assert_same(rw_trials, ref_cover_trials, cycle_graph(9),
                               trials=4, seed=seed))
            for seed in range(8)
        ]
        inside = [t for t in last if int(t) not in block_ends(4, 1_000)]
        assert len(inside) >= 6

    @pytest.mark.parametrize("budget", [1, 2, 31, 32, 33, 96, 100, 480, 481,
                                        992, 1300, 1504, 2048])
    def test_budgets_around_the_block(self, budget):
        # 64 trials: blocks of 32, 64, ..., 512 steps; path(60) cover
        # takes thousands of steps
        assert block_ends(64, 1504) == [32, 96, 224, 480, 992, 1504]
        assert_same(rw_trials, ref_cover_trials, path_graph(60),
                    trials=64, max_steps=budget)

    def test_zero_budget_draws_nothing(self):
        assert_same(rw_trials, ref_cover_trials, cycle_graph(9),
                    trials=3, max_steps=0)

    def test_dense_and_bit_masks(self, monkeypatch):
        g = grid(10, 2)
        assert isinstance(visited_mask(16, g.n), DenseMask)
        dense = assert_same(rw_trials, ref_cover_trials, g, trials=16)
        monkeypatch.setattr(bitmask, "DENSE_LIMIT", 0)
        assert isinstance(visited_mask(16, g.n), BitMask)
        packed = assert_same(rw_trials, ref_cover_trials, g, trials=16)
        np.testing.assert_array_equal(dense, packed)

    def test_bitmask_at_scale(self):
        # 520 trials x 2048 vertices > 2^20: the packed backend for real
        oracle = hypercube_oracle(11)
        assert 520 * oracle.n > bitmask.DENSE_LIMIT
        assert_same(rw_trials, ref_cover_trials, oracle, trials=520,
                    max_steps=3_000)

    def test_isolated_start_raises_before_drawing(self):
        g = isolated_tail()
        for engine in (rw_trials, ref_cover_trials):
            rng = np.random.default_rng(0)
            with pytest.raises(ValueError, match="isolated vertex"):
                engine(g, start=3, trials=2, seed=rng)
            assert rng.random() == np.random.default_rng(0).random()


class TestHit:
    @pytest.mark.parametrize("name", sorted(GRAPHS))
    @pytest.mark.parametrize("trials", [1, 6, 64])
    def test_full_budget(self, name, trials):
        g = GRAPHS[name]()
        target = 2 if name == "triangle+isolated" else g.n - 1
        assert_same(rw_trials, ref_hitting_trials, g, target,
                    trials=trials, start=0)

    @pytest.mark.parametrize("budget", [1, 100, 512, 1300])
    def test_budgets_around_the_block(self, budget):
        assert_same(rw_trials, ref_hitting_trials, path_graph(80), 79,
                    trials=64, max_steps=budget)

    def test_unreachable_target_runs_the_budget(self):
        out = assert_same(rw_trials, ref_hitting_trials, isolated_tail(),
                          3, trials=3, max_steps=700)
        assert np.isnan(out).all()

    def test_start_on_target_draws_nothing(self):
        assert_same(rw_trials, ref_hitting_trials, cycle_graph(9), 4,
                    trials=3, start=4)

    def test_isolated_start_raises(self):
        with pytest.raises(ValueError, match="isolated vertex"):
            rw_trials(isolated_tail(), 0, start=3, trials=2, seed=0)


class TestParallel:
    @pytest.mark.parametrize("name", sorted(set(GRAPHS) - {"triangle+isolated"}))
    @pytest.mark.parametrize("walkers", [1, 3])
    def test_full_budget(self, name, walkers):
        assert_same(batched_parallel_walks_cover_trials, ref_parallel_cover_trials,
                    GRAPHS[name](), trials=8, walkers=walkers)

    def test_distinct_starts_and_bit_masks(self, monkeypatch):
        monkeypatch.setattr(bitmask, "DENSE_LIMIT", 0)
        assert_same(batched_parallel_walks_cover_trials, ref_parallel_cover_trials,
                    lollipop(16), trials=5, walkers=2, start=np.array([0, 9]))

    @pytest.mark.parametrize("budget", [1, 32, 300, 992, 1500])
    def test_budgets_around_the_block(self, budget):
        # 64 trials x 2 walkers: full blocks of 256 steps
        assert_same(batched_parallel_walks_cover_trials, ref_parallel_cover_trials,
                    path_graph(70), trials=64, walkers=2, max_steps=budget)

    def test_started_covered_draws_nothing(self):
        assert_same(batched_parallel_walks_cover_trials, ref_parallel_cover_trials,
                    complete_graph(3), trials=4, walkers=3, start=np.array([0, 1, 2]))


class TestLazyDownstream:
    """The lazy engines draw their holds from the generator the move
    chain leaves behind, so a consumption slip would show here."""

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("name", ["cycle", "lollipop", "torus_oracle"])
    def test_lazy_cover(self, monkeypatch, name, seed):
        g = GRAPHS[name]()
        new = batched_lazy_trials(g, trials=6, seed=seed)
        monkeypatch.setattr(simple_mod, "rw_trials", ref_trials)
        want = batched_lazy_trials(g, trials=6, seed=seed)
        np.testing.assert_array_equal(new, want)

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("name", ["cycle", "lollipop", "hypercube_oracle"])
    def test_lazy_hit(self, monkeypatch, name, seed):
        g = GRAPHS[name]()
        new = batched_lazy_trials(g, g.n - 1, trials=6, seed=seed)
        monkeypatch.setattr(simple_mod, "rw_trials", ref_trials)
        want = batched_lazy_trials(g, g.n - 1, trials=6, seed=seed)
        np.testing.assert_array_equal(new, want)

    def test_lazy_cover_with_a_tight_budget(self, monkeypatch):
        g = path_graph(30)
        new = batched_lazy_trials(g, trials=64, seed=1, max_steps=1300)
        monkeypatch.setattr(simple_mod, "rw_trials", ref_trials)
        want = batched_lazy_trials(g, trials=64, seed=1, max_steps=1300)
        np.testing.assert_array_equal(new, want)


class TestCounters:
    """Under an active tracer the driver reports the cobra engine's
    counter names, once per call."""

    def run_traced(self, engine, *args, **kwargs):
        records = []
        tracer = Tracer(clock=lambda: 0.0, sink=records.append, worker="w")
        with tracer.span("engine"), activate(tracer):
            out = engine(*args, **kwargs)
        (record,) = records
        return out, record

    def test_cover_counts_steps_and_draws(self):
        out, record = self.run_traced(rw_trials, cycle_graph(9), trials=4,
                                      seed=3)
        steps = int(np.nanmax(out))
        assert record["c_engine_steps"] == steps
        assert record["c_rng_draws"] == 4 * steps

    def test_budgeted_parallel_counts_the_budget(self):
        _, record = self.run_traced(batched_parallel_walks_cover_trials,
                                    path_graph(200), trials=5, walkers=3,
                                    seed=0, max_steps=700)
        assert record["c_engine_steps"] == 700
        assert record["c_rng_draws"] == 700 * 15

    def test_hit_counts_steps(self):
        out, record = self.run_traced(rw_trials, cycle_graph(11), 5,
                                      trials=3, seed=2)
        assert record["c_engine_steps"] == int(out.max())
        assert record["c_rng_draws"] == 3 * int(out.max())

    def test_untraced_run_is_value_identical(self):
        out, _ = self.run_traced(rw_trials, grid(6, 2), trials=7, seed=9)
        np.testing.assert_array_equal(
            out, rw_trials(grid(6, 2), trials=7, seed=9))
