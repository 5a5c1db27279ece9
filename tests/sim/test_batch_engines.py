"""Tests for the generalized batched-engine layer.

Three pillars:

* each vectorized engine (gossip push/pull/push_pull, parallel walks,
  Walt, cobra hit, simple hit, lazy, branching, coalescing) matches
  ``strategy="serial"`` distributionally at fixed seeds (means within
  a pooled CI);
* ``run_batch`` auto-selects the vectorized engine for every process
  that has one, including ``metric="hit"``, and validates the target
  before any trial runs;
* engine-specific semantics: multi-source starts, budget-exhaustion
  NaNs, degenerate starts, population caps, validation errors.
"""

import inspect

import numpy as np
import pytest

from conformance import SERIAL_PARITY_CASES, assert_means_close

import repro.sim.batch as batch_mod
import repro.sim.bitmask as bitmask_mod
from repro.graphs import (
    as_oracle,
    barbell,
    complete_graph,
    cycle_graph,
    grid,
    hypercube_oracle,
    kronecker_oracle,
    lollipop,
    star_graph,
    torus_oracle,
)
from repro.obs.trace import Tracer, activate
from repro.sim import (
    all_processes,
    batched_branching_cover_trials,
    batched_coalescing_cover_trials,
    batched_cobra_active_sizes,
    batched_cobra_trials,
    batched_gossip_trials,
    batched_lazy_trials,
    batched_parallel_walks_cover_trials,
    batched_walt_positions_at,
    batched_walt_trials,
    get_process,
    run_batch,
)


@pytest.fixture(scope="module")
def g():
    return grid(8, 2)


class TestSerialParity:
    """Parity rows live in ``conformance.SERIAL_PARITY_CASES``, the
    shared engine × metric table."""

    @pytest.mark.parametrize(
        "name,params,metric,target",
        SERIAL_PARITY_CASES,
        ids=[
            f"{c[0]}-{c[2] or 'cover'}-{i}"
            for i, c in enumerate(SERIAL_PARITY_CASES)
        ],
    )
    def test_vectorized_matches_serial_distributionally(
        self, g, name, params, metric, target
    ):
        kw = dict(trials=48, metric=metric, target=target, seed=29, **params)
        vec = run_batch(g, name, strategy="vectorized", **kw)
        ser = run_batch(g, name, strategy="serial", **kw)
        assert_means_close(vec, ser)


class TestAutoSelection:
    """auto must pick the vectorized engine wherever one exists: the
    auto values are bit-exact with strategy="vectorized" (same engine,
    same seed) for every process with an engine."""

    @pytest.mark.parametrize(
        "name,kwargs",
        [
            ("cobra", {}),
            ("simple", {}),
            ("walt", {}),
            ("parallel", {}),
            ("push", {}),
            ("pull", {}),
            ("push_pull", {}),
            ("lazy", {}),
            ("branching", {}),
            ("coalescing", {"metric": "cover", "walkers": 6}),
        ],
    )
    def test_auto_cover_is_vectorized(self, g, name, kwargs):
        assert get_process(name).batch is not None
        auto = run_batch(g, name, trials=6, seed=3, **kwargs)
        vec = run_batch(g, name, trials=6, seed=3, strategy="vectorized", **kwargs)
        assert np.array_equal(auto.values, vec.values)

    def test_coalesce_metric_stays_serial(self, g):
        """The coalescing engine covers cover/spread only; the default
        coalesce metric must keep taking the per-trial path."""
        auto = run_batch(g, "coalescing", trials=3, seed=3, walkers=4)
        ser = run_batch(g, "coalescing", trials=3, seed=3, walkers=4,
                        strategy="serial")
        assert np.array_equal(auto.values, ser.values, equal_nan=True)

    @pytest.mark.parametrize(
        "name",
        ["cobra", "simple", "lazy", "walt", "push", "pull", "push_pull"],
    )
    def test_auto_hit_is_vectorized(self, g, name):
        assert "hit" in get_process(name).batch_metrics
        auto = run_batch(g, name, trials=6, metric="hit", target=g.n - 1, seed=4)
        vec = run_batch(
            g, name, trials=6, metric="hit", target=g.n - 1, seed=4,
            strategy="vectorized",
        )
        assert np.array_equal(auto.values, vec.values)

    def test_engine_coverage_floor(self):
        """The "every process is batched" milestone: every registered
        cover/spread-capable process runs that metric on its engine,
        and the engines of cobra/simple/lazy/walt and all three gossip
        variants run hit too."""
        for spec in all_processes():
            assert spec.capabilities & {"cover", "spread"} <= spec.batch_metrics
        covered = [s.name for s in all_processes() if s.batch is not None]
        assert len(covered) == 10
        for name in ("cobra", "simple", "lazy", "walt",
                     "push", "pull", "push_pull"):
            assert "hit" in get_process(name).batch_metrics


class TestHitTargetValidation:
    """run_batch must reject bad targets before any trial runs."""

    def test_missing_target(self, g):
        with pytest.raises(ValueError, match="target"):
            run_batch(g, "cobra", trials=2, metric="hit")

    def test_out_of_range_target(self, g):
        with pytest.raises(ValueError, match="target"):
            run_batch(g, "cobra", trials=2, metric="hit", target=g.n)

    def test_negative_target(self, g):
        with pytest.raises(ValueError, match="target"):
            run_batch(g, "cobra", trials=2, metric="hit", target=-1)


class TestGossipEngine:
    def test_pull_on_star_is_fast(self):
        # every leaf polls the hub: pull informs all leaves in one round
        s = star_graph(30)
        t = batched_gossip_trials(s, trials=8, seed=1, push=False, pull=True)
        assert (t <= 2).all()

    def test_budget_exhaustion_nan(self):
        t = batched_gossip_trials(cycle_graph(64), trials=4, seed=0, max_steps=2)
        assert np.isnan(t).all()

    def test_two_vertex_graph_trivial(self):
        from repro.graphs import path_graph

        t = batched_gossip_trials(path_graph(2), trials=3, seed=0)
        assert np.isfinite(t).all()

    def test_validation(self, g):
        with pytest.raises(ValueError, match="push/pull"):
            batched_gossip_trials(g, trials=2, push=False, pull=False)
        with pytest.raises(ValueError, match="start"):
            batched_gossip_trials(g, trials=2, start=g.n)
        with pytest.raises(ValueError, match="trial"):
            batched_gossip_trials(g, trials=0)


class TestGossipHitEngine:
    def test_hit_at_start_is_zero(self, g):
        t = batched_gossip_trials(g, 0, trials=4, seed=1)
        assert (t == 0.0).all()

    def test_hit_at_least_distance(self):
        # push-only on a cycle: the informed set is an interval growing
        # by at most one vertex per side per round, so reaching the
        # antipode takes at least its graph distance
        c = cycle_graph(31)
        t = batched_gossip_trials(c, 15, trials=8, seed=7, pull=False)
        assert np.isfinite(t).all()
        assert (t >= 15).all()

    def test_pull_on_star_leaf_is_fast(self):
        # every leaf polls the hub each round: any leaf target is
        # informed within two rounds under pull
        s = star_graph(30)
        t = batched_gossip_trials(
            s, s.n - 1, trials=8, seed=2, push=False, pull=True
        )
        assert (t <= 2).all()

    def test_budget_exhaustion_nan(self):
        t = batched_gossip_trials(
            cycle_graph(64), 32, trials=4, seed=0, max_steps=2
        )
        assert np.isnan(t).all()

    def test_validation(self, g):
        with pytest.raises(ValueError, match="push/pull"):
            batched_gossip_trials(g, 1, trials=2, push=False, pull=False)
        with pytest.raises(ValueError, match="target"):
            batched_gossip_trials(g, g.n, trials=2)
        with pytest.raises(ValueError, match="start"):
            batched_gossip_trials(g, 1, trials=2, start=g.n)


class TestParallelEngine:
    def test_more_walkers_cover_faster(self):
        c = cycle_graph(40)
        few = batched_parallel_walks_cover_trials(c, trials=16, walkers=2, seed=5)
        many = batched_parallel_walks_cover_trials(c, trials=16, walkers=8, seed=5)
        assert np.nanmean(many) < np.nanmean(few)

    def test_start_array_per_walker(self):
        # one walker per vertex: everything is covered at t=0
        c = cycle_graph(12)
        t = batched_parallel_walks_cover_trials(
            c, trials=5, walkers=12, start=np.arange(12), seed=6, max_steps=5
        )
        assert np.array_equal(t, np.zeros(5))

    def test_budget_exhaustion_nan(self):
        t = batched_parallel_walks_cover_trials(
            cycle_graph(64), trials=4, walkers=2, seed=0, max_steps=3
        )
        assert np.isnan(t).all()

    def test_validation(self, g):
        with pytest.raises(ValueError, match="walker"):
            batched_parallel_walks_cover_trials(g, trials=2, walkers=0)
        with pytest.raises(ValueError, match="length"):
            batched_parallel_walks_cover_trials(
                g, trials=2, walkers=3, start=np.array([0, 1])
            )


class TestWaltEngine:
    def test_delta_one_any_start_covers_quickly(self):
        c = cycle_graph(16)
        t = batched_walt_trials(c, trials=8, delta=1.0, seed=7, max_steps=10**4)
        assert np.isfinite(t).all()

    def test_full_random_placement_can_cover_at_zero(self):
        # delta=1 random placement on a 2-vertex graph covers at t=0
        # often; just check the t=0 path doesn't crash and times are valid
        from repro.graphs import path_graph

        t = batched_walt_trials(path_graph(2), trials=32, delta=1.0,
                                start=None, seed=8)
        assert np.isfinite(t).all() and (t >= 0).all()
        assert (t == 0).any()  # 32 trials of 2 uniform pebbles: whp one covers

    def test_multi_source_start_array(self):
        c = cycle_graph(40)
        spread = batched_walt_trials(
            c, trials=12, start=np.array([0, 20]), seed=9, max_steps=10**5
        )
        together = batched_walt_trials(c, trials=12, start=0, seed=9,
                                       max_steps=10**5)
        assert np.nanmean(spread) < np.nanmean(together)

    def test_budget_exhaustion_nan(self):
        t = batched_walt_trials(cycle_graph(64), trials=4, seed=0, max_steps=2)
        assert np.isnan(t).all()

    def test_validation(self, g):
        with pytest.raises(ValueError, match="delta"):
            batched_walt_trials(g, trials=2, delta=0.0)
        with pytest.raises(ValueError, match="start"):
            batched_walt_trials(g, trials=2, start=g.n)


class TestCobraHitEngine:
    def test_hit_at_start_is_zero(self, g):
        t = batched_cobra_trials(g, 0, trials=4, seed=1)
        assert np.array_equal(t, np.zeros(4))

    def test_hit_at_least_distance(self):
        c = cycle_graph(30)
        t = batched_cobra_trials(c, 15, trials=16, seed=2)
        assert (t[~np.isnan(t)] >= 15).all()

    def test_multi_source(self):
        c = cycle_graph(40)
        near = batched_cobra_trials(
            c, 20, trials=16, start=np.array([0, 18]), seed=3
        )
        far = batched_cobra_trials(c, 20, trials=16, start=0, seed=3)
        assert np.nanmean(near) < np.nanmean(far)

    def test_budget_exhaustion_nan(self):
        c = cycle_graph(100)
        t = batched_cobra_trials(c, 50, trials=4, seed=0, max_steps=3)
        assert np.isnan(t).all()

    def test_validation(self, g):
        with pytest.raises(ValueError, match="target"):
            batched_cobra_trials(g, g.n, trials=2)
        with pytest.raises(ValueError, match="k must be"):
            batched_cobra_trials(g, 0, trials=2, k=0)

    def test_k_three_path(self):
        c = cycle_graph(24)
        t = batched_cobra_trials(c, 12, trials=8, k=3, seed=4)
        assert np.isfinite(t).all()


#: irregular graphs, so the neighbor table's padding sits next to drawn
#: slots (the golden graphs are all regular)
IRREGULAR = {
    "star": lambda: star_graph(12),
    "lollipop": lambda: lollipop(64),
    "barbell": lambda: barbell(64),
    "grid": lambda: grid(6, 2),
    # loops on two base digits: the all-loop vertices lose their self pair
    "kronecker_loopy": lambda: kronecker_oracle([1, 1, 0, 1, 0, 1, 0, 1, 1], 3),
}


class TestCobraNeighborTable:
    @pytest.mark.parametrize("name", IRREGULAR)
    def test_rows_are_the_ascending_neighbor_lists(self, name):
        oracle = as_oracle(IRREGULAR[name]())
        nbrs, deg = oracle.all_neighbors(np.arange(oracle.n, dtype=np.int64))
        assert deg.min() < oracle.max_degree
        rows = batch_mod._neighbor_table(oracle).reshape(oracle.n, oracle.max_degree)
        assert rows.dtype == np.int64
        assert np.array_equal(rows[np.arange(oracle.max_degree) < deg[:, None]], nbrs)

    def test_none_above_the_cap(self, monkeypatch):
        # 8 bytes · n · max_degree against bitmask.DENSE_LIMIT (1 MiB)
        assert batch_mod._neighbor_table(hypercube_oracle(17)) is None
        assert batch_mod._neighbor_table(torus_oracle(1024)) is None
        cube = hypercube_oracle(13)
        assert batch_mod._neighbor_table(cube).size == cube.n * 13
        monkeypatch.setattr(bitmask_mod, "DENSE_LIMIT", 8 * cube.n * 13 - 1)
        assert batch_mod._neighbor_table(cube) is None

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("name", IRREGULAR)
    def test_table_and_fallback_agree(self, name, k, monkeypatch):
        graph = IRREGULAR[name]()
        last = as_oracle(graph).n - 1

        def run():
            return (
                batched_cobra_trials(graph, trials=4, k=k, seed=5, max_steps=2000),
                batched_cobra_trials(graph, last, trials=4, k=k, seed=6, max_steps=2000),
                batched_cobra_active_sizes(graph, trials=4, steps=40, k=k, seed=7),
            )

        assert batch_mod._neighbor_table(as_oracle(graph)) is not None
        table = run()
        monkeypatch.setattr(bitmask_mod, "DENSE_LIMIT", 0)
        assert batch_mod._neighbor_table(as_oracle(graph)) is None
        for got, want in zip(run(), table):
            np.testing.assert_array_equal(got, want)


class TestLazyEngine:
    def test_slower_than_simple(self, g):
        lazy = batched_lazy_trials(g, trials=32, seed=5)
        simple = run_batch(g, "simple", trials=32, seed=5).values
        # half the lazy steps are holds: cover should be ~2x, surely >1.3x
        assert np.nanmean(lazy) > 1.3 * np.nanmean(simple)

    def test_budget_censoring_nan(self):
        t = batched_lazy_trials(cycle_graph(64), trials=8, seed=0, max_steps=70)
        assert np.isnan(t).all()  # even the move chain cannot cover in 70

    def test_holds_count_against_budget(self):
        # generous move budget but tight step budget: reconstructed
        # totals above max_steps must censor to nan
        c = cycle_graph(16)
        unlimited = batched_lazy_trials(c, trials=64, seed=9)
        capped = batched_lazy_trials(
            c, trials=64, seed=9, max_steps=int(np.nanmedian(unlimited))
        )
        assert np.isnan(capped).sum() > 0

    def test_validation(self, g):
        with pytest.raises(ValueError, match="start"):
            batched_lazy_trials(g, trials=2, start=g.n)
        with pytest.raises(ValueError, match="trial"):
            batched_lazy_trials(g, trials=0)


class TestBranchingEngine:
    def test_small_cap_still_covers(self):
        c = cycle_graph(16)
        t = batched_branching_cover_trials(c, trials=8, seed=1, population_cap=4)
        assert np.isfinite(t).all()

    def test_larger_k_covers_faster(self, g):
        k2 = batched_branching_cover_trials(g, trials=16, k=2, seed=2)
        k4 = batched_branching_cover_trials(g, trials=16, k=4, seed=2)
        assert np.nanmean(k4) < np.nanmean(k2)

    def test_k_one_is_single_walker(self):
        # k=1, cap anything: exactly one particle forever — the cover
        # law of the simple random walk
        c = cycle_graph(12)
        t = batched_branching_cover_trials(c, trials=24, k=1, seed=3)
        s = run_batch(c, "simple", trials=24, seed=3).values
        assert np.isfinite(t).all()
        assert abs(np.mean(t) - np.mean(s)) < 3.0 * np.std(s) / np.sqrt(6)

    def test_star_hub_degree_path(self):
        s = star_graph(20)
        t = batched_branching_cover_trials(s, trials=8, seed=4)
        assert np.isfinite(t).all()

    def test_budget_exhaustion_nan(self):
        t = batched_branching_cover_trials(
            cycle_graph(64), trials=4, seed=0, max_steps=3
        )
        assert np.isnan(t).all()

    def test_validation(self, g):
        with pytest.raises(ValueError, match="k must be"):
            batched_branching_cover_trials(g, trials=2, k=0)
        with pytest.raises(ValueError, match="population_cap"):
            batched_branching_cover_trials(g, trials=2, population_cap=0)
        with pytest.raises(ValueError, match="start"):
            batched_branching_cover_trials(g, trials=2, start=-1)


class TestCoalescingEngine:
    def test_all_vertices_cover_at_zero(self, g):
        t = batched_coalescing_cover_trials(g, trials=5, seed=1)
        assert np.array_equal(t, np.zeros(5))

    def test_more_walkers_cover_faster(self):
        c = cycle_graph(40)
        few = batched_coalescing_cover_trials(c, trials=12, walkers=3, seed=5)
        many = batched_coalescing_cover_trials(c, trials=12, walkers=12, seed=5)
        assert np.nanmean(many) < np.nanmean(few)

    def test_explicit_start_array(self):
        c = cycle_graph(12)
        t = batched_coalescing_cover_trials(
            c, trials=4, start=np.arange(12), seed=6, max_steps=5
        )
        assert np.array_equal(t, np.zeros(4))

    def test_budget_exhaustion_nan(self):
        t = batched_coalescing_cover_trials(
            cycle_graph(64), trials=4, walkers=4, seed=0, max_steps=3
        )
        assert np.isnan(t).all()

    def test_validation(self, g):
        with pytest.raises(ValueError, match="scalar start"):
            batched_coalescing_cover_trials(g, trials=2, start=3)
        with pytest.raises(ValueError, match="walker"):
            batched_coalescing_cover_trials(g, trials=2, walkers=0)
        with pytest.raises(ValueError, match="position"):
            batched_coalescing_cover_trials(g, trials=2, start=np.array([0, g.n]))


class TestLazyHitEngine:
    def test_hit_at_start_is_zero(self, g):
        t = batched_lazy_trials(g, 0, trials=4, seed=1)
        assert np.array_equal(t, np.zeros(4))

    def test_slower_than_simple(self, g):
        lazy = batched_lazy_trials(g, 63, trials=64, seed=5)
        simple = run_batch(g, "simple", trials=64, metric="hit", target=63,
                           seed=5).values
        # half the lazy steps are holds: hitting should be ~2x
        assert np.nanmean(lazy) > 1.3 * np.nanmean(simple)

    def test_hit_at_least_distance(self):
        c = cycle_graph(30)
        t = batched_lazy_trials(c, 15, trials=16, seed=2)
        assert (t[~np.isnan(t)] >= 15).all()

    def test_holds_count_against_budget(self):
        c = cycle_graph(16)
        unlimited = batched_lazy_trials(c, 8, trials=64, seed=9)
        capped = batched_lazy_trials(
            c, 8, trials=64, seed=9, max_steps=int(np.nanmedian(unlimited))
        )
        assert np.isnan(capped).sum() > 0

    def test_budget_exhaustion_nan(self):
        t = batched_lazy_trials(cycle_graph(64), 32, trials=4, seed=0,
                                max_steps=5)
        assert np.isnan(t).all()

    def test_validation(self, g):
        with pytest.raises(ValueError, match="target"):
            batched_lazy_trials(g, g.n, trials=2)
        with pytest.raises(ValueError, match="start"):
            batched_lazy_trials(g, 0, trials=2, start=-1)
        with pytest.raises(ValueError, match="trial"):
            batched_lazy_trials(g, 0, trials=0)


class TestFixedHorizonEngines:
    def test_active_sizes_shape_and_start(self, g):
        sizes = batched_cobra_active_sizes(g, trials=6, steps=20, seed=1)
        assert sizes.shape == (6, 21)
        assert (sizes[:, 0] == 1).all()
        assert (sizes >= 1).all() and (sizes <= g.n).all()

    def test_active_sizes_matches_serial_history(self, g):
        from repro.core import CobraWalk

        steps = 60
        batched = batched_cobra_active_sizes(g, trials=24, steps=steps, seed=2)
        serial = []
        for s in range(24):
            w = CobraWalk(g, seed=s, record_history=True)
            for _ in range(steps):
                w.step()
            serial.append(w.history)
        bt, st = batched.mean(axis=0), np.mean(serial, axis=0)
        # saturation plateaus must agree (tolerant distributional check)
        assert abs(bt[-10:].mean() - st[-10:].mean()) < 0.15 * g.n

    def test_walt_positions_shape_and_range(self, g):
        pos = batched_walt_positions_at(g, trials=5, steps=10, seed=3, pebbles=7)
        assert pos.shape == (5, 7)
        assert (pos >= 0).all() and (pos < g.n).all()

    def test_walt_positions_zero_steps_identity(self, g):
        pos = batched_walt_positions_at(g, trials=4, steps=0, start=2, seed=4)
        assert (pos == 2).all()

    def test_walt_positions_validation(self, g):
        with pytest.raises(ValueError, match="steps"):
            batched_walt_positions_at(g, trials=2, steps=-1)
        with pytest.raises(ValueError, match="pebble"):
            batched_walt_positions_at(g, trials=2, steps=1, pebbles=0)


#: the extra keywords the fixed-horizon engines need beyond (graph, trials=)
HORIZON_ARGS = {
    "batched_cobra_active_sizes": {"steps": 1},
    "batched_walt_positions_at": {"steps": 1},
}


def _one_vertex_cases():
    """Every public engine, and each one that takes ``target`` under
    both its cover rule (``None``) and its hit rule (vertex 0)."""
    for name in batch_mod.__all__:
        if "target" in inspect.signature(getattr(batch_mod, name)).parameters:
            for target in (None, 0):
                yield pytest.param(name, {"target": target}, id=f"{name}-target={target}")
        else:
            yield pytest.param(name, HORIZON_ARGS.get(name, {}), id=name)


@pytest.mark.parametrize("name, kwargs", list(_one_vertex_cases()))
def test_one_vertex_graph_is_rejected(name, kwargs):
    """A one-vertex graph has no edge (``Graph`` rejects self-loops), so
    its only vertex is isolated and every engine refuses it up front."""
    with pytest.raises(ValueError):
        getattr(batch_mod, name)(complete_graph(1), trials=2, **kwargs)


COUNTER_TRIALS = 6
COUNTER_HORIZON = 10
#: the coalescing default (a walker on every vertex) covers at t = 0
COUNTER_PARAMS = {"coalescing": {"walkers": 3}}


def _registry_run(name: str, metric: str):
    def run(g):
        return run_batch(
            g,
            name,
            trials=COUNTER_TRIALS,
            metric=metric,
            target=g.n - 1,
            seed=11,
            max_steps=2000,
            strategy="vectorized",
            **COUNTER_PARAMS.get(name, {}),
        ).values

    return run


def _counter_cases():
    cases = [
        pytest.param(_registry_run(spec.name, metric), None, id=f"{spec.name}-{metric}")
        for spec in all_processes()
        for metric in sorted(spec.batch_metrics)
    ]
    for engine in (batched_cobra_active_sizes, batched_walt_positions_at):
        cases.append(
            pytest.param(
                lambda g, e=engine: e(
                    g, trials=COUNTER_TRIALS, steps=COUNTER_HORIZON, seed=11
                ),
                COUNTER_HORIZON,
                id=engine.__name__,
            )
        )
    return cases


@pytest.mark.parametrize("run,horizon", _counter_cases())
def test_every_engine_reports_the_driver_counters(run, horizon):
    """Under a tracer every batched engine flushes the same counters:
    ``engine_steps`` lock-steps (at least the latest finish, or exactly
    the horizon), ``trial_steps`` at most trials × lock-steps, and
    ``rng_draws``."""
    records = []
    tracer = Tracer(clock=lambda: 0.0, sink=records.append, worker="w")
    with tracer.span("engine"), activate(tracer):
        values = np.asarray(run(cycle_graph(9)), dtype=np.float64)
    (record,) = records
    for counter in ("c_engine_steps", "c_trial_steps", "c_rng_draws"):
        assert counter in record, counter
    steps = record["c_engine_steps"]
    assert record["c_trial_steps"] <= COUNTER_TRIALS * steps
    if horizon is None:
        assert steps >= values[np.isfinite(values)].max(initial=0)
    else:
        assert steps == horizon
