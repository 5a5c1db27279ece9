"""Conformance tests for the unified process API.

Three pillars:

* every registered :class:`ProcessSpec` yields a stepping process
  satisfying :class:`repro.sim.engine.SteppingProcess`;
* ``simulate()`` reproduces the process classes' own runners
  seed-for-seed for every registered process;
* ``run_batch``'s serial strategy is bit-exact with per-trial class
  runs over spawned seeds, and its vectorized strategy matches serial
  distributionally.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import repro

from repro.core import CobraWalk, simulate_biased_hit, walt_cover_time
from repro.sim import (
    ProcessSpec,
    RunResult,
    SteppingProcess,
    batched_cobra_cover_trials,
    get_default_processes,
    get_process,
    process_names,
    register_process,
    run_batch,
    set_default_processes,
    simulate,
)
from repro.sim.facade import select_execution_path
from repro.sim.rng import resolve_rng, spawn_seeds
from repro.graphs import cycle_graph, grid, kary_tree, star_graph
from repro.walks import (
    BranchingWalk,
    CoalescingWalks,
    GossipSpread,
    ParallelWalks,
    RandomWalk,
    coalescing_start_positions,
)

#: generous budget for the class-level reference runs
BUDGET = 10**6


@pytest.fixture(scope="module")
def g():
    return grid(10, 2)


class TestRegistry:
    def test_at_least_eight_processes(self):
        assert len(process_names()) >= 8

    def test_expected_names_present(self):
        names = set(process_names())
        assert {
            "cobra",
            "walt",
            "simple",
            "lazy",
            "parallel",
            "branching",
            "coalescing",
            "push",
            "pull",
            "push_pull",
            "biased",
        } <= names

    def test_get_unknown_lists_known(self):
        with pytest.raises(KeyError, match="cobra"):
            get_process("nope")

    def test_duplicate_rejected(self):
        spec = get_process("cobra")
        with pytest.raises(ValueError, match="duplicate"):
            register_process(spec)

    def test_bad_capability_rejected(self):
        with pytest.raises(ValueError, match="capabilities"):
            ProcessSpec(
                name="x",
                factory=lambda graph, **kw: None,
                capabilities=frozenset({"cover", "teleport"}),
                default_metric="cover",
                default_budget=lambda graph, p: 10,
            )

    def test_default_metric_must_be_declared(self):
        with pytest.raises(ValueError, match="default metric"):
            ProcessSpec(
                name="x",
                factory=lambda graph, **kw: None,
                capabilities=frozenset({"cover"}),
                default_metric="hit",
                default_budget=lambda graph, p: 10,
            )

    def test_first_lookups_from_many_threads_see_the_full_registry(self):
        # a fresh interpreter, so the built-ins are not loaded yet: every
        # thread's expand() races to be the first registry lookup
        script = textwrap.dedent("""
            import sys
            import threading
            from repro.store.spec import SweepSpec

            sys.setswitchinterval(1e-5)
            barrier = threading.Barrier(8)
            errors = []

            def expand():
                barrier.wait()
                try:
                    SweepSpec(name="race", process="cobra", graph="grid",
                              graph_grid={"n": [4], "d": [2]}, trials=2).expand()
                except Exception as exc:
                    errors.append(repr(exc))

            threads = [threading.Thread(target=expand) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
            print(errors)
        """)
        src = str(Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src, os.environ.get("PYTHONPATH", "")]))
        done = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "[]"


class TestConformance:
    """Every registered spec yields a SteppingProcess."""

    @pytest.mark.parametrize("name", sorted(
        ["cobra", "walt", "simple", "lazy", "parallel", "branching",
         "coalescing", "push", "pull", "push_pull", "biased"]
    ))
    def test_factory_yields_stepping_process(self, g, name):
        spec = get_process(name)
        proc = spec.factory(g, start=0, seed=np.random.SeedSequence(1), target=g.n - 1)
        assert isinstance(proc, SteppingProcess)
        assert proc.t == 0
        proc.step()
        assert proc.t == 1

    @pytest.mark.parametrize("name", sorted(
        ["cobra", "walt", "simple", "lazy", "parallel", "branching",
         "coalescing", "push", "pull", "push_pull", "biased"]
    ))
    def test_simulate_returns_runresult(self, g, name):
        res = simulate(g, name, seed=5, target=g.n - 1, max_steps=50)
        assert isinstance(res, RunResult)
        assert res.process == name
        assert res.steps <= 50


def _steps_to_cover(proc) -> int | None:
    """Step a process class to coverage; its step count when covered."""
    while not proc.all_covered and proc.t < BUDGET:
        proc.step()
    return proc.t if proc.all_covered else None


def _coalescence_steps(graph, seed) -> int | None:
    """Default walker placement, then step until one walker is left."""
    rng = resolve_rng(seed)
    positions = coalescing_start_positions(graph, None, rng)
    res = CoalescingWalks(graph, positions, seed=rng).run_until_coalesced(BUDGET)
    return res.steps if res.coalesced else None


# (process, params, metric, class-level runner returning the scalar to match)
PARITY_CASES = [
    ("simple", {}, "cover", lambda g, s: RandomWalk(g, seed=s).run_until_cover(BUDGET)),
    ("lazy", {}, "cover",
     lambda g, s: RandomWalk(g, lazy=True, seed=s).run_until_cover(BUDGET)),
    ("walt", {}, "cover", lambda g, s: walt_cover_time(g, seed=s).cover_time),
    ("walt", {"delta": 0.25, "lazy": False}, "cover",
     lambda g, s: walt_cover_time(g, seed=s, delta=0.25, lazy=False).cover_time),
    ("parallel", {"walkers": 3}, "cover",
     lambda g, s: _steps_to_cover(ParallelWalks(g, walkers=3, seed=s))),
    ("branching", {}, "cover",
     lambda g, s: BranchingWalk(g, seed=s).run_until_cover(BUDGET).cover_time),
    ("push", {}, "spread",
     lambda g, s: _steps_to_cover(GossipSpread(g, push=True, pull=False, seed=s))),
    ("pull", {}, "spread",
     lambda g, s: _steps_to_cover(GossipSpread(g, push=False, pull=True, seed=s))),
    ("push_pull", {}, "spread",
     lambda g, s: _steps_to_cover(GossipSpread(g, push=True, pull=True, seed=s))),
]


class TestSeedForSeedParity:
    @pytest.mark.parametrize(
        "name,params,metric,legacy",
        PARITY_CASES,
        ids=[f"{c[0]}-{c[2]}-{i}" for i, c in enumerate(PARITY_CASES)],
    )
    def test_simulate_matches_legacy(self, g, name, params, metric, legacy):
        for seed in (0, 7, 123):
            res = simulate(g, name, metric=metric, seed=seed, **params)
            assert res.value == legacy(g, seed)

    def test_cobra_matches_class_runner(self, g):
        for seed in (0, 7, 123):
            res = simulate(g, "cobra", seed=seed)
            ref = CobraWalk(g, k=2, start=0, seed=seed).run_until_cover(BUDGET)
            assert res.cover_time == ref.cover_time
            assert np.array_equal(res.first_activation, ref.first_activation)

    def test_cobra_hit_matches_class_runner(self, g):
        target = g.n - 1
        for seed in (1, 9):
            res = simulate(g, "cobra", metric="hit", target=target, seed=seed)
            ref = CobraWalk(g, k=2, start=0, seed=seed).run_until_hit(target, BUDGET)
            assert res.extras["hit_time"] == ref

    def test_coalescing_matches_legacy(self):
        # odd cycle: even cycles are bipartite and never fully coalesce
        c = cycle_graph(13)
        for seed in (3, 11):
            res = simulate(c, "coalescing", metric="coalesce", seed=seed)
            ref = _coalescence_steps(c, seed)
            assert ref is not None
            assert res.extras["coalescence_time"] == ref

    def test_biased_hit_matches_legacy(self, g):
        target = g.n - 1
        for seed in (2, 13):
            res = simulate(g, "biased", metric="hit", target=target, seed=seed)
            assert res.extras["hit_time"] == simulate_biased_hit(g, target, seed=seed)


class TestSelectExecutionPath:
    def test_default_args_unchanged(self):
        spec = get_process("cobra")
        assert select_execution_path(spec, "cover") == "vectorized"
        assert select_execution_path(spec, "cover", shards=3) == "sharded"
        assert select_execution_path(spec, "cover", processes=4) == "pool"
        assert select_execution_path(spec, "cover", strategy="serial") == "serial"


class TestRunBatch:
    def test_serial_matches_per_trial_class_runs(self, g):
        s = run_batch(g, "cobra", trials=6, seed=42, strategy="serial")
        ref = [
            CobraWalk(g, k=2, start=0, seed=sd).run_until_cover(10**6).cover_time
            for sd in spawn_seeds(42, 6)
        ]
        assert np.array_equal(s.values, np.array(ref, dtype=np.float64))

    def test_pool_matches_serial(self, g):
        ser = run_batch(g, "walt", trials=4, seed=5, strategy="serial")
        par = run_batch(g, "walt", trials=4, seed=5, strategy="serial", processes=2)
        assert np.array_equal(ser.values, par.values)

    def test_vectorized_matches_serial_distributionally(self):
        gg = grid(8, 2)
        vec = run_batch(gg, "cobra", trials=64, seed=17, strategy="vectorized")
        ser = run_batch(gg, "cobra", trials=64, seed=17, strategy="serial")
        assert vec.failures == 0 and ser.failures == 0
        assert abs(vec.mean - ser.mean) < 0.25 * ser.mean

    def test_simple_vectorized_engine(self):
        c = cycle_graph(20)
        s = run_batch(c, "simple", trials=8, seed=3)
        assert s.trials == 8 and np.isfinite(s.mean)

    def test_auto_without_engine_is_serial(self, g):
        # the biased walk is the one process without a batched engine,
        # so auto falls back to the seed-spawned serial loop
        # (lazy/branching/coalescing now vectorize too)
        t = g.n - 1
        s = run_batch(g, "biased", trials=3, seed=1, target=t)
        ref = [
            simulate(g, "biased", target=t, seed=sd).value for sd in spawn_seeds(1, 3)
        ]
        assert np.array_equal(s.values, np.array(ref, dtype=np.float64))

    def test_vectorized_unavailable_raises(self, g):
        with pytest.raises(ValueError, match="no vectorized engine"):
            run_batch(g, "biased", trials=2, target=1, strategy="vectorized")
        # gossip closed its hit gap in PR 10; parallel and branching
        # are the remaining hit-less batch family
        with pytest.raises(ValueError, match="no vectorized engine"):
            run_batch(g, "parallel", trials=2, metric="hit", target=1,
                      strategy="vectorized")

    def test_bad_strategy(self, g):
        with pytest.raises(ValueError, match="strategy"):
            run_batch(g, "cobra", trials=2, strategy="warp")

    def test_needs_trials(self, g):
        with pytest.raises(ValueError, match="trial"):
            run_batch(g, "cobra", trials=0)

    def test_unregistered_spec_runs_serially(self, g):
        spec = get_process("cobra")
        anon = ProcessSpec(
            name="anon-cobra",
            factory=spec.factory,
            capabilities=spec.capabilities,
            default_metric=spec.default_metric,
            default_budget=spec.default_budget,
        )
        s = run_batch(g, anon, trials=3, seed=8, strategy="serial")
        ref = run_batch(g, "cobra", trials=3, seed=8, strategy="serial")
        assert np.array_equal(s.values, ref.values)

    def test_default_processes_roundtrip(self):
        assert get_default_processes() is None
        set_default_processes(2)
        try:
            assert get_default_processes() == 2
        finally:
            set_default_processes(None)
        with pytest.raises(ValueError):
            set_default_processes(0)


class TestBatchedEngine:
    def test_multi_source(self):
        c = cycle_graph(40)
        times = batched_cobra_cover_trials(
            c, trials=8, start=np.array([0, 20]), seed=2, max_steps=10**5
        )
        single = batched_cobra_cover_trials(c, trials=8, start=0, seed=2, max_steps=10**5)
        assert np.nanmean(times) < np.nanmean(single)

    def test_k_one_matches_simple_walk_scale(self):
        c = cycle_graph(16)
        k1 = batched_cobra_cover_trials(c, trials=16, k=1, seed=4, max_steps=10**6)
        assert np.isfinite(k1).all()

    def test_full_start_covers_at_zero(self):
        c = cycle_graph(12)
        t = batched_cobra_cover_trials(
            c, trials=3, start=np.arange(12), seed=0, max_steps=10
        )
        assert np.array_equal(t, np.zeros(3))

    def test_budget_exhaustion_nan(self):
        c = cycle_graph(200)
        t = batched_cobra_cover_trials(c, trials=4, seed=0, max_steps=3)
        assert np.isnan(t).all()

    def test_validation(self):
        c = cycle_graph(10)
        with pytest.raises(ValueError):
            batched_cobra_cover_trials(c, trials=0)
        with pytest.raises(ValueError):
            batched_cobra_cover_trials(c, trials=2, k=0)
        with pytest.raises(ValueError):
            batched_cobra_cover_trials(c, trials=2, start=99)

    @pytest.mark.parametrize(
        "make",
        [
            lambda: grid(8, 2),
            lambda: star_graph(40),          # hub degree 39: float64 pair path
            lambda: kary_tree(3, 3),
            lambda: cycle_graph(30),
        ],
        ids=["grid", "star", "tree", "cycle"],
    )
    def test_distribution_matches_serial(self, make):
        gg = make()
        vec = batched_cobra_cover_trials(gg, trials=48, seed=11, max_steps=10**6)
        ser = run_batch(gg, "cobra", trials=48, seed=11, strategy="serial").values
        assert np.isnan(vec).sum() == 0 and np.isnan(ser).sum() == 0
        assert abs(np.mean(vec) - np.mean(ser)) < 0.3 * np.mean(ser) + 2.0


class TestSimulateSemantics:
    def test_unknown_metric(self, g):
        with pytest.raises(ValueError, match="does not support"):
            simulate(g, "simple", metric="coalesce")

    def test_hit_requires_target(self, g):
        with pytest.raises(ValueError, match="target"):
            simulate(g, "cobra", metric="hit")

    def test_hit_target_range(self, g):
        with pytest.raises(ValueError, match="target"):
            simulate(g, "cobra", metric="hit", target=g.n)

    def test_budget_exhaustion(self, g):
        res = simulate(g, "simple", seed=0, max_steps=5)
        assert not res.covered and res.cover_time is None and np.isnan(res.value)

    def test_spread_counts_as_cover(self, g):
        res = simulate(g, "push", metric="cover", seed=1)
        assert res.covered and res.cover_time == res.first_activation.max()

    def test_coalesce_extras(self):
        c = cycle_graph(9)
        res = simulate(c, "coalescing", seed=6)
        assert res.extras["coalesced"]
        assert res.extras["walkers_left"] == 1
        assert res.extras["coalescence_time"] == res.steps

    def test_branching_extras(self, g):
        res = simulate(g, "branching", seed=2)
        assert res.extras["population"] >= 1
        assert "hit_cap" in res.extras

    def test_multi_source_cobra(self):
        c = cycle_graph(30)
        res = simulate(c, "coalescing", metric="cover", seed=1,
                       start=np.arange(30))
        assert res.covered and res.cover_time == 0

    def test_coalescing_rejects_scalar_start(self):
        c = cycle_graph(9)
        with pytest.raises(ValueError, match="walker positions"):
            simulate(c, "coalescing", seed=1, start=7)
        # the facade default (0) keeps the default walker placement
        res = simulate(c, "coalescing", seed=1)
        assert res.extras["coalescence_time"] == _coalescence_steps(c, seed=1)
