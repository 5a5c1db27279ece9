"""Cross-module integration tests: the paper's pipelines end to end."""

import numpy as np
import pytest

from repro.analysis import fit_power_law, summarize
from repro.core import (
    CobraWalk,
    thm8_conductance_cover,
    walt_cover_time,
)
from repro.graphs import (
    barabasi_albert,
    chordal_cycle,
    chung_lu_powerlaw,
    erdos_renyi,
    grid,
    hypercube,
    largest_component,
    margulis,
    random_geometric,
    random_regular,
    random_tree,
    watts_strogatz,
)
from repro.sim import coverage_curve, run_batch, run_trials
from repro.spectral import conductance_estimate, theorem8_epoch_length


class TestTheorem8Pipeline:
    """Conductance estimate -> bound -> measured cover, end to end."""

    @pytest.mark.parametrize(
        "make",
        [
            lambda: hypercube(6),
            lambda: random_regular(128, 4, seed=5),
        ],
    )
    def test_cover_within_theorem8_budget(self, make):
        g = make()
        est = conductance_estimate(g)
        d = int(g.degrees[0])
        budget = thm8_conductance_cover(g.n, d, est.lower)
        times = run_batch(g, "cobra", trials=5, seed=9, strategy="serial").values
        assert np.nanmax(times) <= budget  # the d^4 constant gives huge room

    def test_epoch_length_consistent_with_estimate(self):
        g = hypercube(5)
        est = conductance_estimate(g)
        s = theorem8_epoch_length(g.n, 5, est.estimate)
        assert s > 0
        # more conductance -> shorter epochs
        assert theorem8_epoch_length(g.n, 5, est.estimate * 2) < s


class TestEveryFamilySupportsCobra:
    """Every generator yields a graph the cobra walk covers."""

    @pytest.mark.parametrize(
        "make",
        [
            lambda: largest_component(erdos_renyi(150, 0.05, seed=1)),
            lambda: barabasi_albert(150, 2, seed=2),
            lambda: largest_component(chung_lu_powerlaw(200, 2.5, seed=3)),
            lambda: largest_component(random_geometric(150, 0.15, seed=4)),
            lambda: watts_strogatz(120, 2, 0.2, seed=5),
            lambda: chordal_cycle(101),
            lambda: margulis(7),
            lambda: random_tree(100, seed=6),
        ],
        ids=["gnp", "ba", "chung-lu", "rgg", "ws", "chordal", "margulis", "rtree"],
    )
    def test_cover_completes(self, make):
        g = make()
        walk = CobraWalk(g, seed=11)
        res = walk.run_until_cover(max_steps=500 * g.n)
        assert res.covered
        curve = coverage_curve(res.first_activation)
        assert curve.counts[-1] == g.n
        assert curve.time_to_fraction(1.0) == res.cover_time


class TestWaltAgainstCobraAcrossFamilies:
    def test_walt_never_faster_on_average(self):
        for make, seed in [
            (lambda: hypercube(5), 21),
            (lambda: grid(5, 2), 22),
        ]:
            g = make()
            cobra = run_batch(g, "cobra", trials=10, seed=seed, strategy="serial").mean
            walt = float(
                np.nanmean(
                    [walt_cover_time(g, seed=s).cover_time for s in range(seed, seed + 10)]
                )
            )
            assert walt >= cobra * 0.9


def _cover_trial(seed, n):
    """Module-level for multiprocessing pickling."""
    from repro.graphs import grid as make_grid
    from repro.sim import simulate

    return simulate(make_grid(n, 2), "cobra", seed=seed).value


class TestMonteCarloHarnessWithRealProcess:
    def test_parallel_trials_reproduce_serial(self):
        ser = run_trials(_cover_trial, 6, seed=31, args=(10,))
        par = run_trials(_cover_trial, 6, seed=31, args=(10,), processes=2)
        assert np.array_equal(ser.values, par.values)
        assert ser.failures == 0


class TestScalingPipeline:
    def test_grid_sweep_fits_linear(self):
        ns = [8, 16, 32, 64]
        means = []
        for n in ns:
            t = run_batch(grid(n, 1), "cobra", trials=6, seed=n, strategy="serial").values
            means.append(summarize(t).mean)
        fit = fit_power_law(ns, means)
        assert abs(fit.exponent - 1.0) < 0.2
        assert fit.r_squared > 0.98
