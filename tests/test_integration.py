"""Cross-module integration tests: the paper's pipelines end to end."""

import numpy as np
import pytest

from repro.analysis import fit_power_law, summarize
from repro.core import thm8_conductance_cover
from repro.graphs import (
    chung_lu_powerlaw,
    grid,
    hypercube,
    largest_component,
    random_geometric,
    random_regular,
)
from repro.sim import coverage_curve, run_batch, simulate
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
            lambda: largest_component(chung_lu_powerlaw(200, 2.5, seed=3)),
            lambda: largest_component(random_geometric(150, 0.15, seed=4)),
        ],
        ids=["chung-lu", "rgg"],
    )
    def test_cover_completes(self, make):
        g = make()
        res = simulate(g, "cobra", seed=11, max_steps=500 * g.n)
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
                    [simulate(g, "walt", seed=s).cover_time for s in range(seed, seed + 10)]
                )
            )
            assert walt >= cobra * 0.9


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
