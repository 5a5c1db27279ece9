"""Tests for the simulation harness (rng, montecarlo, record)."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.graphs import grid
from repro.sim import (
    coverage_curve,
    resolve_rng,
    resolve_seed_sequence,
    run_batch,
    simulate,
    spawn_rngs,
    spawn_seeds,
    summarize_trials,
    time_to_cover_fraction,
)


class TestRng:
    def test_resolve_int(self):
        a = resolve_rng(7).random(3)
        b = resolve_rng(7).random(3)
        assert np.array_equal(a, b)

    def test_resolve_generator_passthrough(self):
        g = np.random.default_rng(0)
        assert resolve_rng(g) is g

    def test_resolve_seed_sequence(self):
        ss = np.random.SeedSequence(5)
        assert resolve_seed_sequence(ss) is ss
        assert resolve_seed_sequence(5).entropy == 5

    def test_generator_rejected_as_seed_sequence(self):
        with pytest.raises(TypeError):
            resolve_seed_sequence(np.random.default_rng(0))

    def test_spawn_independence(self):
        a, b = spawn_rngs(3, 2)
        x, y = a.random(1000), b.random(1000)
        assert abs(np.corrcoef(x, y)[0, 1]) < 0.1

    def test_spawn_deterministic(self):
        s1 = [np.random.default_rng(s).random() for s in spawn_seeds(9, 4)]
        s2 = [np.random.default_rng(s).random() for s in spawn_seeds(9, 4)]
        assert s1 == s2

    def test_spawn_negative(self):
        with pytest.raises(ValueError):
            spawn_seeds(0, -1)


class TestMonteCarlo:
    def test_serial_deterministic(self):
        g = grid(6, 2)
        a = run_batch(g, "cobra", trials=10, seed=1, strategy="serial")
        b = run_batch(g, "cobra", trials=10, seed=1, strategy="serial")
        assert np.array_equal(a.values, b.values)

    def test_summary_fields(self):
        s = summarize_trials(np.array([1.0, 2.0, 3.0, np.nan]))
        assert s.mean == pytest.approx(2.0)
        assert s.failures == 1
        assert s.trials == 4
        assert s.median == pytest.approx(2.0)

    def test_all_nan_summary(self):
        s = summarize_trials(np.array([np.nan, np.nan]))
        assert np.isnan(s.mean) and s.failures == 2

    def test_single_trial_has_nan_spread(self):
        """Regression: one successful trial used to report std=0.0 and a
        zero-width CI, presenting a point estimate as certainty."""
        s = summarize_trials(np.array([7.0]))
        assert s.mean == 7.0 and s.median == 7.0 and s.n == 1
        assert np.isnan(s.std) and np.isnan(s.ci95_half_width)

    def test_single_success_among_failures_has_nan_spread(self):
        s = summarize_trials(np.array([np.nan, 5.0, np.nan]))
        assert s.mean == 5.0 and s.failures == 2
        assert np.isnan(s.std) and np.isnan(s.ci95_half_width)

    def test_validation(self):
        with pytest.raises(ValueError):
            run_batch(grid(4, 2), "cobra", trials=0, strategy="serial")


class TestUnifiedSummary:
    """One TrialSummary type across sim and analysis (satellite)."""

    def test_analysis_summarize_is_trial_summary(self):
        from repro.analysis import summarize
        from repro.sim import TrialSummary

        s = summarize([1.0, 2.0, 3.0, np.nan])
        assert isinstance(s, TrialSummary)
        assert s.n == 3 and s.failures == 1

    def test_quantile_fields(self):
        s = summarize_trials(np.array([1.0, 2.0, 3.0, 4.0]))
        assert s.minimum == 1.0 and s.maximum == 4.0
        assert s.q25 == pytest.approx(1.75) and s.q75 == pytest.approx(3.25)

    def test_all_nan_quantiles(self):
        s = summarize_trials(np.array([np.nan]))
        assert np.isnan(s.q25) and np.isnan(s.minimum) and s.n == 0


#: trial outcomes: arbitrary doubles, small integer-valued floats (ties)
#: and the special values — NaN (a failed trial), ±inf and ±0.0
_TRIAL_VALUES = st.lists(
    st.one_of(
        st.floats(allow_nan=True, allow_infinity=True),
        st.integers(-5, 5).map(float),
        st.sampled_from([np.nan, np.inf, -np.inf, 0.0, -0.0]),
    ),
    max_size=80,
)


def _same(a: float, b: float) -> bool:
    """Equal as floats (so ``0.0 == -0.0``), with NaN equal to NaN."""
    return a == b or (math.isnan(a) and math.isnan(b))


@settings(max_examples=400, deadline=None)
@given(values=_TRIAL_VALUES)
@example(values=[])
@example(values=[7.0])
@example(values=[np.nan, np.nan, np.nan])
@example(values=[np.inf])
@example(values=[-np.inf, np.inf])
@example(values=[1e308, 1e308])
def test_summary_matches_the_numpy_reference(values):
    """Every field equals numpy's own reduction of the successful values:
    the one-sort median and quartiles follow numpy's formulas exactly."""
    array = np.array(values, dtype=np.float64)
    ok = array[~np.isnan(array)]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        s = summarize_trials(array)
        if ok.size:
            reference = {
                "median": np.median(ok),
                "q25": np.quantile(ok, 0.25),
                "q75": np.quantile(ok, 0.75),
                "minimum": ok.min(),
                "maximum": ok.max(),
                "mean": ok.mean(),
                "std": ok.std(ddof=1) if ok.size > 1 else np.nan,
            }
        else:
            reference = dict.fromkeys(
                ("median", "q25", "q75", "minimum", "maximum", "mean", "std"),
                np.nan,
            )
    assert s.failures == array.size - ok.size and s.n == ok.size
    for field, want in reference.items():
        got = getattr(s, field)
        assert isinstance(got, float), (field, type(got))
        assert _same(got, float(want)), (field, got, want)


class TestCoverageRecord:
    def test_curve_from_first_activation(self):
        fa = np.array([0, 2, 1, 2, -1])
        curve = coverage_curve(fa)
        assert curve.counts.tolist() == [1, 2, 4]
        assert curve.n == 5
        assert curve.fractions[-1] == pytest.approx(0.8)

    def test_time_to_fraction(self):
        fa = np.array([0, 1, 2, 3])
        assert time_to_cover_fraction(fa, 0.5) == 1
        assert time_to_cover_fraction(fa, 1.0) == 3

    def test_unreachable_fraction(self):
        fa = np.array([0, -1, -1, -1])
        assert time_to_cover_fraction(fa, 0.9) is None

    def test_fraction_validation(self):
        with pytest.raises(ValueError):
            time_to_cover_fraction(np.array([0, 1]), 0.0)

    def test_real_run_consistency(self):
        g = grid(5, 2)
        res = simulate(g, "cobra", seed=9, max_steps=100_000)
        curve = coverage_curve(res.first_activation)
        assert curve.counts[-1] == g.n
        assert curve.time_to_fraction(1.0) == res.cover_time
