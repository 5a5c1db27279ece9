"""Tests for closed-form bounds, estimators, Matthews, and coupling."""

import numpy as np
import pytest

from repro.core import (
    cor9_expander_cover,
    harmonic_number,
    matthews_check,
    matthews_cover_bound,
    max_hitting_time_estimate,
    pair_hitting_matrix,
    push_gossip_cover,
    rw_worst_case_cover,
    star_cobra_lower_bound,
    stochastic_dominance_fraction,
    thm3_grid_cover,
    thm8_conductance_cover,
    thm15_regular_hitting,
    thm20_general_cover,
    thm20_general_hitting,
    walt_dominates_cobra_report,
)
from repro.graphs import complete_graph, cycle_graph, grid, hypercube
from repro.sim import run_batch


class TestBoundFormulas:
    def test_harmonic(self):
        assert harmonic_number(1) == 1.0
        assert harmonic_number(4) == pytest.approx(1 + 0.5 + 1 / 3 + 0.25)
        # asymptotic branch agrees with exact at the crossover scale
        assert harmonic_number(2_000_000) == pytest.approx(
            np.log(2_000_000) + 0.5772156649, rel=1e-6
        )

    def test_matthews_formula(self):
        assert matthews_cover_bound(10.0, 4) == pytest.approx(10 * harmonic_number(4))

    def test_thm15_reduces_toward_n2(self):
        # as delta grows the bound approaches the generic n^2
        n = 100
        assert thm15_regular_hitting(n, 2) == pytest.approx(n**1.5)
        assert thm15_regular_hitting(n, 100) < n**2
        assert thm15_regular_hitting(n, 100) > n**1.9

    def test_thm20_values(self):
        assert thm20_general_hitting(16) == pytest.approx(16**2.75)
        assert thm20_general_cover(16) == pytest.approx(16**2.75 * np.log(16))

    def test_ordering_of_worst_cases(self):
        # the paper's point: n^{11/4} log n grows strictly slower than
        # n^3 — the ratio must fall monotonically toward zero (the
        # unit-constant crossover sits at astronomically large n, so a
        # pointwise comparison at small n would be meaningless)
        ratios = [
            thm20_general_cover(n) / rw_worst_case_cover(n)
            for n in (10**6, 10**9, 10**12, 10**15)
        ]
        assert ratios == sorted(ratios, reverse=True)
        assert ratios[-1] < ratios[0] / 50

    def test_star_lower_bound_vs_push(self):
        # both are Theta(n log n); our constants keep lower < upper
        assert star_cobra_lower_bound(1000) < push_gossip_cover(1000)

    def test_monotonicity(self):
        assert thm8_conductance_cover(100, 3, 0.1) > thm8_conductance_cover(100, 3, 0.2)
        assert cor9_expander_cover(10_000) > cor9_expander_cover(100)

    def test_validation(self):
        with pytest.raises(ValueError):
            thm8_conductance_cover(10, 3, 0.0)
        with pytest.raises(ValueError):
            thm15_regular_hitting(10, 1)
        with pytest.raises(ValueError):
            thm3_grid_cover(0, 2)
        with pytest.raises(ValueError):
            harmonic_number(0)


class TestTrialEstimators:
    def test_cover_trials_shape_and_determinism(self, small_hypercube):
        a = run_batch(small_hypercube, "cobra", trials=5, seed=1, strategy="serial").values
        b = run_batch(small_hypercube, "cobra", trials=5, seed=1, strategy="serial").values
        assert a.shape == (5,)
        assert np.array_equal(a, b)
        assert not np.isnan(a).any()

    def test_hitting_trials(self, small_cycle):
        t = run_batch(
            small_cycle, "cobra", metric="hit", target=6, trials=8, seed=2,
            strategy="serial",
        ).values
        assert (t >= 6).all()  # distance lower bound

    def test_budget_marks_nan(self):
        from repro.graphs import path_graph

        t = run_batch(
            path_graph(50), "cobra", trials=3, seed=3, max_steps=2, strategy="serial"
        ).values
        assert np.isnan(t).all()

    def test_trials_validation(self, small_cycle):
        with pytest.raises(ValueError):
            run_batch(small_cycle, "cobra", trials=0, strategy="serial")

    def test_hmax_at_least_antipodal_hit(self):
        g = cycle_graph(16)
        hmax = max_hitting_time_estimate(g, trials=3, seed=4)
        assert hmax >= 8  # antipodal distance

    def test_hmax_counts_budget_exhausted_pairs(self, recwarn):
        """Regression: pairs whose every trial exhausts the budget used
        to be silently dropped (np.nanmean -> nan, nan > hmax False),
        underestimating h_max exactly where hitting is hardest.  They
        must now clamp to the budget and warn once."""
        g = cycle_graph(30)
        with pytest.warns(RuntimeWarning, match="exhausted"):
            hmax = max_hitting_time_estimate(
                g, trials=3, pairs=6, seed=4, max_steps=2
            )
        # every sampled pair at distance > 2 fails; the old code returned
        # ~0 (or only short-distance means), the fix reports the budget
        assert hmax == 2.0
        # and no numpy all-NaN RuntimeWarning leaks through
        assert not any(
            "All-NaN" in str(w.message) for w in recwarn.list
        )

    def test_hmax_clamps_partially_exhausted_pairs(self):
        """A pair where only SOME trials exhaust the budget must also be
        censored: each failed trial counts as (at least) the budget, so
        the pair mean cannot be dragged down by its lucky fast trials."""
        g = cycle_graph(20)
        budget = 12  # > distance 10, small enough that some trials miss
        with pytest.warns(RuntimeWarning, match="exhausted"):
            hmax = max_hitting_time_estimate(
                g, trials=4, pairs=8, seed=11, max_steps=budget
            )
        # clamped trials keep every pair mean within [distance, budget]
        assert hmax <= budget
        # and the maximum must reflect the censoring floor, not a
        # fast-trials-only mean below the hardest pair's distance
        assert hmax >= 10 * 0.5

    def test_hmax_no_warning_when_all_pairs_succeed(self):
        import warnings

        g = cycle_graph(10)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            hmax = max_hitting_time_estimate(g, trials=3, pairs=5, seed=4)
        assert hmax >= 1.0

    def test_pair_matrix_small(self):
        g = cycle_graph(8)
        m = pair_hitting_matrix(g, trials=2, seed=5)
        assert m.shape == (8, 8)
        assert (np.diag(m) == 0).all()
        assert m[0, 4] >= 4

    def test_pair_matrix_guard(self):
        with pytest.raises(ValueError):
            pair_hitting_matrix(cycle_graph(100))

    def test_pair_matrix_exhausted_entries_nan_without_warning(self):
        import warnings

        g = cycle_graph(12)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # any RuntimeWarning -> failure
            m = pair_hitting_matrix(g, trials=2, seed=5, max_steps=1)
        # only direct neighbors can be hit in one step
        assert np.isnan(m[0, 6])
        assert np.isfinite(m[0, 1])


class TestMatthews:
    def test_check_on_hypercube(self):
        chk = matthews_check(hypercube(5), cover_trials=6, hit_trials=3, pairs=20, seed=6)
        assert chk.satisfied
        assert chk.hmax > 0
        assert chk.ratio <= harmonic_number(32) + 1e-9

    def test_ratio_definition(self):
        chk = matthews_check(cycle_graph(10), cover_trials=4, hit_trials=3, pairs=10, seed=7)
        assert chk.ratio == pytest.approx(chk.cover_mean / chk.hmax)


class TestDominance:
    def test_fraction_on_shifted_samples(self, rng):
        a = rng.normal(10, 1, 400)
        b = rng.normal(14, 1, 400)
        assert stochastic_dominance_fraction(a, b) == 1.0
        assert stochastic_dominance_fraction(b, a) < 0.3

    def test_fraction_identical_samples(self, rng):
        a = rng.normal(0, 1, 300)
        assert stochastic_dominance_fraction(a, a) == 1.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            stochastic_dominance_fraction(np.array([]), np.array([1.0]))

    def test_walt_dominates_cobra_lemma10(self):
        report = walt_dominates_cobra_report(
            complete_graph(30), trials=25, seed=8
        )
        assert report.consistent_with_lemma10
        assert report.walt_mean >= report.cobra_mean

    def test_walt_dominates_on_grid(self):
        report = walt_dominates_cobra_report(grid(5, 2), trials=15, seed=9)
        assert report.consistent_with_lemma10
