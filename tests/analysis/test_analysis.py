"""Tests for scaling fits, stats, and tables."""

import numpy as np
import pytest

from repro.analysis import (
    Table,
    bootstrap_ci,
    fit_constant_to_shape,
    fit_power_law,
    summarize,
)


class TestPowerLawFit:
    def test_recovers_exact_law(self):
        x = np.array([10, 20, 40, 80, 160], dtype=float)
        y = 3.5 * x**1.75
        fit = fit_power_law(x, y)
        assert fit.exponent == pytest.approx(1.75, abs=1e-9)
        assert fit.prefactor == pytest.approx(3.5, rel=1e-9)
        assert fit.r_squared == pytest.approx(1.0)

    def test_noise_robustness(self, rng):
        x = np.geomspace(16, 4096, 9)
        y = 2.0 * x**1.0 * np.exp(rng.normal(0, 0.05, x.size))
        fit = fit_power_law(x, y)
        assert abs(fit.exponent - 1.0) < 0.15
        assert fit.exponent_ci95 < 0.3

    def test_predict(self):
        fit = fit_power_law([1, 2, 4], [2, 4, 8])
        assert fit.predict(np.array([8.0]))[0] == pytest.approx(16.0)

    def test_nan_points_dropped(self):
        fit = fit_power_law([1, 2, 4, 8], [1, 2, np.nan, 8])
        assert fit.npoints == 3
        assert fit.exponent == pytest.approx(1.0)

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            fit_power_law([1], [1])

    def test_log2_slope_for_log_shape(self):
        # fitting log^2 n data as a power law yields a small exponent
        x = np.geomspace(100, 100000, 8)
        y = np.log(x) ** 2
        fit = fit_power_law(x, y)
        assert 0 < fit.exponent < 0.5


class TestShapeFit:
    def test_perfect_shape(self):
        x = [10, 20, 40]
        measured = [5 * v**2 for v in x]
        fit = fit_constant_to_shape(x, measured, lambda v: v**2)
        assert fit.constant == pytest.approx(5.0)
        assert fit.max_rel_dev < 1e-12

    def test_wrong_shape_flags_large_deviation(self):
        x = np.geomspace(10, 10000, 6)
        measured = x**2
        fit = fit_constant_to_shape(x, measured, lambda v: v)
        assert fit.max_rel_dev > 0.9

    def test_no_usable_points(self):
        with pytest.raises(ValueError):
            fit_constant_to_shape([1.0], [np.nan], lambda v: v)


class TestStats:
    def test_summarize_basic(self):
        s = summarize([1, 2, 3, 4, np.nan])
        assert s.n == 4
        assert s.mean == pytest.approx(2.5)
        assert s.failures == 1
        assert s.minimum == 1 and s.maximum == 4

    def test_summarize_empty(self):
        s = summarize([np.nan])
        assert s.n == 0 and np.isnan(s.mean)

    def test_bootstrap_contains_truth(self, rng):
        sample = rng.normal(10, 2, 300)
        lo, hi = bootstrap_ci(sample, np.mean, seed=1)
        assert lo < 10 < hi
        assert hi - lo < 1.5

    def test_bootstrap_validation(self):
        with pytest.raises(ValueError):
            bootstrap_ci([], np.mean)
        with pytest.raises(ValueError):
            bootstrap_ci([1.0], np.mean, level=1.5)


class TestTable:
    def test_render_alignment(self):
        t = Table(["name", "value"], title="demo")
        t.add_row(["alpha", 1.0])
        t.add_row(["b", 123456.0])
        text = t.render()
        assert "demo" in text
        assert "alpha" in text
        assert "1.235e+05" in text

    def test_markdown(self):
        t = Table(["a", "b"])
        t.add_row([1, 2])
        md = t.render_markdown()
        assert "| a | b |" in md
        assert "| 1 | 2 |" in md

    def test_bool_and_nan_formatting(self):
        t = Table(["x"])
        t.add_row([True])
        t.add_row([float("nan")])
        text = t.render()
        assert "yes" in text and "-" in text

    def test_row_length_mismatch(self):
        t = Table(["a", "b"])
        with pytest.raises(ValueError):
            t.add_row([1])

    def test_empty_headers_rejected(self):
        with pytest.raises(ValueError):
            Table([])
