"""Integration tests: every experiment runs at quick scale and its
findings are consistent with the paper claim it reproduces.

These are the machine-checkable versions of EXPERIMENTS.md: each test
asserts the *shape* facts (exponents, bound satisfaction, orderings),
with slack for Monte-Carlo noise at quick scale.
"""

import pytest

from repro.experiments import all_experiments, get

# one shared seed: the quick runs are deterministic given (id, seed)
SEED = 2016


@pytest.fixture(scope="module")
def results():
    cache = {}

    def runner(exp_id):
        if exp_id not in cache:
            cache[exp_id] = get(exp_id).run(scale="quick", seed=SEED)
        return cache[exp_id]

    return runner


class TestT3Grid:
    def test_linear_exponent_d1(self, results):
        f = results("T3_grid").findings
        assert abs(f["cobra_exponent_d1"] - 1.0) < 0.15

    def test_linear_exponent_d2(self, results):
        f = results("T3_grid").findings
        assert abs(f["cobra_exponent_d2"] - 1.0) < 0.35

    def test_far_below_quadratic(self, results):
        f = results("T3_grid").findings
        for d in (1, 2, 3):
            assert f[f"cobra_exponent_d{d}"] < 1.5


class TestT8Conductance:
    def test_bound_holds_everywhere(self, results):
        f = results("T8_conductance").findings
        # measured cover never exceeds the Φ^-2 log^2 n shape even with
        # constant 1 (the paper's d^4 headroom is untouched)
        for fam in ("hypercube", "torus2d", "cycle", "random_4reg"):
            assert f[f"{fam}_bound_ratio_max"] < 1.0

    def test_constant_family_has_stable_shape(self, results):
        f = results("T8_conductance").findings
        assert f["random_4reg_max_rel_dev"] < 0.5


class TestC9Expander:
    def test_subpolynomial(self, results):
        f = results("C9_expander").findings
        assert f["cobra_power_exponent"] < 0.4

    def test_log2_shape_stable(self, results):
        f = results("C9_expander").findings
        assert f["log2_shape_max_rel_dev"] < 0.8


class TestL10Walt:
    def test_dominance(self, results):
        f = results("L10_walt").findings
        assert f["min_dominance_fraction"] >= 0.9


class TestL11Tensor:
    def test_collision_bounds(self, results):
        f = results("L11_tensor").findings
        assert f["all_collision_bounds_hold"] == 1.0

    def test_exact_cheeger_dominates_paper_bound(self, results):
        f = results("L11_tensor").findings
        assert f["k4_h_exact"] >= f["k4_h_lower_bound"]


class TestT13Biased:
    def test_thm13_bounds_hold(self, results):
        assert results("T13_biased").findings["thm13_all_hold"] == 1.0

    def test_cor17_exact(self, results):
        assert results("T13_biased").findings["cor17_worst_rel_err"] < 1e-9


class TestT15Regular:
    def test_exponents_below_bounds(self, results):
        f = results("T15_regular").findings
        assert f["exponent_cycle"] <= 1.5 + 0.1
        assert f["exponent_random"] <= 5 / 3
        # and the cycle's cobra hit is genuinely sub-RW (exponent << 2)
        assert f["exponent_cycle"] < 1.4


class TestT20General:
    def test_rw_is_cubic(self, results):
        f = results("T20_general").findings
        assert f["lollipop_rw_exponent"] > 2.6

    def test_cobra_beats_generic_bound(self, results):
        f = results("T20_general").findings
        assert f["lollipop_cobra_exponent"] < 2.75
        assert f["barbell_cobra_exponent"] < 2.75

    def test_separation(self, results):
        f = results("T20_general").findings
        assert f["lollipop_rw_exponent"] - f["lollipop_cobra_exponent"] > 1.0


class TestT1Matthews:
    def test_all_within(self, results):
        assert results("T1_matthews").findings["all_within_bound"] == 1.0


class TestT8Epochs:
    def test_hit_probability_clears_floor(self, results):
        f = results("T8_epochs").findings
        assert f["all_clear_floor"] == 1.0

    def test_floor_value(self, results):
        assert results("T8_epochs").findings["floor"] == pytest.approx(0.125)


class TestTrees:
    def test_cover_sublinear_in_n(self, results):
        f = results("TREES_kary").findings
        for k in (2, 3):
            assert f[f"k{k}_cover_exponent_in_n"] < 0.6

    def test_ratio_not_exploding(self, results):
        f = results("TREES_kary").findings
        for k in (2, 3):
            assert f[f"k{k}_ratio_spread"] < 3.0


class TestStar:
    def test_nlogn_class(self, results):
        f = results("STAR_lb").findings
        assert 1.0 < f["cover_exponent"] < 1.6
        assert f["nlogn_ratio_spread"] < 2.0


class TestGridChain:
    def test_drift_bounds(self, results):
        assert results("GRIDCHAIN_drift").findings["all_drift_bounds_hold"] == 1.0

    def test_linear_hitting(self, results):
        f = results("GRIDCHAIN_drift").findings
        for d in (1, 2):
            assert abs(f[f"hit_exponent_d{d}"] - 1.0) < 0.35


class TestBaselines:
    def test_cobra_beats_rw_everywhere_but_star(self, results):
        f = results("BASE_compare").findings
        for key, val in f.items():
            if key.startswith("rw_speedup") and "star" not in key:
                assert val > 10.0

    def test_star_no_speedup(self, results):
        f = results("BASE_compare").findings
        star_keys = [k for k in f if k.startswith("rw_speedup") and "star" in k]
        assert star_keys and all(f[k] < 10.0 for k in star_keys)


class TestActiveGrowth:
    def test_expander_grows_fastest(self, results):
        f = results("ACTIVE_growth").findings
        assert f["growth_rate_expander(8-reg)"] > f["growth_rate_torus2d"] > f[
            "growth_rate_cycle"
        ]

    def test_saturation_ordering(self, results):
        f = results("ACTIVE_growth").findings
        assert f["saturation_expander(8-reg)"] > 0.6
        assert f["saturation_cycle"] < 0.4


class TestKCobra:
    def test_monotone(self, results):
        f = results("KCOBRA_k").findings
        keys = [k for k in f if k.endswith("_monotone")]
        assert keys and all(f[k] == 1.0 for k in keys)

    def test_k1_to_k2_cliff(self, results):
        f = results("KCOBRA_k").findings
        cliffs = [v for k, v in f.items() if k.endswith("_k1_over_k2")]
        assert all(c > 20.0 for c in cliffs)


@pytest.mark.parametrize("exp_id", [e.id for e in all_experiments()])
def test_every_experiment_reports_tables_and_findings(results, exp_id):
    """Every registered experiment renders a table and states findings
    (every id is also run above, so the cache makes this free)."""
    result = results(exp_id)
    assert result.tables
    assert result.findings
