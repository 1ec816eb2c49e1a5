import math
from dataclasses import fields

import numpy as np
import pytest

from citegrow import ModelKind, ValidationError, gamma_value, make_model
from citegrow.models import (
    MODEL_OPTIONS,
    ActiveSubspace,
    GammaRegime,
    ModelSpec,
    ShiftPolicy,
    attachment_weights,
    initial_subspace,
    parse_config_options,
    sample_fitness,
    sample_location_active,
    shift_due,
    shift_subspace,
)


class TestGammaRegime:
    def test_constant(self):
        regime = GammaRegime("const", 2.5)
        assert gamma_value(regime, 1) == 2.5
        assert gamma_value(regime, 10_000) == 2.5

    def test_constant_zero_allowed(self):
        assert gamma_value(GammaRegime("const", 0.0), 5) == 0.0

    def test_linear(self):
        assert gamma_value(GammaRegime("linear"), 7) == 7.0

    def test_sqrt(self):
        assert gamma_value(GammaRegime("sqrt"), 16) == 4.0

    def test_log_frozen_value(self):
        assert gamma_value(GammaRegime("log"), 20) == pytest.approx(
            2.995732273553991, abs=1e-12)

    def test_log_needs_two_nodes(self):
        with pytest.raises(ValidationError):
            gamma_value(GammaRegime("log"), 1)

    def test_negative_constant_rejected(self):
        with pytest.raises(ValidationError):
            GammaRegime("const", -1.0)

    def test_unknown_regime_rejected(self):
        with pytest.raises(ValidationError):
            GammaRegime("cubic")


class TestFitnessSampler:
    def test_pareto_tail_probability(self):
        # P(X > 2) = (xm/2)^alpha = 0.25 for alpha=2, xm=1
        rng = np.random.default_rng(0)
        draws = sample_fitness(rng, alpha=2.0, xm=1.0, size=100_000)
        assert np.mean(draws > 2.0) == pytest.approx(0.25, abs=0.01)

    def test_support_starts_at_xm(self):
        rng = np.random.default_rng(1)
        draws = sample_fitness(rng, alpha=2.0, xm=3.0, size=10_000)
        assert draws.min() >= 3.0

    def test_scale_parameter(self):
        rng_a = np.random.default_rng(2)
        rng_b = np.random.default_rng(2)
        a = sample_fitness(rng_a, alpha=2.0, xm=1.0, size=1000)
        b = sample_fitness(rng_b, alpha=2.0, xm=4.0, size=1000)
        np.testing.assert_allclose(b, 4.0 * a)


class TestActiveSubspace:
    def test_sigma_zero_returns_mean_exactly(self):
        sub = ActiveSubspace(mu=np.array([0.2, 0.8]), sigma=0.0)
        loc = sample_location_active(np.random.default_rng(0), sub)
        np.testing.assert_array_equal(loc, sub.mu)

    def test_sample_distribution(self):
        sub = ActiveSubspace(mu=np.array([1.0, -1.0]), sigma=0.5)
        rng = np.random.default_rng(3)
        locs = sample_location_active(rng, sub, size=20_000)
        np.testing.assert_allclose(locs.mean(axis=0), sub.mu, atol=0.02)
        np.testing.assert_allclose(locs.std(axis=0), 0.5, atol=0.02)

    def test_shift_step_scale(self):
        sub = ActiveSubspace(mu=np.zeros(2), sigma=1.0)
        rng = np.random.default_rng(4)
        steps = np.array([shift_subspace(sub, 0.3, rng).mu for _ in range(20_000)])
        assert steps.std(axis=0) == pytest.approx([0.3, 0.3], abs=0.01)

    def test_shift_counts_even_with_zero_rho(self):
        sub = ActiveSubspace(mu=np.array([0.5]), sigma=1.0, shifts_applied=2)
        moved = shift_subspace(sub, 0.0, np.random.default_rng(0))
        np.testing.assert_array_equal(moved.mu, sub.mu)
        assert moved.shifts_applied == 3

    def test_initial_subspace_centered(self):
        model = make_model("lbm-g", dim=3, sigma=1.5)
        sub = initial_subspace(model)
        np.testing.assert_array_equal(sub.mu, [0.5, 0.5, 0.5])
        assert sub.sigma == 1.5


class TestShiftPolicy:
    def test_month_schedule_tolerance(self):
        # 1/12 assembled from 120 sub-year increments must still trigger
        policy = ShiftPolicy("months", 1)
        elapsed = sum([1.0 / 120.0] * 10)
        assert shift_due(policy, elapsed, 0)

    def test_nodes_unit_requires_integer(self):
        with pytest.raises(ValidationError):
            ShiftPolicy("nodes", 2.5)

    def test_nodes_due(self):
        policy = ShiftPolicy("nodes", 3)
        assert not shift_due(policy, 100.0, 2)
        assert shift_due(policy, 0.0, 3)


class TestMakeModelAndConfig:
    @pytest.mark.parametrize("kind", [m.value for m in ModelKind])
    def test_config_round_trip(self, kind):
        model = make_model(kind)
        parsed_kind, options = parse_config_options(model.to_config_text())
        assert make_model(parsed_kind, **options) == model

    # exact model.cfg bytes: the round trips above would not notice a
    # reordered key or a reformatted value
    GOLDEN_CONFIG = {
        "ba": "model = ba\ndegree_mode = in-plus-one\n",
        "af": "model = af\nalpha = 2.0\nxm = 1.0\ndegree_mode = in-plus-one\n",
        "mf": "model = mf\nalpha = 2.0\nxm = 1.0\ndegree_mode = in-plus-one\n",
        "lbm": ("model = lbm\nalpha = 2.0\nxm = 1.0\ndim = 2\ngamma_regime = log\n"
                "degree_mode = in-plus-one\n"),
        "lbm-g": ("model = lbm-g\nalpha = 2.0\nxm = 1.0\ndim = 2\ngamma_regime = log\n"
                  "sigma = 2.0\nrho = 2.0\nshift_unit = months\nshift_every = 1.0\n"
                  "degree_mode = in-plus-one\n"),
    }

    @pytest.mark.parametrize("kind", [m.value for m in ModelKind])
    def test_config_text_golden(self, kind):
        assert make_model(kind).to_config_text() == self.GOLDEN_CONFIG[kind]

    def test_config_text_golden_custom(self):
        model = make_model("lbm-g", alpha=3.0, xm=0.5, dim=4, sigma=1.0,
                           rho=0.25, shift_unit="nodes", shift_every=50,
                           degree_mode="total")
        assert model.to_config_text() == (
            "model = lbm-g\nalpha = 3.0\nxm = 0.5\ndim = 4\ngamma_regime = log\n"
            "sigma = 1.0\nrho = 0.25\nshift_unit = nodes\nshift_every = 50.0\n"
            "degree_mode = total\n")
        const = make_model("lbm", gamma_regime="const", gamma_const=2.0)
        assert "gamma_regime = const\ngamma_const = 2.0\n" in const.to_config_text()

    def test_config_round_trip_custom(self):
        model = make_model("lbm-g", alpha=3.0, xm=0.5, dim=4, sigma=1.0,
                           rho=0.25, shift_unit="nodes", shift_every=50,
                           degree_mode="total")
        parsed_kind, options = parse_config_options(model.to_config_text())
        assert make_model(parsed_kind, **options) == model

    def test_config_file_round_trip(self, tmp_path):
        model = make_model("lbm", gamma_regime="const", gamma_const=2.0)
        path = tmp_path / "model.cfg"
        path.write_text(model.to_config_text(), encoding="utf-8")
        parsed_kind, options = parse_config_options(path.read_text())
        assert make_model(parsed_kind, **options) == model

    def test_spec_fields_follow_the_table(self):
        assert [f.name for f in fields(ModelSpec)] == (
            ["kind"] + [opt.name for opt in MODEL_OPTIONS])

    def test_table_bounds_and_choices_enforced(self):
        for kind, options in [("af", {"alpha": 0.0}), ("mf", {"xm": -1.0}),
                              ("lbm", {"dim": 0}), ("lbm", {"gamma_regime": "cubic"}),
                              ("lbm", {"gamma_regime": "const", "gamma_const": -1.0}),
                              ("lbm-g", {"sigma": -0.5}), ("lbm-g", {"rho": -0.5}),
                              ("lbm-g", {"shift_unit": "weeks"}),
                              ("lbm-g", {"shift_every": 0.0}),
                              ("lbm-g", {"shift_unit": "nodes", "shift_every": 2.5}),
                              ("ba", {"degree_mode": "out"}), ("af", {"alpha": "x"})]:
            with pytest.raises(ValidationError):
                make_model(kind, **options)

    def test_values_take_the_table_type(self):
        model = make_model("lbm-g", dim=3.0, sigma=1, shift_every=12)
        assert (type(model.dim), type(model.sigma), type(model.rho)) == (int, float, float)
        assert model.shift == ShiftPolicy("months", 12.0)

    def test_rejects_unused_options(self):
        with pytest.raises(ValidationError, match="does not use"):
            make_model("ba", sigma=1.0)
        with pytest.raises(ValidationError, match="does not use"):
            make_model("lbm", shift_every=5)

    def test_rejects_unknown_model(self):
        with pytest.raises(ValidationError, match="unknown model"):
            make_model("watts-strogatz")

    def test_gamma_const_ignored_off_const_regime(self):
        # lets one --gamma-const value ride along a regime sweep
        model = make_model("lbm", gamma_regime="log", gamma_const=9.0)
        assert model.gamma == GammaRegime("log")

    def test_rho_defaults_to_sigma(self):
        model = make_model("lbm-g", sigma=0.7)
        assert model.rho == 0.7
        assert make_model("lbm-g", sigma=0.7, rho=0.1).rho == 0.1


class TestAttachmentWeights:
    def test_ba_weights_are_degrees(self):
        w = attachment_weights(ModelKind.BA, np.array([3.0, 1.0]),
                               None, None, None, None)
        assert w.tolist() == [3.0, 1.0]

    def test_af_weights(self):
        w = attachment_weights(ModelKind.ADDITIVE, np.array([2.0, 1.0]),
                               np.array([0.5, 4.0]), None, None, None)
        assert w.tolist() == [2.5, 5.0]

    def test_mf_weights(self):
        w = attachment_weights(ModelKind.MULTIPLICATIVE, np.array([2.0, 1.0]),
                               np.array([0.5, 4.0]), None, None, None)
        assert w.tolist() == [1.0, 4.0]

    def test_lbm_hand_value(self):
        # one node at distance 1 with gamma=ln 2: e^{-ln 2} * deg 2 * fit 3 = 3
        w = attachment_weights(
            ModelKind.LBM, np.array([2.0]), np.array([3.0]),
            np.array([[0.0, 0.0]]), np.array([1.0, 0.0]), math.log(2.0))
        assert w[0] == pytest.approx(3.0, rel=1e-12)

    def test_lbm_gamma_zero_equals_mf(self):
        rng = np.random.default_rng(5)
        deg = rng.uniform(1, 5, size=8)
        fit = rng.uniform(0.5, 3, size=8)
        locs = rng.uniform(0, 1, size=(8, 2))
        new_loc = rng.uniform(0, 1, size=2)
        lbm = attachment_weights(ModelKind.LBM, deg, fit, locs, new_loc, 0.0)
        mf = attachment_weights(ModelKind.MULTIPLICATIVE, deg, fit, None, None, None)
        np.testing.assert_allclose(lbm, mf, rtol=1e-12)

    def test_lbmg_uses_same_rule_as_lbm(self):
        deg = np.array([1.0, 2.0])
        fit = np.array([1.0, 1.0])
        locs = np.array([[0.0], [0.5]])
        new_loc = np.array([0.25])
        a = attachment_weights(ModelKind.LBM, deg, fit, locs, new_loc, 1.0)
        b = attachment_weights(ModelKind.LBMG, deg, fit, locs, new_loc, 1.0)
        np.testing.assert_array_equal(a, b)
