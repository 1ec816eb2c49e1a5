import math
from dataclasses import fields

import numpy as np
import pytest

from citegrow import ModelKind, ValidationError, make_model
from citegrow.models import (
    MODEL_OPTIONS,
    ModelSpec,
    attachment_weights,
    parse_config_options,
    sample_fitness,
    sample_location_active,
)

from oracles import distance_decay


class TestGamma:
    def test_constant(self):
        model = make_model("lbm", gamma_regime="const", gamma_const=2.5)
        assert model.gamma_at(1) == 2.5
        assert model.gamma_at(10_000) == 2.5

    def test_constant_zero_allowed(self):
        assert make_model("lbm", gamma_regime="const", gamma_const=0.0).gamma_at(5) == 0.0

    def test_linear(self):
        assert make_model("lbm", gamma_regime="linear").gamma_at(7) == 7.0

    def test_sqrt(self):
        assert make_model("lbm", gamma_regime="sqrt").gamma_at(16) == 4.0

    def test_log_frozen_value(self):
        assert make_model("lbm").gamma_at(20) == pytest.approx(2.995732273553991, abs=1e-12)
        # math.log, not numpy's log, which is one ulp off at this size
        assert make_model("lbm").gamma_at(9170) == math.log(9170)

    def test_log_needs_two_nodes(self):
        with pytest.raises(ValidationError):
            make_model("lbm-g").gamma_at(1)
        with pytest.raises(ValidationError):
            make_model("lbm-g").gamma_at(np.array([5, 1]))

    @pytest.mark.parametrize("options", [{"gamma_regime": "const", "gamma_const": 2.5},
                                         {"gamma_regime": "linear"}, {"gamma_regime": "sqrt"},
                                         {"gamma_regime": "log"}])
    def test_array_of_sizes_matches_each_size(self, options):
        # the growth loop computes a run's gammas as one array; each must
        # equal the int size's gamma to the bit
        model = make_model("lbm", **options)
        sizes = np.append(np.arange(2, 30_000, 7), 9170)
        gammas = model.gamma_at(sizes)
        assert gammas.dtype == np.float64 and gammas.shape == sizes.shape
        assert gammas.tolist() == [model.gamma_at(n) for n in sizes.tolist()]


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


class TestLocationSamplers:
    def test_sigma_zero_returns_mean_exactly(self):
        mean = np.array([0.2, 0.8])
        locs = sample_location_active(np.random.default_rng(0), mean, 0.0, 3)
        np.testing.assert_array_equal(locs, [mean] * 3)

    def test_sample_distribution(self):
        mean = np.array([1.0, -1.0])
        rng = np.random.default_rng(3)
        locs = sample_location_active(rng, mean, 0.5, 20_000)
        np.testing.assert_allclose(locs.mean(axis=0), mean, atol=0.02)
        np.testing.assert_allclose(locs.std(axis=0), 0.5, atol=0.02)


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
                              ("ba", {"degree_mode": "out"}), ("af", {"alpha": "x"}),
                              ("lbm-g", {"sigma": math.inf}), ("lbm-g", {"rho": math.inf}),
                              ("lbm", {"gamma_regime": "const", "gamma_const": math.inf}),
                              ("mf", {"alpha": math.nan}), ("lbm", {"dim": 2.5}),
                              ("lbm", {"dim": math.inf})]:
            # the message names the offending option, the last one given
            with pytest.raises(ValidationError, match=list(options)[-1]):
                make_model(kind, **options)

    def test_values_take_the_table_type(self):
        model = make_model("lbm-g", dim=3.0, sigma=1, shift_every=12)
        assert (type(model.dim), type(model.sigma), type(model.rho)) == (int, float, float)
        assert (type(model.shift_every), model.shift_every) == (float, 12.0)

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
        assert model.gamma_const is None
        assert model.gamma_at(20) == math.log(20)

    def test_rho_defaults_to_sigma(self):
        model = make_model("lbm-g", sigma=0.7)
        assert model.rho == 0.7
        assert make_model("lbm-g", sigma=0.7, rho=0.1).rho == 0.1


class TestAttachmentWeights:
    def test_ba_weights_are_degrees(self):
        w = attachment_weights(ModelKind.BA, np.array([3.0, 1.0]))
        assert w.tolist() == [3.0, 1.0]

    def test_af_weights(self):
        w = attachment_weights(ModelKind.ADDITIVE, np.array([2.0, 1.0]),
                               np.array([0.5, 4.0]))
        assert w.tolist() == [2.5, 5.0]

    def test_mf_weights(self):
        w = attachment_weights(ModelKind.MULTIPLICATIVE, np.array([2.0, 1.0]),
                               np.array([0.5, 4.0]))
        assert w.tolist() == [1.0, 4.0]

    def test_lbm_hand_value(self):
        # one node at distance 1 with gamma=ln 2: deg 2 * fit 3 * e^{-ln 2} = 3
        w = (attachment_weights(ModelKind.LBM, np.array([2.0]), np.array([3.0]))
             * distance_decay(np.array([[0.0, 0.0]]), np.array([1.0, 0.0]), math.log(2.0)))
        assert w[0] == pytest.approx(3.0, rel=1e-12)

    def test_lbm_gamma_zero_equals_mf(self):
        # lbm's weight is the mf rule times the distance factor, which is 1
        # everywhere at gamma 0
        rng = np.random.default_rng(5)
        deg = rng.uniform(1, 5, size=8)
        fit = rng.uniform(0.5, 3, size=8)
        locs = rng.uniform(0, 1, size=(8, 2))
        new_loc = rng.uniform(0, 1, size=2)
        lbm = attachment_weights(ModelKind.LBM, deg, fit) * distance_decay(locs, new_loc, 0.0)
        mf = attachment_weights(ModelKind.MULTIPLICATIVE, deg, fit)
        np.testing.assert_array_equal(lbm, mf)

    def test_lbmg_uses_same_rule_as_lbm(self):
        deg = np.array([1.0, 2.0])
        fit = np.array([1.5, 1.0])
        np.testing.assert_array_equal(attachment_weights(ModelKind.LBMG, deg, fit),
                                      attachment_weights(ModelKind.LBM, deg, fit))

    def test_distance_decay_is_euclidean(self):
        locs = np.array([[0.0, 0.0], [3.0, 4.0], [1.0, 1.0]])
        got = distance_decay(locs, np.array([0.0, 0.0]), 0.5)
        np.testing.assert_allclose(got, np.exp(-0.5 * np.array([0.0, 5.0, math.sqrt(2.0)])),
                                   rtol=1e-15)
