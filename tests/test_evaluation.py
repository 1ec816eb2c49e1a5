import json
from dataclasses import replace

import numpy as np
import pytest
from scipy.spatial.distance import jensenshannon

from citegrow import (
    CategoryDistribution,
    ClassifierParams,
    SeedNetwork,
    ValidationError,
    YearSchedule,
    corpus_like_schedule,
    derive_seed,
    evaluate_model,
    init_from_seed,
    jsd2,
    make_model,
    model_grid,
    run_simulation,
    sensitivity,
    sweep,
    synthetic_seed,
)
from citegrow.evaluation import SensitivityRow, _run_sweep_point, _SweepTask
from citegrow.trajectory import (
    CATEGORY_ORDER,
    _DECISION_RULES,
    _classify_all,
)

from conftest import graph_from_histories


class TestJsd2:
    def test_frozen_hand_value(self):
        # jsd2((1/2,1/2),(1,0)) = 1 - 0.5*log2(3) + ... worked out once by
        # hand and pinned; scipy agrees below
        assert jsd2([0.5, 0.5], [1.0, 0.0]) == pytest.approx(
            0.31127812445913283, abs=1e-10)

    def test_agrees_with_scipy(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            p = rng.dirichlet(np.ones(5))
            q = rng.dirichlet(np.ones(5))
            expected = float(jensenshannon(p, q, base=2)) ** 2
            assert jsd2(p, q) == pytest.approx(expected, abs=1e-10)

    def test_symmetry(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            p = rng.dirichlet(np.ones(4))
            q = rng.dirichlet(np.ones(4))
            assert jsd2(p, q) == pytest.approx(jsd2(q, p), abs=1e-14)

    def test_zero_iff_equal(self):
        p = [0.2, 0.3, 0.5]
        assert jsd2(p, p) == 0.0
        assert jsd2(p, [0.2, 0.31, 0.49]) > 0.0

    def test_disjoint_support_hits_one(self):
        assert jsd2([1.0, 0.0], [0.0, 1.0]) == pytest.approx(1.0, abs=1e-12)

    def test_range(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            p = rng.dirichlet(np.full(5, 0.3))
            q = rng.dirichlet(np.full(5, 0.3))
            v = jsd2(p, q)
            assert 0.0 <= v <= 1.0

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValidationError):
            jsd2([0.5, 0.6], [0.5, 0.5])
        with pytest.raises(ValidationError):
            jsd2([0.5, 0.5], [0.5, 0.25, 0.25])
        with pytest.raises(ValidationError):
            jsd2([-0.1, 1.1], [0.5, 0.5])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("side", [0, 1])
    def test_rejects_non_finite_entries(self, bad, side):
        # a NaN entry slips past the sign and sum checks and would score NaN
        pair = [[0.5, 0.25, 0.25], [0.2, 0.3, 0.5]]
        pair[side] = [bad, 0.5, 0.5]
        with pytest.raises(ValidationError, match="non-finite"):
            jsd2(*pair)


class TestEvaluateModel:
    def test_report_contents(self):
        sim = CategoryDistribution.from_counts([1, 2, 3, 4, 10])
        ref = CategoryDistribution.from_proportions([0.2, 0.2, 0.2, 0.2, 0.2])
        report = evaluate_model(sim, ref, label="toy")
        assert report.model_label == "toy"
        assert report.jsd2 == pytest.approx(jsd2(sim.proportions, ref.proportions))
        payload = report.as_json_dict()
        assert payload["model"] == "toy"
        assert set(payload) >= {"model", "distribution", "reference", "jsd2"}

    def test_to_json(self, tmp_path):
        sim = CategoryDistribution.from_counts([1, 0, 0, 0, 1])
        ref = CategoryDistribution.from_proportions([0.5, 0.1, 0.1, 0.1, 0.2])
        path = tmp_path / "e.json"
        evaluate_model(sim, ref).to_json(path)
        data = json.loads(path.read_text())
        assert data["jsd2"] == pytest.approx(jsd2(sim.proportions, ref.proportions), abs=1e-6)


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(7, 1, 2) == derive_seed(7, 1, 2)

    def test_path_sensitive(self):
        seeds = {derive_seed(7), derive_seed(7, 0), derive_seed(7, 1),
                 derive_seed(7, 0, 0), derive_seed(8)}
        assert len(seeds) == 5


class TestModelGrid:
    def test_cross_product_order(self):
        points = model_grid("lbm", {"gamma_regime": ["const", "log"],
                                    "alpha": [2.0, 3.0]},
                            {"gamma_const": 1.0})
        assert len(points) == 4
        assert points[0].params == {"gamma_regime": "const", "alpha": 2.0}
        assert points[-1].params == {"gamma_regime": "log", "alpha": 3.0}

    def test_rho_follows_sigma_per_point(self):
        points = model_grid("lbm-g", {"sigma": [0.5, 2.5]}, {})
        assert [pt.model.rho for pt in points] == [0.5, 2.5]

    def test_empty_axes_single_point(self):
        points = model_grid("ba", {}, {})
        assert len(points) == 1
        assert points[0].params == {}


def two_year_setup():
    seed = SeedNetwork(nodes=((0, 1970), (1, 1971)), edges=((1, 0),))
    schedule = YearSchedule({1976: [1, 1], 1977: [2]})
    ref = CategoryDistribution.from_proportions([0.2, 0.2, 0.2, 0.2, 0.2])
    params = ClassifierParams(min_history_years=3)
    return seed, schedule, ref, params


class TestSweep:
    def test_single_point_matches_manual_runs(self):
        seed, schedule, ref, params = two_year_setup()
        points = model_grid("ba", {}, {})
        result = sweep(points, seed, schedule, ref, cutoff_year=1977,
                       horizon_year=1980, classifier_params=params,
                       runs_per_point=2, rng_seed=5)
        assert len(result.rows) == 1
        row = result.rows[0]

        task = _SweepTask(0, points[0].model, seed, schedule, 1977, 1980, params, 2, 5)
        proportions, _ = _run_sweep_point(task)
        np.testing.assert_allclose(row.distribution.proportions, proportions, atol=1e-12)
        assert row.jsd2 == pytest.approx(jsd2(proportions, ref.proportions))
        assert row.best

    def test_rows_sorted_and_best_flagged(self):
        seed, schedule, ref, params = two_year_setup()
        points = model_grid("lbm", {"gamma_regime": ["const", "sqrt", "log"]},
                            {"gamma_const": 0.5})
        result = sweep(points, seed, schedule, ref, cutoff_year=1977,
                       horizon_year=1980, classifier_params=params,
                       runs_per_point=1, rng_seed=0)
        values = [r.jsd2 for r in result.rows]
        assert values == sorted(values)
        assert [r.best for r in result.rows] == [True, False, False]

    def test_parallel_equals_serial(self):
        seed, schedule, ref, params = two_year_setup()
        points = model_grid("af", {"alpha": [2.0, 4.0]}, {})
        serial = sweep(points, seed, schedule, ref, cutoff_year=1977,
                       horizon_year=1980, classifier_params=params,
                       runs_per_point=2, rng_seed=3, jobs=1)
        parallel = sweep(points, seed, schedule, ref, cutoff_year=1977,
                         horizon_year=1980, classifier_params=params,
                         runs_per_point=2, rng_seed=3, jobs=2)
        for a, b in zip(serial.rows, parallel.rows):
            assert a.params == b.params
            assert a.jsd2 == pytest.approx(b.jsd2, abs=1e-15)
            assert a.decision_rules == b.decision_rules

    def test_decision_rules_sum_to_the_classified_nodes(self):
        # the nodes classified in each run are the scheduled nodes up to
        # the cutoff: three per run here
        seed, schedule, ref, params = two_year_setup()
        points = model_grid("lbm", {"gamma_regime": ["const", "log"]}, {"gamma_const": 0.5})
        result = sweep(points, seed, schedule, ref, cutoff_year=1977,
                       horizon_year=1980, classifier_params=params,
                       runs_per_point=3, rng_seed=4)
        for row in result.rows:
            assert set(row.decision_rules) == set(_DECISION_RULES)
            assert sum(row.decision_rules.values()) == 3 * 3
            counts = row.distribution.proportions * 9
            assert row.decision_rules["er"] == pytest.approx(counts[0])

    def test_csv_fixed_decimals(self, tmp_path):
        seed, schedule, ref, params = two_year_setup()
        points = model_grid("lbm-g", {"sigma": [1.0, 2.0]}, {"shift_every": 6.0})
        result = sweep(points, seed, schedule, ref, cutoff_year=1977,
                       horizon_year=1980, classifier_params=params,
                       runs_per_point=1, rng_seed=1)
        path = tmp_path / "sweep.csv"
        result.to_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "sigma,er,fr,lr,sr,ot,jsd2"
        for line in lines[1:]:
            cells = line.split(",")
            assert all("." in c and len(c.split(".")[1]) == 6 for c in cells)


class TestSensitivity:
    def fixture_graph(self):
        histories = [
            [0, 6, 1, 5, 0, 0, 0, 0, 0, 0],   # FR at theta 0.75, ER at 0.9
            [0, 6, 1, 1, 1, 6, 1, 1, 6, 1],   # FR at both
            [0, 8, 2, 1, 0, 0, 0, 0, 0, 0],   # ER at both
        ]
        return graph_from_histories(histories)

    def test_threshold_flip_doubles_er(self):
        graph, cutoff, horizon = self.fixture_graph()
        result = sensitivity(graph, cutoff, horizon,
                             activation_values=[5],
                             threshold_values=[0.75, 0.9])
        by_key = {(r.activation, round(r.threshold, 6), r.category): r
                  for r in result.rows}
        assert by_key[(5, 0.75, "er")].ratio == pytest.approx(1.0)
        assert by_key[(5, 0.9, "er")].ratio == pytest.approx(2.0)
        assert by_key[(5, 0.9, "fr")].ratio == pytest.approx(0.5)

    def test_undefined_when_default_zero(self):
        graph, cutoff, horizon = self.fixture_graph()
        result = sensitivity(graph, cutoff, horizon, [5], [0.75, 0.9])
        lr_rows = [r for r in result.rows if r.category == "lr"]
        assert all(r.ratio is None for r in lr_rows)

    def test_csv_sentinel_and_format(self, tmp_path):
        graph, cutoff, horizon = self.fixture_graph()
        result = sensitivity(graph, cutoff, horizon, [4, 5], [0.75])
        path = tmp_path / "sens.csv"
        result.to_csv(path)
        text = path.read_text()
        lines = text.strip().splitlines()
        assert lines[0] == "activation,threshold,category,ratio"
        assert "undefined" in text
        assert "0.750000" in text

    def test_default_must_be_inside_ranges(self):
        graph, cutoff, horizon = self.fixture_graph()
        with pytest.raises(ValidationError):
            sensitivity(graph, cutoff, horizon, [3, 4], [0.75],
                        defaults=ClassifierParams(activation_period=5))
        with pytest.raises(ValidationError):
            sensitivity(graph, cutoff, horizon, [5], [0.45, 0.6],
                        defaults=ClassifierParams(peak_threshold=0.75))


def per_point_rows(graph, cutoff, horizon, activations, thresholds, defaults):
    """Oracle: the sensitivity grid classified one point at a time."""
    def distribution(params):
        return _classify_all(graph, cutoff, horizon, params).distribution()

    baseline = distribution(defaults)
    rows = []
    for a in activations:
        for th in thresholds:
            dist = distribution(replace(defaults, activation_period=a, peak_threshold=th))
            for cat, x, y in zip(CATEGORY_ORDER, dist.proportions, baseline.proportions):
                rows.append(SensitivityRow(a, th, cat.code,
                                           float(x) / float(y) if y > 0 else None))
    return rows


def bits(rows):
    """Rows with each ratio as its exact hex form, so equality is bitwise."""
    return [(r.activation, r.threshold, r.category,
             None if r.ratio is None else r.ratio.hex()) for r in rows]


# every decision rule, counts at exactly a grid threshold (c / max equals
# 0.45, 0.5, 0.75 and 0.9) and single peaks at offsets equal to an
# activation value, so er and lr trade places across the activation axis
RULE_HISTORIES = [
    [0, 1, 0, 0, 0, 0, 0, 0, 0, 0],     # ot by the mean rule
    [0, 1, 1, 2, 2, 3, 3, 4, 4, 5],     # sr
    [0, 8, 2, 1, 0, 0, 0, 0, 0, 0],     # er
    [0, 6, 1, 1, 1, 6, 1, 1, 6, 1],     # fr
    [0, 2, 1, 1, 1, 1, 1, 1, 1, 9],     # ot: single peak in the final year
    [0, 20, 0, 9, 0, 0, 0, 0, 0, 0],    # second candidate at exactly 0.45
    [0, 4, 0, 2, 0, 4, 0, 0, 0, 0],     # 0.5, then a full second peak
    [0, 4, 0, 3, 0, 0, 0, 0, 1, 2],     # exactly 0.75
    [0, 10, 1, 9, 0, 0, 0, 0, 0, 0],    # exactly 0.9
    [0, 0, 0, 9, 1, 1, 1, 1, 1, 1],     # single peak at offset 3
    [0, 0, 0, 0, 0, 9, 1, 1, 1, 1],     # at offset 5
    [0, 1, 0, 0, 0, 0, 0, 9, 1, 1],     # at offset 7
    [0, 0, 0, 0, 0, 0, 9, 2, 1, 1],     # lr at the defaults
]
ACTIVATIONS = [3, 4, 5, 6, 7]
THRESHOLDS = [round(0.45 + 0.05 * k, 2) for k in range(11)]


class TestSensitivityGrid:
    """`sensitivity` against the per-point loop, bit for bit."""

    @pytest.mark.parametrize("histories", [
        RULE_HISTORIES,
        # no late riser at the defaults, so every lr ratio is undefined
        [h for h in RULE_HISTORIES if h not in RULE_HISTORIES[9:]],
    ], ids=["all-rules", "undefined-lr"])
    @pytest.mark.parametrize("activations, thresholds, defaults", [
        (ACTIVATIONS, THRESHOLDS, ClassifierParams()),
        # defaults off the grid, repeated and unsorted values
        ([7, 3, 4, 4], [0.9, 0.45, 0.6, 0.45], ClassifierParams(6, 0.8)),
    ], ids=["check-9-grid", "off-grid-defaults"])
    def test_matches_per_point_loop(self, histories, activations, thresholds, defaults):
        graph, cutoff, horizon = graph_from_histories(histories)
        result = sensitivity(graph, cutoff, horizon, activations, thresholds, defaults)
        want = per_point_rows(graph, cutoff, horizon, activations, thresholds, defaults)
        assert bits(result.rows) == bits(want)
        assert len(result.rows) == len(activations) * len(thresholds) * 5

    def test_decision_rules_sum_to_the_classified_nodes(self):
        graph, cutoff, horizon = graph_from_histories(RULE_HISTORIES)
        result = sensitivity(graph, cutoff, horizon, ACTIVATIONS, THRESHOLDS)
        rules = result.decision_rules
        assert rules == _classify_all(graph, cutoff, horizon,
                                      ClassifierParams()).rule_counts()
        assert sum(rules.values()) == int(result.baseline.counts.sum()) == len(RULE_HISTORIES)
        assert min(rules.values()) > 0

    @pytest.mark.parametrize("rng_seed", [1, 77])
    def test_matches_per_point_loop_on_grown_graph(self, rng_seed):
        model = make_model("lbm-g", sigma=1.5, shift_every=12)
        net = synthetic_seed(150, rng_seed=rng_seed)
        graph = run_simulation(
            init_from_seed(net.nodes, net.edges, model, rng_seed),
            corpus_like_schedule(2500, rng_seed=rng_seed), model, rng_seed + 100)
        result = sensitivity(graph, 1991, 2000, ACTIVATIONS, THRESHOLDS)
        want = per_point_rows(graph, 1991, 2000, ACTIVATIONS, THRESHOLDS,
                              ClassifierParams())
        assert bits(result.rows) == bits(want)
        assert sum(r.ratio is not None for r in result.rows) > 100
