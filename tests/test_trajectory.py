import itertools
import json

import numpy as np
import pytest

from citegrow import (
    CATEGORY_ORDER,
    CategoryDistribution,
    ClassifierParams,
    TrajectoryCategory,
    ValidationError,
    category_distribution,
    classify_graph,
    corpus_like_schedule,
    init_from_seed,
    make_model,
    run_simulation,
    synthetic_seed,
    write_classification_csv,
)
from citegrow.trajectory import (
    _DECISION_RULES,
    _RULE_CATEGORY,
    _classify_all,
    _classify_rows,
    _history_matrix,
)

from conftest import graph_from_histories
from oracles import classify, detect_peaks, normalize_trajectory

ER = TrajectoryCategory.EARLY_RISER
FR = TrajectoryCategory.FREQUENT_RISER
LR = TrajectoryCategory.LATE_RISER
SR = TrajectoryCategory.STEADY_RISER
OT = TrajectoryCategory.OTHER


def peak_oracle(counts, threshold):
    """Brute-force restatement of the peak rule, kept deliberately naive."""
    counts = list(counts)
    top = max(counts)
    if top == 0:
        return []
    z = [c / top for c in counts]
    candidates = []
    for t in range(len(counts)):
        if z[t] < threshold:
            continue
        left_ok = t == 0 or counts[t] > counts[t - 1]
        right_ok = t == len(counts) - 1 or counts[t] >= counts[t + 1]
        if left_ok and right_ok:
            candidates.append(t)
    peaks = []
    for t in candidates:
        if peaks and min(z[peaks[-1] + 1:t], default=1.0) >= threshold:
            continue
        peaks.append(t)
    return peaks


def candidate_offsets(counts, threshold):
    """Peak candidates before the dip rule merges them."""
    counts = list(counts)
    top = max(counts)
    if top == 0:
        return set()
    return {
        t for t in range(len(counts))
        if counts[t] / top >= threshold
        and (t == 0 or counts[t] > counts[t - 1])
        and (t == len(counts) - 1 or counts[t] >= counts[t + 1])
    }


class TestNormalize:
    def test_simple(self):
        normalized, degenerate = normalize_trajectory([0, 5, 1])
        assert normalized.tolist() == [0.0, 1.0, 0.2]
        assert not degenerate

    def test_degenerate_all_zero(self):
        normalized, degenerate = normalize_trajectory([0, 0, 0])
        assert normalized.tolist() == [0.0, 0.0, 0.0]
        assert degenerate

    def test_hand_division(self):
        normalized, _ = normalize_trajectory([2, 4, 8, 4])
        assert normalized.tolist() == [0.25, 0.5, 1.0, 0.5]

    def test_rejects_empty(self):
        with pytest.raises(ValidationError):
            normalize_trajectory([])

    def test_rejects_negative(self):
        with pytest.raises(ValidationError):
            normalize_trajectory([1, -1])


class TestDetectPeaks:
    def run(self, counts, threshold=0.75):
        normalized, _ = normalize_trajectory(counts)
        return detect_peaks(counts, normalized, threshold)

    def test_unique_maximum(self):
        assert self.run([0, 0, 5, 1, 0]) == [2]

    def test_plateau_keeps_earliest(self):
        assert self.run([1, 1, 1, 1]) == [0]

    def test_three_peaks(self):
        assert self.run([5, 1, 5, 1, 5]) == [0, 2, 4]

    def test_no_dip_merges_peaks(self):
        # the middle value never drops below the threshold
        assert self.run([10, 9, 10], threshold=0.5) == [0]
        assert self.run([10, 9, 10], threshold=0.95) == [0, 2]

    def test_dip_rule_not_monotone_in_threshold(self):
        # direct consequence of the dip rule: fewer peaks at the LOWER
        # threshold here, so no blanket monotonicity claim holds
        low = len(self.run([10, 9, 10], threshold=0.5))
        high = len(self.run([10, 9, 10], threshold=0.95))
        assert (low, high) == (1, 2)

    def test_candidate_stage_is_monotone_in_threshold(self):
        rng = np.random.default_rng(0)
        for _ in range(300):
            counts = rng.integers(0, 10, size=int(rng.integers(1, 15))).tolist()
            if max(counts) == 0:
                continue
            for lo, hi in [(0.45, 0.75), (0.6, 0.9), (0.75, 0.95)]:
                assert candidate_offsets(counts, lo) >= candidate_offsets(counts, hi)

    def test_matches_bruteforce_oracle(self):
        rng = np.random.default_rng(1)
        thresholds = [0.45, 0.6, 0.75, 0.9]
        for _ in range(500):
            counts = rng.integers(0, 9, size=int(rng.integers(1, 14))).tolist()
            if max(counts) == 0:
                continue
            normalized, _ = normalize_trajectory(counts)
            for theta in thresholds:
                got = detect_peaks(counts, normalized, theta)
                assert got == peak_oracle(counts, theta), (counts, theta)

    def test_offsets_increasing_and_above_threshold(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            counts = rng.integers(0, 9, size=12).tolist()
            if max(counts) == 0:
                continue
            normalized, _ = normalize_trajectory(counts)
            peaks = detect_peaks(counts, normalized, 0.75)
            assert all(a < b for a, b in zip(peaks, peaks[1:]))
            assert all(normalized[t] >= 0.75 for t in peaks)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            detect_peaks([1, 2], [1.0], 0.75)


class TestClassify:
    def test_early_riser(self):
        assert classify([0, 8, 2, 1, 0, 0, 0, 0, 0, 0]) is ER

    def test_steady_riser(self):
        assert classify([1, 2, 3, 4, 5, 6, 7, 8, 9, 10]) is SR

    def test_other_low_mean(self):
        assert classify([0, 0, 1, 0, 0, 0, 0, 1, 0, 0]) is OT

    def test_frequent_riser(self):
        assert classify([0, 6, 1, 1, 1, 6, 1, 1, 6, 1]) is FR

    def test_late_riser(self):
        assert classify([0, 0, 0, 0, 0, 0, 9, 2, 0, 1]) is LR

    def test_single_final_peak_is_other(self):
        # LR excludes last-year peaks; nothing else claims this shape
        assert classify([2, 1, 1, 1, 1, 1, 1, 1, 1, 9]) is OT

    def test_flat_nonzero_counts_as_early_riser(self):
        # plateau rule puts the single peak at offset 0; mean is exactly 1
        assert classify([1] * 10) is ER

    def test_steady_riser_tolerates_flat_years(self):
        assert classify([1, 1, 2, 2, 3, 3, 4, 4, 5, 5]) is SR

    def test_all_zero_is_other(self):
        assert classify([0] * 10) is OT

    def test_short_history_rejected(self):
        with pytest.raises(ValidationError, match="history"):
            classify([5] * 9)

    def test_custom_min_history(self):
        params = ClassifierParams(min_history_years=3)
        assert classify([0, 9, 1], params) is ER

    def test_activation_boundary(self):
        # peak at offset 5 with default activation 5: no longer "within"
        counts = [0, 0, 0, 0, 0, 9, 1, 1, 1, 1]
        assert classify(counts) is LR
        assert classify(counts, ClassifierParams(activation_period=6)) is ER

    def test_scale_free_geometry(self):
        rng = np.random.default_rng(3)
        checked = 0
        while checked < 200:
            counts = rng.integers(0, 8, size=10)
            if counts.mean() < 1.0:
                continue
            scaled = counts * int(rng.integers(2, 6))
            assert classify(counts) is classify(scaled)
            checked += 1

    def test_totality(self):
        rng = np.random.default_rng(4)
        for _ in range(300):
            counts = rng.integers(0, 12, size=int(rng.integers(10, 16)))
            assert classify(counts) in CATEGORY_ORDER


class TestCategoryDistribution:
    def test_from_counts(self):
        dist = CategoryDistribution.from_counts([1, 1, 1, 1, 2])
        assert np.array_equal(dist.counts, [1, 1, 1, 1, 2])
        assert dist.proportion("ot") == pytest.approx(2 / 6)
        assert sum(dist.proportions) == pytest.approx(1.0)

    def test_json_keys(self):
        dist = CategoryDistribution.from_counts([1, 0, 0, 0, 3])
        payload = dist.as_json_dict()
        assert set(payload) == {"er", "fr", "lr", "sr", "ot", "counts"}
        assert payload["counts"] == {"er": 1, "fr": 0, "lr": 0, "sr": 0, "ot": 3}

    def test_json_round_trip(self, tmp_path):
        dist = CategoryDistribution.from_counts([3, 5, 2, 0, 7])
        path = tmp_path / "d.json"
        dist.to_json(path)
        back = CategoryDistribution.from_json(path)
        np.testing.assert_allclose(back.proportions, dist.proportions, atol=1e-5)

    def test_from_json_accepts_percentages(self, tmp_path):
        path = tmp_path / "ref.json"
        path.write_text(json.dumps(
            {"er": 6.78, "fr": 26.38, "lr": 32.87, "sr": 11.96, "ot": 22.04}))
        dist = CategoryDistribution.from_json(path)
        assert sum(dist.proportions) == pytest.approx(1.0, abs=1e-9)
        assert dist.proportion("lr") == pytest.approx(0.3287, abs=1e-3)

    def test_rejects_unnormalizable(self):
        with pytest.raises(ValidationError):
            CategoryDistribution.from_proportions([0, 0, 0, 0, 0])

    @pytest.mark.parametrize("counts", [[100, 0, 0, 0, 0], [0, 0, 0, 0, 0]])
    def test_rejects_counts_that_contradict_the_proportions(self, tmp_path, counts):
        with pytest.raises(ValidationError, match="disagree"):
            CategoryDistribution(np.full(5, 0.2), counts)
        path = tmp_path / "d.json"
        path.write_text(json.dumps({"er": 0.2, "fr": 0.2, "lr": 0.2, "sr": 0.2, "ot": 0.2,
                                    "counts": dict(zip(["er", "fr", "lr", "sr", "ot"], counts))}))
        with pytest.raises(ValidationError, match=f"distribution file {path}"):
            CategoryDistribution.from_json(path)

    def test_counts_survive_the_rounded_proportions_of_a_file(self, tmp_path):
        dist = CategoryDistribution.from_counts([1, 2, 3, 7, 99991])
        dist.to_json(tmp_path / "d.json")
        back = CategoryDistribution.from_json(tmp_path / "d.json")
        assert back.counts.tolist() == [1, 2, 3, 7, 99991]


class TestGraphClassification:
    def exemplar_histories(self):
        return [
            [0, 8, 2, 1, 0, 0, 0, 0, 0, 0],   # ER
            [0, 6, 1, 1, 1, 6, 1, 1, 6, 1],   # FR
            [0, 0, 0, 0, 0, 0, 9, 2, 0, 1],   # LR
            [0, 1, 2, 3, 4, 5, 6, 7, 8, 9],   # SR
            [0, 0, 1, 0, 0, 0, 0, 1, 0, 0],   # OT (mean 0.2)
            [0, 0, 0, 0, 0, 0, 0, 0, 0, 0],   # OT (never cited)
        ]

    def test_six_node_fixture_exact_counts(self):
        graph, cutoff, horizon = graph_from_histories(self.exemplar_histories())
        dist = category_distribution(graph, cutoff, horizon)
        assert np.array_equal(dist.counts, [1, 1, 1, 1, 2])

    def test_classify_graph_rows(self):
        graph, cutoff, horizon = graph_from_histories(self.exemplar_histories())
        rows = classify_graph(graph, cutoff, horizon)
        cats = [cat for _, _, cat in rows]
        assert cats == [ER, FR, LR, SR, OT, OT]
        assert all(year == 2000 for _, year, _ in rows)

    def test_never_cited_graph_is_all_other(self):
        graph, cutoff, horizon = graph_from_histories([[0] * 10, [0] * 10])
        dist = category_distribution(graph, cutoff, horizon)
        assert dist.proportion("ot") == 1.0

    def test_seed_nodes_excluded(self):
        graph, cutoff, horizon = graph_from_histories([[0] * 10])
        rows = classify_graph(graph, cutoff, horizon)
        assert [node_id for node_id, _, _ in rows] == [1]

    def test_citers_after_cutoff_excluded(self):
        graph, cutoff, horizon = graph_from_histories([[0, 3, 1, 0, 0, 0, 0, 0, 0, 0]])
        rows = classify_graph(graph, cutoff, horizon)
        # four citing nodes exist but only the target is classified
        assert len(rows) == 1

    def test_window_too_short_rejected(self):
        graph, cutoff, _ = graph_from_histories([[0] * 10])
        with pytest.raises(ValidationError, match="window"):
            classify_graph(graph, cutoff, cutoff + 5)

    def test_csv_output(self, tmp_path):
        graph, cutoff, horizon = graph_from_histories(self.exemplar_histories())
        rows = classify_graph(graph, cutoff, horizon)
        path = tmp_path / "c.csv"
        write_classification_csv(rows, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "node_id,year,category"
        assert lines[1] == "1,2000,er"
        assert len(lines) == 7


def scalar_mismatches(counts, lengths, params):
    """Rows where the array classifier and the scalar `classify` differ."""
    codes = _classify_rows(np.asarray(counts), np.asarray(lengths), params)
    got = [CATEGORY_ORDER[i] for i in _RULE_CATEGORY[codes]]
    return [(list(row[:n]), g, classify(row[:n], params))
            for row, n, g in zip(counts, lengths, got)
            if g is not classify(row[:n], params)]


def grown_graph(kind, seed, **options):
    """A 2500-node growth run over a 150-node seed network."""
    model = make_model(kind, **options)
    net = synthetic_seed(150, rng_seed=seed)
    return run_simulation(init_from_seed(net.nodes, net.edges, model, seed),
                          corpus_like_schedule(2500, rng_seed=seed), model, seed + 100)


# the sensitivity grid of acceptance check 9 plus the defaults
SENSITIVITY_GRID = [ClassifierParams()] + [
    ClassifierParams(activation_period=a, peak_threshold=round(0.45 + 0.05 * k, 2))
    for a in range(3, 8) for k in range(11)]


class TestArrayClassifier:
    """`_classify_rows` against the scalar `classify` as oracle."""

    def test_every_short_trajectory(self):
        rows = np.array(list(itertools.product(range(4), repeat=7)))
        lengths = np.full(len(rows), 7)
        for threshold in (0.45, 0.75, 0.9, 1.0):
            for activation in (1, 3, 7):
                params = ClassifierParams(activation_period=activation,
                                          peak_threshold=threshold,
                                          min_history_years=7)
                assert scalar_mismatches(rows, lengths, params) == [], (threshold, activation)

    def test_mixed_lengths_hand_cases(self):
        width = 8
        cases = [
            # (trajectory, rule code under activation 2 and threshold 0.75)
            ([0, 3, 0, 9], "ot_peak_at_horizon"),   # last in-window peak, then padding
            ([2, 1, 1, 1, 1, 9], "ot_peak_at_horizon"),
            ([1, 2, 3, 4, 5], "sr"),                # monotone, shorter than the width
            ([1, 1, 2, 2, 3, 3, 4, 4], "sr"),
            ([5, 5, 5], "er"),                      # flat: not sr, plateau peak at 0
            ([0, 4, 4, 0], "er"),
            ([8, 0, 0, 8], "fr"),                   # second peak on the last offset
            ([0, 6, 1, 1, 1, 6, 1, 6], "fr"),
            ([10, 9, 10], "er"),                    # no dip: one peak
            ([0, 0, 0, 9, 2, 0, 1], "lr"),
            ([0, 0, 0, 0], "ot_low_mean"),
            ([3, 0, 0, 0], "ot_low_mean"),
        ]
        counts = np.zeros((len(cases), width), dtype=np.int64)
        for r, (traj, _) in enumerate(cases):
            counts[r, :len(traj)] = traj
        lengths = [len(traj) for traj, _ in cases]
        params = ClassifierParams(activation_period=2, min_history_years=3)
        codes = _classify_rows(counts, lengths, params)
        assert [_DECISION_RULES[k] for k in codes] == [rule for _, rule in cases]
        assert scalar_mismatches(counts, lengths, params) == []

    def test_random_mixed_lengths(self):
        rng = np.random.default_rng(5)
        width = 14
        lengths = rng.integers(3, width + 1, size=4000)
        shape = (lengths.size, width)
        counts = rng.integers(0, 6, size=shape) * (rng.random(shape) < 0.6)
        counts[np.arange(width) >= lengths[:, None]] = 0
        for params in (ClassifierParams(min_history_years=3),
                       ClassifierParams(activation_period=3, peak_threshold=0.5,
                                        min_history_years=3)):
            assert scalar_mismatches(counts, lengths, params) == []

    def test_grid_matches_one_point_at_a_time(self):
        rng = np.random.default_rng(6)
        width = 12
        lengths = rng.integers(3, width + 1, size=3000)
        shape = (lengths.size, width)
        counts = rng.integers(0, 6, size=shape) * (rng.random(shape) < 0.6)
        counts[np.arange(width) >= lengths[:, None]] = 0
        params = ClassifierParams(min_history_years=3)
        thresholds, activations = [0.45, 0.75, 0.9, 1.0], [1, 3, 4, 7]
        grid = _classify_rows(counts, lengths, params, thresholds, activations)
        assert grid.shape == (4, 4, lengths.size)
        for t, threshold in enumerate(thresholds):
            for a, activation in enumerate(activations):
                point = ClassifierParams(activation, threshold, 3)
                np.testing.assert_array_equal(grid[t, a],
                                              _classify_rows(counts, lengths, point))

    @pytest.mark.parametrize("kind,options", [
        ("ba", {}), ("af", {}), ("mf", {}), ("lbm", {}),
        ("lbm-g", {"sigma": 1.5, "shift_every": 12}),
    ])
    def test_seeded_graphs_over_the_sensitivity_grid(self, kind, options):
        cutoff, horizon = 1991, 2000
        for seed in (1, 2):
            graph = grown_graph(kind, seed, **options)
            hist = _history_matrix(graph, horizon)
            for params in SENSITIVITY_GRID:
                result = _classify_all(graph, cutoff, horizon, params)
                got = [CATEGORY_ORDER[i] for i in _RULE_CATEGORY[result.codes]]
                want = [classify(hist[i, :horizon - y + 1], params)
                        for i, y in zip(result.ids.tolist(), result.years.tolist())]
                assert got == want, (kind, seed, params)

    def test_rule_counts_sum_to_the_classified_nodes(self):
        result = _classify_all(grown_graph("af", 3), 1991, 2000, ClassifierParams())
        rules = result.rule_counts()
        dist = result.distribution()
        assert set(rules) == set(_DECISION_RULES)
        assert sum(rules.values()) == result.ids.size == int(dist.counts.sum())
        for code in ("er", "fr", "lr", "sr"):
            assert rules[code] == dist.count(code)
        assert rules["ot_low_mean"] + rules["ot_peak_at_horizon"] == dist.count("ot")
        assert rules["ot_low_mean"] > 0
