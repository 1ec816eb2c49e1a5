"""Weighted sampling without replacement.

The contract: drawing k targets without replacement, where each draw picks
proportionally to weight among the not-yet-chosen, must match the exponential
race implementation. The reference sampler below does the sequential draws
literally; the enumeration test computes set probabilities exactly.
"""

import itertools
from fractions import Fraction

import numpy as np
import pytest

from citegrow import ValidationError, sample_without_replacement


def sequential_reference(weights, k, rng):
    """Literal renormalizing draws, one index at a time."""
    w = np.array(weights, dtype=np.float64)
    chosen = []
    for _ in range(k):
        p = w / w.sum()
        idx = rng.choice(w.size, p=p)
        chosen.append(idx)
        w[idx] = 0.0
    return frozenset(int(i) for i in chosen)


def set_probability(weights, subset):
    """Exact P(subset) by summing over orderings of sequential draws."""
    total = 0.0
    for order in itertools.permutations(subset):
        prob = 1.0
        remaining = sum(weights)
        for idx in order:
            prob *= weights[idx] / remaining
            remaining -= weights[idx]
        total += prob
    return total


def test_matches_exact_enumeration_three_weights():
    # weights [3,2,1], k=2: P({0,1}) = 3/6*2/3 + 2/6*3/4 = 7/12
    weights = [3.0, 2.0, 1.0]
    expected = {
        frozenset({0, 1}): set_probability(weights, (0, 1)),
        frozenset({0, 2}): set_probability(weights, (0, 2)),
        frozenset({1, 2}): set_probability(weights, (1, 2)),
    }
    assert expected[frozenset({0, 1})] == pytest.approx(7.0 / 12.0)
    assert sum(expected.values()) == pytest.approx(1.0)

    rng = np.random.default_rng(42)
    n_draws = 200_000
    seen = {key: 0 for key in expected}
    for _ in range(n_draws):
        got = frozenset(int(i) for i in sample_without_replacement(weights, 2, rng))
        seen[got] += 1
    for key, prob in expected.items():
        assert seen[key] / n_draws == pytest.approx(prob, abs=0.01)


def test_matches_sequential_reference_distribution():
    weights = [5.0, 1.0, 3.0, 0.5]
    k = 2
    n_draws = 50_000
    rng_a = np.random.default_rng(7)
    rng_b = np.random.default_rng(8)
    count_a: dict = {}
    count_b: dict = {}
    for _ in range(n_draws):
        sa = frozenset(int(i) for i in sample_without_replacement(weights, k, rng_a))
        sb = sequential_reference(weights, k, rng_b)
        count_a[sa] = count_a.get(sa, 0) + 1
        count_b[sb] = count_b.get(sb, 0) + 1
    for subset in set(count_a) | set(count_b):
        pa = count_a.get(subset, 0) / n_draws
        pb = count_b.get(subset, 0) / n_draws
        assert pa == pytest.approx(pb, abs=0.015)


@pytest.mark.parametrize("weights", [
    [1.0, 1e-310, 2e-310, 3e-310, 4e-310],
    [1e-310, 2e-310, 3e-310, 4e-310],
    [0.0, 1e-310, 3e-310, 0.0, 2.0],
], ids=["one-normal", "all-subnormal", "with-zeros"])
def test_subnormal_weights_keep_the_law(weights):
    # e / w overflows to inf for weights near the float minimum; the draw
    # must still follow the weights, not the position among inf keys.
    # Fractions keep the exact law free of the rounding that sums 1 + 1e-310
    # to 1
    exact = [Fraction(w) for w in weights]
    sets = list(itertools.combinations(range(len(weights)), 2))
    law = [float(set_probability(exact, s)) for s in sets]
    rng = np.random.default_rng(5)
    n_draws = 20_000
    seen = dict.fromkeys(sets, 0)
    for _ in range(n_draws):
        seen[tuple(sample_without_replacement(weights, 2, rng).tolist())] += 1
    for subset, prob in zip(sets, law):
        assert seen[subset] / n_draws == pytest.approx(prob, abs=0.015)


def test_single_draw_proportional():
    rng = np.random.default_rng(3)
    hits = 0
    n_draws = 100_000
    for _ in range(n_draws):
        if sample_without_replacement([3.0, 1.0], 1, rng)[0] == 0:
            hits += 1
    assert hits / n_draws == pytest.approx(0.75, abs=0.01)


def test_zero_weights_never_selected():
    rng = np.random.default_rng(0)
    weights = [1.0, 0.0, 2.0, 0.0]
    for _ in range(500):
        chosen = sample_without_replacement(weights, 2, rng)
        assert set(chosen.tolist()) == {0, 2}


def test_k_equals_size_returns_everything():
    rng = np.random.default_rng(0)
    chosen = sample_without_replacement([1.0, 2.0, 3.0], 3, rng)
    assert chosen.tolist() == [0, 1, 2]


def test_k_zero_is_empty():
    rng = np.random.default_rng(0)
    assert sample_without_replacement([1.0], 0, rng).size == 0


def test_output_is_sorted_int64():
    rng = np.random.default_rng(11)
    chosen = sample_without_replacement(np.arange(1, 30, dtype=float), 10, rng)
    assert chosen.dtype == np.int64
    assert np.all(np.diff(chosen) > 0)


def test_deficit_error_names_numbers():
    rng = np.random.default_rng(0)
    with pytest.raises(ValidationError, match="deficit"):
        sample_without_replacement([1.0, 0.0, 0.0], 2, rng)


def test_rejects_negative_weight():
    rng = np.random.default_rng(0)
    with pytest.raises(ValidationError, match="index 1"):
        sample_without_replacement([1.0, -0.5], 1, rng)


def test_rejects_non_finite():
    rng = np.random.default_rng(0)
    with pytest.raises(ValidationError):
        sample_without_replacement([1.0, np.inf], 1, rng)

