"""Reference implementations that tests compare the library against.

`classify` applies the rules of `citegrow.trajectory`'s module docstring
to one trajectory. A graph's nodes are classified together by
`citegrow.trajectory._classify_rows`, which states the same rules as
array operations over the zero-padded history matrix; `classify` is its
test oracle. Two facts let the array form skip two branches of `classify`:
a trajectory whose mean reaches 1 is not all zero, and its first maximum
is always a peak candidate, so every trajectory past the mean rule has at
least one peak. Its dip rule compares each candidate with the previous
candidate, kept or not, where `detect_peaks` compares it with the previous
kept peak. The two agree: a candidate is dropped only when nothing between
it and the kept peak before it dips below the threshold, and it is itself
above the threshold, so a dip after the kept peak lies after the dropped
candidate too.

`distance_decay` is the lbm/lbm-g distance factor over all earlier nodes,
which `citegrow.spatial` computes relative to the nearest node, and
`entrant_expected_probability` is the entrant's side of the conservation
identity that `citegrow.theory`'s enumeration must satisfy.
"""

import numpy as np

from citegrow import ClassifierParams, TrajectoryCategory, ValidationError
from citegrow.models import attachment_weights
from citegrow.theory import TheoryGraph, _theory_kind, selection_probabilities


def normalize_trajectory(counts) -> tuple[np.ndarray, bool]:
    """Scale counts by their maximum into [0, 1].

    Returns (normalized, degenerate); an all-zero history is degenerate
    and comes back unchanged.
    """
    c = np.asarray(counts, dtype=np.float64)
    if c.ndim != 1 or c.size == 0:
        raise ValidationError("trajectory must be a non-empty 1-D sequence")
    if c.min() < 0:
        raise ValidationError("trajectory counts must be non-negative")
    peak = c.max()
    if peak == 0.0:
        return c.copy(), True
    return c / peak, False


def detect_peaks(counts, normalized, threshold: float) -> list[int]:
    """Offsets of distinct peaks, in increasing order.

    A candidate offset is a local maximum (strictly above its left
    neighbor, at least its right neighbor; boundary offsets drop the
    missing side) whose normalized value reaches `threshold`. The strict
    left edge keeps only the earliest offset of a plateau. A candidate
    after the first is kept only if some offset between it and the last
    kept peak falls below the threshold. Comparing with the previous
    candidate instead, kept or not, gives the same peaks, because a
    dropped candidate is itself above the threshold (see the module
    docstring); the array classifier uses that form.
    """
    c = np.asarray(counts, dtype=np.float64)
    z = np.asarray(normalized, dtype=np.float64)
    if c.shape != z.shape or c.ndim != 1 or c.size == 0:
        raise ValidationError("counts and normalized must be matching non-empty 1-D arrays")
    last = c.size - 1
    peaks: list[int] = []
    for t in range(c.size):
        if z[t] < threshold:
            continue
        if t > 0 and not c[t] > c[t - 1]:
            continue
        if t < last and not c[t] >= c[t + 1]:
            continue
        if peaks:
            between = z[peaks[-1] + 1:t]
            if not np.any(between < threshold):
                continue
        peaks.append(t)
    return peaks


def classify(counts, params: ClassifierParams = ClassifierParams()) -> TrajectoryCategory:
    """Assign one trajectory to a category, in the decision order of
    `citegrow.trajectory`'s module docstring."""
    c = np.asarray(counts, dtype=np.float64)
    if c.ndim != 1:
        raise ValidationError("trajectory must be 1-D")
    if c.size < params.min_history_years:
        raise ValidationError(
            f"trajectory has {c.size} years of history, classifier needs "
            f">= {params.min_history_years}")
    if c.min() < 0:
        raise ValidationError("trajectory counts must be non-negative")

    if c.mean() < 1.0:
        return TrajectoryCategory.OTHER
    if np.all(np.diff(c) >= 0) and c[-1] > c[0]:
        return TrajectoryCategory.STEADY_RISER
    normalized, degenerate = normalize_trajectory(c)
    if degenerate:
        return TrajectoryCategory.OTHER
    peaks = detect_peaks(c, normalized, params.peak_threshold)
    if len(peaks) >= 2:
        return TrajectoryCategory.FREQUENT_RISER
    if len(peaks) == 1:
        t = peaks[0]
        if t < params.activation_period:
            return TrajectoryCategory.EARLY_RISER
        if t != c.size - 1:
            return TrajectoryCategory.LATE_RISER
    return TrajectoryCategory.OTHER


def distance_decay(locations: np.ndarray, new_location: np.ndarray,
                   gamma: float) -> np.ndarray:
    """exp(-gamma * dist) from each of `locations` to `new_location`: the
    factor by which lbm and lbm-g localize the mf weight."""
    diff = locations - new_location
    return np.exp(-gamma * np.sqrt(np.einsum("ij,ij->i", diff, diff)))


def entrant_expected_probability(model, graph: TheoryGraph,
                                 new_fitness: float) -> float:
    """Expected attachment probability of the entrant itself, right after
    it joins. Useful for the conservation identity: the sum of all expected
    changes plus this value is zero."""
    kind = _theory_kind(model)
    P = selection_probabilities(kind, graph)
    entrant_w = float(attachment_weights(kind, np.array([1]), np.array([new_fitness]))[0])
    value = 0.0
    for s in range(graph.t):
        deg_after = graph.degrees.astype(np.float64)
        deg_after[s] += 1.0
        w1 = attachment_weights(kind, deg_after, graph.fitness)
        value += P[s] * entrant_w / (w1.sum() + entrant_w)
    return value
