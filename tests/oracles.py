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

`grow_reference` is the O(n^2) growth program as the README states it:
each insertion recomputes every earlier node's weight from the weight
table (`reference_weights`), times `distance_decay` at `gamma_at(n)` for
lbm and lbm-g, and draws its targets one after another with
`test_sampling.sequential_reference`, filling uniformly when fewer earlier
nodes than it needs have weight.
`reference_set_law` is the exact probability of a target set under that
draw.

`walk_reference` runs the lbm-g walk clock one insertion at a time, as
`citegrow.simulate` states it, for the array form there to match.
"""

from math import comb

import numpy as np

from citegrow import ClassifierParams, TrajectoryCategory, ValidationError
from citegrow.models import attachment_weights, sample_location_active
from citegrow.theory import TheoryGraph, _theory_kind, selection_probabilities

from test_sampling import sequential_reference, set_probability


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


def reference_weights(model, in_degrees, out_degrees, fitness):
    """The README weight table without the distance factor: `D_i`, `D_i +
    xi_i` and `D_i * xi_i` for ba, af and mf, and `D_i * xi_i` for lbm and
    lbm-g, where `D_i` is the in-degree + 1, or the in-degree + out-degree
    under "total". Arrays broadcast, so `fitness` may hold a column per
    run."""
    if model.degree_mode == "in-plus-one":
        d = np.asarray(in_degrees, dtype=np.float64) + 1.0
    else:
        d = np.asarray(in_degrees, dtype=np.float64) + out_degrees
    kind = model.kind.value
    if kind == "ba":
        # ba reads no fitness; 0 * fitness gives the weights its shape
        return d + 0.0 * fitness
    if kind == "af":
        return d + fitness
    if kind in ("mf", "lbm", "lbm-g"):
        return d * fitness
    raise ValidationError(f"no reference weights for kind {kind}")


def reference_draw(weights, k, rng) -> list:
    """k distinct nodes: the sequential draw proportional to `weights`
    while positive weights last, then a uniform choice among the rest."""
    w = np.asarray(weights, dtype=np.float64)
    positive = np.flatnonzero(w > 0)
    if positive.size >= k:
        return sorted(sequential_reference(w, k, rng))
    rest = np.setdiff1d(np.arange(w.size), positive)
    return sorted([*positive.tolist(), *rng.choice(rest, k - positive.size, replace=False).tolist()])


def reference_set_law(weights, subset):
    """P(the draw of `reference_draw` returns `subset`), exactly. Rows of
    `weights` are nodes; a row may hold one weight per run, with the same
    nodes positive in every run."""
    positive = [i for i, w in enumerate(weights) if np.all(np.asarray(w) > 0)]
    assert all(np.all(np.asarray(weights[i]) == 0)
               for i in set(range(len(weights))) - set(positive))
    k = len(subset)
    if len(positive) >= k:
        return set_probability(weights, subset)
    if not set(positive) <= set(subset):
        return 0.0
    return 1.0 / comb(len(weights) - len(positive), k - len(positive))


def grow_reference(graph, schedule, model, fitness, rng, locations=None) -> np.ndarray:
    """The (citing, cited) edges that the README's growth rule adds to
    `graph` over `schedule`, drawn with `reference_draw` at every
    insertion from weights recomputed over all earlier nodes. `fitness`
    and, for lbm and lbm-g, `locations` hold every node's values, the
    grown ones included (a production run's, whose locations carry the
    lbm-g walk), so that only the draw law is compared."""
    degrees = [k for year in schedule.years for k in schedule.entries[year]]
    n0 = graph.n_nodes
    n_total = n0 + len(degrees)
    in_deg = np.bincount(graph.edges[:, 1], minlength=n_total).astype(np.float64)
    out_deg = np.concatenate([graph.out_degrees, degrees]).astype(np.float64)
    edges = []
    for node, k in enumerate(degrees, n0):
        w = reference_weights(model, in_deg[:node], out_deg[:node], fitness[:node])
        if model.uses_location:
            w = w * distance_decay(locations[:node], locations[node], model.gamma_at(node))
        for target in reference_draw(w, k, rng):
            in_deg[target] += 1
            edges.append((node, target))
    return np.array(edges, dtype=np.int64).reshape(-1, 2)


def walk_reference(model, schedule, rng):
    """The locations of every scheduled lbm-g node and the number of walk
    steps: a clock that starts at the first scheduled year is checked after
    every insertion, taking as many steps as the elapsed time (or node
    count) owes; every step is drawn before the first location, and each
    node's location comes from the mean current at its insertion."""
    months = model.shift_unit == "months"
    every = model.shift_every
    means = [np.full(model.dim, 0.5)]
    sizes = [0]
    last_shift_time = float(schedule.years[0])
    nodes_since_shift = 0
    for year in schedule.years:
        m = len(schedule.entries[year])
        for j in range(m):
            sizes[-1] += 1
            nodes_since_shift += 1
            t_now = year + (j + 1) / m
            while (t_now - last_shift_time >= every / 12.0 - 1e-12 if months
                   else nodes_since_shift >= every):
                means.append(means[-1] if model.rho == 0.0
                             else rng.normal(means[-1], model.rho))
                sizes.append(0)
                if months:
                    last_shift_time += every / 12.0
                else:
                    nodes_since_shift = 0
    locations = [sample_location_active(rng, mean, model.sigma, size)
                 for mean, size in zip(means, sizes)]
    return np.concatenate(locations), len(means) - 1
