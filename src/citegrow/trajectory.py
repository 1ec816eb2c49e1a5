"""Citation-trajectory classification.

A node's yearly citation counts, normalized by their maximum, are scanned
for peaks: local maxima whose normalized height reaches the peak
threshold. Two peaks are distinct only if the profile dips below the
threshold somewhere between them. The category rules, applied in order:

  other (ot)          mean yearly citations below 1
  steady riser (sr)   counts never decrease and end above where they began
  early riser (er)    a single peak inside the activation period
  frequent riser (fr) two or more distinct peaks
  late riser (lr)     a single peak after the activation period that is
                      not the final year
  other (ot)          anything else: a single peak in the final year
                      that lies past the activation period

Categories depend only on the shape of the trajectory: scaling every count
by a constant cannot change the outcome (except through the mean rule).
`_classify_rows` states these rules as array operations over a graph's
history matrix; the tests hold them against a one-trajectory oracle.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, replace
from enum import Enum
from pathlib import Path

import numpy as np

from .errors import ValidationError
from .graph import GrowthGraph

__all__ = [
    "TrajectoryCategory",
    "CATEGORY_ORDER",
    "ClassifierParams",
    "CategoryDistribution",
    "classify_graph",
    "category_distribution",
    "write_classification_csv",
]


class TrajectoryCategory(Enum):
    EARLY_RISER = "er"
    FREQUENT_RISER = "fr"
    LATE_RISER = "lr"
    STEADY_RISER = "sr"
    OTHER = "ot"

    @property
    def code(self) -> str:
        return self.value


CATEGORY_ORDER = (
    TrajectoryCategory.EARLY_RISER,
    TrajectoryCategory.FREQUENT_RISER,
    TrajectoryCategory.LATE_RISER,
    TrajectoryCategory.STEADY_RISER,
    TrajectoryCategory.OTHER,
)
_CAT_INDEX = {cat: i for i, cat in enumerate(CATEGORY_ORDER)}


@dataclass(frozen=True)
class ClassifierParams:
    """Knobs of the trajectory classifier.

    activation_period: years after publication that count as "early".
    peak_threshold: minimum normalized height of a peak, in (0, 1].
    min_history_years: shortest trajectory the classifier accepts.
    """

    activation_period: int = 5
    peak_threshold: float = 0.75
    min_history_years: int = 10

    def __post_init__(self):
        if self.activation_period < 1:
            raise ValidationError(f"activation period must be >= 1, got {self.activation_period}")
        if not 0.0 < self.peak_threshold <= 1.0:
            raise ValidationError(f"peak threshold must be in (0, 1], got {self.peak_threshold}")
        if self.min_history_years < 1:
            raise ValidationError(f"min history must be >= 1, got {self.min_history_years}")


@dataclass(frozen=True)
class CategoryDistribution:
    """Category proportions in canonical order (er, fr, lr, sr, ot).

    `counts` is present for distributions measured on a graph and None for
    external reference distributions given as proportions only.
    """

    proportions: np.ndarray
    counts: np.ndarray | None = None

    def __post_init__(self):
        p = np.array(self.proportions, dtype=np.float64)
        if p.shape != (5,):
            raise ValidationError("proportions must have one entry per category")
        if p.min() < 0:
            raise ValidationError("proportions must be non-negative")
        if abs(p.sum() - 1.0) > 1e-9:
            raise ValidationError(f"proportions must sum to 1, got {p.sum()!r}")
        p.flags.writeable = False
        object.__setattr__(self, "proportions", p)
        if self.counts is not None:
            c = np.array(self.counts, dtype=np.int64)
            if c.shape != (5,) or c.min() < 0:
                raise ValidationError("counts must be five non-negative integers")
            c.flags.writeable = False
            object.__setattr__(self, "counts", c)

    @classmethod
    def from_counts(cls, counts) -> "CategoryDistribution":
        c = np.array(counts, dtype=np.int64)
        total = c.sum()
        if total <= 0:
            raise ValidationError("cannot build a distribution from zero classified nodes")
        return cls(proportions=c / total, counts=c)

    @classmethod
    def from_proportions(cls, values) -> "CategoryDistribution":
        """Values scaled to sum to 1: proportions or percentages."""
        p = np.array(values, dtype=np.float64)
        total = p.sum()
        if total <= 0:
            raise ValidationError("proportions must have a positive sum")
        return cls(proportions=p / total)

    def proportion(self, category) -> float:
        return float(self.proportions[_CAT_INDEX[TrajectoryCategory(category)]])

    def count(self, category) -> int:
        if self.counts is None:
            raise ValidationError("this distribution carries no counts")
        return int(self.counts[_CAT_INDEX[TrajectoryCategory(category)]])

    def as_json_dict(self) -> dict:
        out = {cat.code: round(float(p), 6)
               for cat, p in zip(CATEGORY_ORDER, self.proportions)}
        if self.counts is not None:
            out["counts"] = {cat.code: int(c)
                             for cat, c in zip(CATEGORY_ORDER, self.counts)}
        return out

    def to_json(self, path) -> None:
        Path(path).write_text(json.dumps(self.as_json_dict(), indent=2, sort_keys=True) + "\n",
                              encoding="utf-8")

    @classmethod
    def from_json(cls, path) -> "CategoryDistribution":
        try:
            data = json.loads(Path(path).read_text(encoding="utf-8"))
            values = [float(data[cat.code]) for cat in CATEGORY_ORDER]
            counts = ([int(data["counts"][cat.code]) for cat in CATEGORY_ORDER]
                      if "counts" in data else None)
        except KeyError as exc:
            raise ValidationError(
                f"distribution file {path} is missing category key {exc}") from None
        except (TypeError, ValueError) as exc:
            raise ValidationError(
                f"distribution file {path} is not a category mapping: {exc}") from None
        dist = cls.from_proportions(values)
        if counts is not None:
            dist = cls(proportions=dist.proportions, counts=counts)
        return dist


# -- graph-level classification ----------------------------------------------

def _history_matrix(graph: GrowthGraph, horizon_year: int) -> np.ndarray:
    """(n_nodes, max_offset+1) matrix of citation counts by year offset,
    counting only citations from papers published up to the horizon."""
    n = graph.n_nodes
    width = int(horizon_year) - int(graph.years.min()) + 1
    hist = np.zeros((n, max(width, 1)), dtype=np.int64)
    if graph.n_edges:
        citing_years = graph.years[graph.edges[:, 0]]
        keep = citing_years <= horizon_year
        cited = graph.edges[keep, 1]
        offsets = citing_years[keep] - graph.years[cited]
        np.add.at(hist, (cited, offsets), 1)
    return hist


# Decision-rule codes of the array classifier, one per classified node.
# Codes 0-4 are the category indices of CATEGORY_ORDER, where an ot code 4
# is a single peak in the final year; code 5 is an ot settled by the mean
# rule alone.
_DECISION_RULES = ("er", "fr", "lr", "sr", "ot_peak_at_horizon", "ot_low_mean")
_RULE_CATEGORY = np.array([0, 1, 2, 3, 4, 4])
_ER, _FR, _LR, _SR, _OT_PEAK_AT_HORIZON, _OT_LOW_MEAN = range(len(_DECISION_RULES))


def _classify_rows(counts, lengths, params: ClassifierParams,
                   thresholds=None, activations=None) -> np.ndarray:
    """Decision-rule code (an index into `_DECISION_RULES`) of each row of
    a history matrix. Row r holds a trajectory of lengths[r] years, and its
    columns from lengths[r] on must be zero. The code's category is the
    one the module docstring's rules give that trajectory. The rules, in order:

    mean       an integer sum below the length is a mean below 1 (ot);
               only the rows that pass go further
    monotone   no decrease inside the window, and the last in-window
               count above the first (sr)
    candidates at or above the threshold, strictly above the left
               neighbour and at least the right one; the last in-window
               offset skips the right test
    peaks      a candidate is kept if it is its row's first, or if a
               running count of below-threshold offsets grew since the
               previous candidate

    Given lists of `thresholds` and `activations` (used in place of the
    two values in `params`), the codes come back with shape
    (len(thresholds), len(activations), rows), one for every pair. The
    mean and monotone rules depend on neither value and run once; the
    peak rules run once per threshold; and the activation period only
    decides whether a row with a single peak before its last offset is
    er or lr.
    """
    grid = thresholds is not None
    if not grid:
        thresholds, activations = [params.peak_threshold], [params.activation_period]
    counts = np.asarray(counts)
    lengths = np.asarray(lengths, dtype=np.int64)
    codes = np.full((len(thresholds), len(activations), lengths.size), _OT_LOW_MEAN,
                    dtype=np.int8)
    live = np.nonzero(counts.sum(axis=1) >= lengths)[0]
    if live.size == 0:
        return codes if grid else codes[0, 0]
    c = counts[live]
    n = lengths[live]
    last = n - 1
    cols = np.arange(c.shape[1])
    inside = cols < n[:, None]

    rising = c[:, 1:] >= c[:, :-1]
    steady = (np.all(rising | ~inside[:, 1:], axis=1)
              & (c[np.arange(c.shape[0]), last] > c[:, 0]))

    normalized = c / c.max(axis=1, keepdims=True)
    left = np.ones(c.shape, dtype=bool)
    left[:, 1:] = c[:, 1:] > c[:, :-1]
    right = cols == last[:, None]
    right[:, :-1] |= c[:, :-1] >= c[:, 1:]
    maxima = left & right & inside  # candidates, but for the threshold
    for t, threshold in enumerate(thresholds):
        above = normalized >= threshold
        rows, offsets = np.nonzero(above & maxima)
        dips = np.cumsum(~above, axis=1)[rows, offsets]
        first = np.ones(rows.size, dtype=bool)
        first[1:] = rows[1:] != rows[:-1]
        kept = first.copy()
        kept[1:] |= dips[1:] > dips[:-1]
        n_peaks = np.bincount(rows[kept], minlength=c.shape[0])
        peak = offsets[first]  # each row's first maximum is a candidate
        single = np.where(peak != last, _LR, _OT_PEAK_AT_HORIZON)
        for a, activation in enumerate(activations):
            live_codes = np.where(n_peaks >= 2, _FR,
                                  np.where(peak < activation, _ER, single))
            live_codes[steady] = _SR
            codes[t, a, live] = live_codes
    return codes if grid else codes[0, 0]


@dataclass(frozen=True)
class _Classification:
    """Classified nodes: ids, publication years and decision-rule codes.
    The codes of a grid classification have shape (thresholds,
    activations, nodes), and `at` picks one point of the grid."""

    ids: np.ndarray
    years: np.ndarray
    codes: np.ndarray

    def at(self, threshold_index: int, activation_index: int) -> "_Classification":
        return replace(self, codes=self.codes[threshold_index, activation_index])

    def rows(self) -> list:
        cats = [CATEGORY_ORDER[i] for i in _RULE_CATEGORY[self.codes].tolist()]
        return list(zip(self.ids.tolist(), self.years.tolist(), cats))

    def distribution(self) -> CategoryDistribution:
        return CategoryDistribution.from_counts(
            np.bincount(_RULE_CATEGORY[self.codes], minlength=len(CATEGORY_ORDER)))

    def rule_counts(self) -> dict:
        """Nodes settled by each decision rule; they sum to the classified nodes."""
        counts = np.bincount(self.codes, minlength=len(_DECISION_RULES))
        return {rule: int(k) for rule, k in zip(_DECISION_RULES, counts)}


def _classify_all(graph: GrowthGraph, cutoff_year: int, horizon_year: int,
                  params: ClassifierParams, thresholds=None,
                  activations=None) -> _Classification:
    """Classify every non-seed node published up to the cutoff, under
    `params` or, given `thresholds` and `activations`, at every pair of
    them (see `_classify_rows`)."""
    cutoff = int(cutoff_year)
    horizon = int(horizon_year)
    if horizon - cutoff < params.min_history_years - 1:
        raise ValidationError(
            f"window too short: horizon {horizon} gives nodes at cutoff {cutoff} only "
            f"{horizon - cutoff + 1} years of history, classifier needs "
            f">= {params.min_history_years}")
    ids = np.nonzero(graph.years[graph.n_seed:] <= cutoff)[0] + graph.n_seed
    if ids.size == 0:
        raise ValidationError(
            f"no non-seed nodes published up to {cutoff}; nothing to classify")
    hist = _history_matrix(graph, horizon)
    years = graph.years[ids]
    # grown and ingested graphs list nodes by year, so the classified rows
    # are one block of the matrix and need no copy
    if ids[-1] - ids[0] + 1 == ids.size:
        counts = hist[ids[0]:ids[-1] + 1]
    else:
        counts = hist[ids]
    return _Classification(ids, years, _classify_rows(counts, horizon - years + 1, params,
                                                      thresholds, activations))


def classify_graph(graph: GrowthGraph, cutoff_year: int, horizon_year: int,
                   params: ClassifierParams = ClassifierParams()):
    """Per-node categories as (node_id, year, category) rows."""
    return _classify_all(graph, cutoff_year, horizon_year, params).rows()


def category_distribution(graph: GrowthGraph, cutoff_year: int, horizon_year: int,
                          params: ClassifierParams = ClassifierParams()
                          ) -> CategoryDistribution:
    """Category distribution over all classified nodes of a graph."""
    return _classify_all(graph, cutoff_year, horizon_year, params).distribution()


def write_classification_csv(rows, path) -> None:
    """Rows of (node_id, year, category) to CSV."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["node_id", "year", "category"])
        for node_id, year, cat in rows:
            writer.writerow([node_id, year, cat.code])
