"""Model-fidelity scoring, parameter sweeps, and classifier sensitivity.

The fidelity score is the squared Jensen-Shannon distance between the
simulated and the reference category distribution, with base-2 logs so the
score lives in [0, 1]: 0 for identical distributions, 1 for disjoint
support. Lower is better.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, replace
from itertools import product
from pathlib import Path

import numpy as np

from .errors import ValidationError
from .graph import SeedNetwork, YearSchedule
from .models import ModelSpec, make_model
from .simulate import init_from_seed, run_simulation
from .trajectory import (
    CATEGORY_ORDER,
    CategoryDistribution,
    ClassifierParams,
    _classify_all,
)

__all__ = [
    "jsd2",
    "EvalReport",
    "evaluate_model",
    "SweepPoint",
    "SweepRow",
    "SweepResult",
    "sweep",
    "model_grid",
    "SensitivityRow",
    "SensitivityResult",
    "sensitivity",
    "derive_seed",
]


def jsd2(p, q) -> float:
    """Squared Jensen-Shannon distance between two distributions.

    Both inputs must be finite, non-negative vectors of equal length
    summing to 1 (within 1e-9). Computed with base-2 logarithms as the
    mean of the two KL divergences against the midpoint distribution.
    """
    pa = np.asarray(p, dtype=np.float64)
    qa = np.asarray(q, dtype=np.float64)
    if pa.ndim != 1 or qa.ndim != 1 or pa.shape != qa.shape or pa.size == 0:
        raise ValidationError("jsd2 needs two non-empty vectors of equal length")
    for name, v in (("first", pa), ("second", qa)):
        if not np.isfinite(v).all() or v.min() < 0:
            raise ValidationError(f"{name} distribution has a negative or non-finite entry")
        if abs(v.sum() - 1.0) > 1e-9:
            raise ValidationError(f"{name} distribution sums to {v.sum()!r}, expected 1")
    m = 0.5 * (pa + qa)

    def _kl(a: np.ndarray) -> float:
        mask = a > 0
        # m > 0 wherever a > 0, so the ratio is always defined
        return float(np.sum(a[mask] * np.log2(a[mask] / m[mask])))

    value = 0.5 * _kl(pa) + 0.5 * _kl(qa)
    return max(value, 0.0)


@dataclass(frozen=True)
class EvalReport:
    """One model's distribution scored against a reference."""

    model_label: str
    distribution: CategoryDistribution
    reference: CategoryDistribution
    jsd2: float

    def as_json_dict(self) -> dict:
        return {
            "model": self.model_label,
            "distribution": self.distribution.as_json_dict(),
            "reference": self.reference.as_json_dict(),
            "jsd2": round(self.jsd2, 6),
        }

    def to_json(self, path) -> None:
        Path(path).write_text(json.dumps(self.as_json_dict(), indent=2, sort_keys=True) + "\n",
                              encoding="utf-8")


def evaluate_model(simulated: CategoryDistribution, reference: CategoryDistribution,
                   label: str = "model") -> EvalReport:
    return EvalReport(
        model_label=label,
        distribution=simulated,
        reference=reference,
        jsd2=jsd2(simulated.proportions, reference.proportions),
    )


# -- parameter sweeps ----------------------------------------------------------

def derive_seed(root_seed: int, *path: int) -> int:
    """Deterministic child seed for a (grid point, run, stage) path.

    The path length is folded in because SeedSequence zero-pads its
    entropy, which would otherwise alias (7,) with (7, 0).
    """
    entropy = [int(root_seed), len(path), *[int(p) for p in path]]
    if min(entropy) < 0:
        raise ValidationError(f"seeds must be >= 0, got {root_seed} with path {path}")
    return int(np.random.SeedSequence(entropy).generate_state(1, np.uint64)[0])


@dataclass(frozen=True)
class SweepPoint:
    """One grid point: the parameter values it varies plus the full model."""

    params: dict
    model: ModelSpec


@dataclass(frozen=True)
class SweepRow:
    """One scored grid point: its mean category mix over its runs, and how
    many nodes each decision rule settled, summed over its runs."""

    params: dict
    distribution: CategoryDistribution
    jsd2: float
    decision_rules: dict
    best: bool = False


@dataclass(frozen=True)
class SweepResult:
    rows: tuple
    param_names: tuple

    @property
    def best(self) -> SweepRow:
        return self.rows[0]

    def to_csv(self, path) -> None:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(list(self.param_names)
                            + [c.code for c in CATEGORY_ORDER] + ["jsd2"])
            for row in self.rows:
                cells = [_csv_cell(row.params.get(name, ""))
                         for name in self.param_names]
                cells += [f"{p:.6f}" for p in row.distribution.proportions]
                cells.append(f"{row.jsd2:.6f}")
                writer.writerow(cells)

    def summary_json_dict(self) -> dict:
        return {
            "points": len(self.rows),
            "best": {
                "params": {k: _plain(v) for k, v in self.best.params.items()},
                "jsd2": round(self.best.jsd2, 6),
                "distribution": self.best.distribution.as_json_dict(),
            },
        }


def _plain(value):
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    return value


def _csv_cell(value) -> str:
    value = _plain(value)
    if isinstance(value, float):
        return f"{value:.6f}"
    return str(value)


def model_grid(kind: str, axes: dict, base_options: dict | None = None) -> list[SweepPoint]:
    """Cross-product grid of model variants.

    `axes` maps :func:`citegrow.models.make_model` option names to value
    lists; `base_options` holds fixed options. Each grid point is rebuilt
    through make_model so per-model defaults (like rho following sigma)
    apply at every point.
    """
    base = dict(base_options or {})
    names = list(axes)
    points = []
    for combo in product(*(axes[name] for name in names)):
        params = dict(zip(names, combo))
        model = make_model(kind, **{**base, **params})
        points.append(SweepPoint(params=params, model=model))
    if not points:
        raise ValidationError("parameter grid is empty")
    return points


@dataclass(frozen=True)
class _SweepTask:
    """Everything one grid point's runs need, in a form that pickles for
    worker processes."""

    index: int
    model: ModelSpec
    seed: SeedNetwork
    schedule: YearSchedule
    cutoff: int
    horizon: int
    params: ClassifierParams
    runs: int
    root_seed: int


def _run_sweep_point(task: _SweepTask) -> tuple[np.ndarray, dict]:
    """The point's mean category proportions over its runs and its
    decision-rule counts summed over them."""
    prop_sum = np.zeros(5, dtype=np.float64)
    rules: dict[str, int] = {}
    for r in range(task.runs):
        seed_graph = init_from_seed(task.seed.nodes, task.seed.edges, task.model,
                                    derive_seed(task.root_seed, task.index, r, 0))
        grown = run_simulation(seed_graph, task.schedule, task.model,
                               derive_seed(task.root_seed, task.index, r, 1))
        result = _classify_all(grown, task.cutoff, task.horizon, task.params)
        prop_sum += result.distribution().proportions
        for rule, count in result.rule_counts().items():
            rules[rule] = rules.get(rule, 0) + count
    return prop_sum / task.runs, rules


def sweep(points, seed: SeedNetwork, schedule: YearSchedule,
          reference: CategoryDistribution, cutoff_year: int, horizon_year: int,
          classifier_params: ClassifierParams = ClassifierParams(),
          runs_per_point: int = 3, rng_seed: int = 0, jobs: int = 1) -> SweepResult:
    """Score every grid point against the reference.

    Each point runs `runs_per_point` simulations with seeds derived from
    (rng_seed, point index, run index); proportions are averaged across
    runs before scoring. Rows come back sorted by jsd2 ascending with the
    arg-min flagged best. Results do not depend on `jobs`.
    """
    points = list(points)
    if not points:
        raise ValidationError("sweep needs at least one grid point")
    if runs_per_point < 1:
        raise ValidationError(f"runs_per_point must be >= 1, got {runs_per_point}")
    param_names: list[str] = []
    for pt in points:
        for name in pt.params:
            if name not in param_names:
                param_names.append(name)

    tasks = [
        _SweepTask(i, pt.model, seed, schedule, int(cutoff_year), int(horizon_year),
                   classifier_params, int(runs_per_point), int(rng_seed))
        for i, pt in enumerate(points)
    ]
    # pool.map and the list both return results in task order
    if jobs > 1:
        # imported here: the process pool pulls in multiprocessing, socket
        # and logging, which nothing else in citegrow needs
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_run_sweep_point, tasks))
    else:
        results = [_run_sweep_point(t) for t in tasks]

    ref = reference.proportions
    scored = []
    for i, (pt, (props, rules)) in enumerate(zip(points, results)):
        dist = CategoryDistribution.from_proportions(props)
        scored.append((jsd2(dist.proportions, ref), i, pt, dist, rules))
    scored.sort(key=lambda item: (item[0], item[1]))
    rows = tuple(
        SweepRow(params=pt.params, distribution=dist, jsd2=score, decision_rules=rules,
                 best=(rank == 0))
        for rank, (score, _, pt, dist, rules) in enumerate(scored)
    )
    return SweepResult(rows=rows, param_names=tuple(param_names))


# -- classifier sensitivity ----------------------------------------------------

@dataclass(frozen=True)
class SensitivityRow:
    """Proportion ratio of one category at one (activation, threshold)
    grid point, relative to the default parameters. None when the default
    proportion is zero (the ratio is undefined)."""

    activation: int
    threshold: float
    category: str
    ratio: float | None


@dataclass(frozen=True)
class SensitivityResult:
    """The grid's rows, the distribution under the defaults and how many
    nodes each decision rule settled under the defaults."""

    rows: tuple
    baseline: CategoryDistribution
    defaults: ClassifierParams
    decision_rules: dict

    def to_csv(self, path) -> None:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["activation", "threshold", "category", "ratio"])
            for row in self.rows:
                ratio = "undefined" if row.ratio is None else f"{row.ratio:.6f}"
                writer.writerow([row.activation, f"{row.threshold:.6f}",
                                 row.category, ratio])


def sensitivity(graph, cutoff_year: int, horizon_year: int,
                activation_values, threshold_values,
                defaults: ClassifierParams = ClassifierParams()) -> SensitivityResult:
    """Classifier-robustness grid.

    Re-classifies the graph at every (activation, threshold) combination
    and reports each category's proportion as a ratio against the
    proportion under `defaults`. The default values must lie inside the
    swept ranges. One classification scores the whole grid, defaults
    included: one peak pass per threshold serves every activation period.
    """
    activations = [int(a) for a in activation_values]
    thresholds = [float(t) for t in threshold_values]
    if not activations or not thresholds:
        raise ValidationError("sensitivity needs non-empty parameter ranges")
    if not min(activations) <= defaults.activation_period <= max(activations):
        raise ValidationError(
            f"default activation {defaults.activation_period} lies outside the swept "
            f"range {min(activations)}..{max(activations)}")
    if not min(thresholds) <= defaults.peak_threshold <= max(thresholds) + 1e-12:
        raise ValidationError(
            f"default threshold {defaults.peak_threshold} lies outside the swept "
            f"range {min(thresholds)}..{max(thresholds)}")

    # grid positions of each distinct value, the defaults' included
    t_index = {t: i for i, t in enumerate(dict.fromkeys(
        [*thresholds, defaults.peak_threshold]))}
    a_index = {a: i for i, a in enumerate(dict.fromkeys(
        [*activations, defaults.activation_period]))}
    grid = _classify_all(graph, cutoff_year, horizon_year, defaults,
                         thresholds=list(t_index), activations=list(a_index))
    base = grid.at(t_index[defaults.peak_threshold], a_index[defaults.activation_period])
    baseline = base.distribution()
    rows = []
    for a in activations:
        for th in thresholds:
            replace(defaults, activation_period=a, peak_threshold=th)  # validates the pair
            dist = grid.at(t_index[th], a_index[a]).distribution()
            for cat, x, y in zip(CATEGORY_ORDER, dist.proportions, baseline.proportions):
                ratio = float(x) / float(y) if y > 0 else None
                rows.append(SensitivityRow(activation=a, threshold=th,
                                           category=cat.code, ratio=ratio))
    return SensitivityResult(rows=tuple(rows), baseline=baseline, defaults=defaults,
                             decision_rules=base.rule_counts())
