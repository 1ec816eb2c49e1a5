"""Exact verification of one-step attachment dynamics.

For a small graph with t nodes and degree sum 2(t-1), one entrant node
arrives, cites exactly one existing node chosen in proportion to the
model's weights, and every attachment probability is recomputed over the
t+1 nodes. The expected change of node i's attachment probability can be
computed exactly by enumerating the t possible selection outcomes.

Closed forms checked against that enumeration, writing D_i for degree,
xi_i for fitness, Xi for total fitness, psi for sum(xi_j * D_j), and
xi_new for the entrant's fitness:

  ba  change = -D_i / (4 t (t-1)); exact.
  af  change = -(xi_i + D_i)(xi_new + 1) /
               ((Xi + 2(t-1)) (Xi + xi_new + 2t)); exact.
  mf  change >~ xi_i D_i * sum_l xi_l D_l (xi_i - xi_l - xi_new) /
               (psi^2 (psi + xi_i + xi_new)); an approximate lower bound
      whose error is O(max|xi_l - xi_i| / psi), so it is only meaningful
      when psi dwarfs every individual fitness.

The mf bound's sign says when a node can expect to gain probability: a
fitness high enough to dominate xi_l + xi_new for every l makes each
summand positive.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ValidationError
from .models import ModelKind, attachment_weights

__all__ = [
    "TheoryGraph",
    "random_theory_graph",
    "selection_probabilities",
    "exact_expected_change",
    "theorem_formula",
    "TheoremReport",
    "verify_theorem",
]

_THEORY_KINDS = (ModelKind.BA, ModelKind.ADDITIVE, ModelKind.MULTIPLICATIVE)
# node counts (inclusive ranges) of the mf fitness-scaling and bound checks
_MF_SCALING_SIZES = (10, 30)
_MF_BOUND_SIZES = (100, 300)


def _theory_kind(model) -> ModelKind:
    if model not in _THEORY_KINDS:  # a str enum: "ba" == ModelKind.BA
        raise ValidationError(
            f"attachment dynamics are stated for {[k.value for k in _THEORY_KINDS]}, "
            f"not {getattr(model, 'value', model)!r}")
    return ModelKind(model)


@dataclass(frozen=True)
class TheoryGraph:
    """Degree/fitness profile of a t-node connected-graph snapshot.

    Only degrees and fitness matter to the attachment rules, so edges are
    never materialized. Degrees must be positive integers summing to
    2(t-1), the degree sum of any t-node tree.
    """

    degrees: np.ndarray
    fitness: np.ndarray

    def __post_init__(self):
        deg = np.array(self.degrees, dtype=np.int64)
        fit = np.array(self.fitness, dtype=np.float64)
        if deg.ndim != 1 or deg.size < 2:
            raise ValidationError("a theory graph needs at least 2 nodes")
        if fit.shape != deg.shape:
            raise ValidationError("fitness must have one entry per node")
        if deg.min() < 1:
            raise ValidationError("every node needs degree >= 1")
        t = deg.size
        if int(deg.sum()) != 2 * (t - 1):
            raise ValidationError(
                f"degree sum {int(deg.sum())} != 2(t-1) = {2 * (t - 1)} for t = {t}")
        if fit.min() < 0:
            raise ValidationError("fitness must be non-negative")
        deg.flags.writeable = False
        fit.flags.writeable = False
        object.__setattr__(self, "degrees", deg)
        object.__setattr__(self, "fitness", fit)

    @property
    def t(self) -> int:
        return self.degrees.size

    @property
    def total_fitness(self) -> float:
        return float(self.fitness.sum())

    @property
    def fitness_degree_mass(self) -> float:
        return float(self.fitness @ self.degrees)

    def with_fitness(self, fitness) -> "TheoryGraph":
        return TheoryGraph(degrees=self.degrees.copy(), fitness=fitness)


def random_theory_graph(rng: np.random.Generator, t: int,
                        fitness: np.ndarray | None = None) -> TheoryGraph:
    """Random valid degree profile: 1 + multinomial(t-2) extra degree,
    which always realizes some tree. Fitness defaults to Pareto(2, 1)."""
    if t < 2:
        raise ValidationError(f"theory graphs need t >= 2, got {t}")
    extras = rng.multinomial(t - 2, np.full(t, 1.0 / t))
    degrees = 1 + extras
    if fitness is None:
        fitness = (1.0 + rng.pareto(2.0, size=t)) * 1.0
    return TheoryGraph(degrees=degrees, fitness=fitness)


def selection_probabilities(model, graph: TheoryGraph) -> np.ndarray:
    """Probability that the entrant cites each node."""
    kind = _theory_kind(model)
    w = attachment_weights(kind, graph.degrees, graph.fitness)
    total = w.sum()
    if total <= 0:
        raise ValidationError("all attachment weights are zero; selection is undefined")
    return w / total


def exact_expected_change(model, graph: TheoryGraph, new_fitness: float) -> np.ndarray:
    """E[p_i(after) - p_i(before)] for every node i, by enumerating the t
    possible selections. No closed form is consulted: for each outcome s
    the weights of the updated (t+1)-node graph are recomputed from the
    weight rule and renormalized."""
    kind = _theory_kind(model)
    if new_fitness < 0:
        raise ValidationError(f"entrant fitness must be >= 0, got {new_fitness}")
    P = selection_probabilities(kind, graph)

    t = graph.t
    expected_after = np.zeros(t, dtype=np.float64)
    entrant_w = float(attachment_weights(kind, np.array([1]), np.array([new_fitness]))[0])
    for s in range(t):
        deg_after = graph.degrees.astype(np.float64)
        deg_after[s] += 1.0
        w1 = attachment_weights(kind, deg_after, graph.fitness)
        total_after = w1.sum() + entrant_w
        expected_after += P[s] * (w1 / total_after)
    return expected_after - P


def theorem_formula(model, graph: TheoryGraph, new_fitness: float) -> np.ndarray:
    """Closed-form predicted change (ba, af) or approximate lower bound
    (mf) for every node. See the module docstring for the expressions."""
    kind = _theory_kind(model)
    if new_fitness < 0:
        raise ValidationError(f"entrant fitness must be >= 0, got {new_fitness}")
    t = graph.t
    D = graph.degrees.astype(np.float64)
    xi = graph.fitness
    if kind is ModelKind.BA:
        return -D / (4.0 * t * (t - 1))
    if kind is ModelKind.ADDITIVE:
        total = graph.total_fitness
        b = total + 2.0 * (t - 1)
        c = total + new_fitness + 2.0 * t
        return -(xi + D) * (new_fitness + 1.0) / (b * c)
    psi = graph.fitness_degree_mass
    if psi <= 0:
        raise ValidationError("mf bound needs positive fitness-degree mass")
    # row i: xi_l D_l (xi_i - xi_l - xi_new) over every l
    summed = (xi * D * (xi[:, None] - xi - new_fitness)).sum(axis=1)
    return xi * D * summed / (psi ** 2 * (psi + xi + new_fitness))


def _mf_bound_scale(graph: TheoryGraph, new_fitness: float) -> np.ndarray:
    """Natural magnitude of the mf bound per node: the sum of the absolute
    values of its positive and negative components. Relative deviations
    are measured against this, so near-cancellation of the two components
    cannot inflate them."""
    D = graph.degrees.astype(np.float64)
    xi = graph.fitness
    psi = graph.fitness_degree_mass
    denom = psi ** 2 * (psi + xi + new_fitness)
    positive = xi * D * float(np.sum(xi * D)) * xi / denom
    negative = xi * D * float(np.sum(xi * D * (xi + new_fitness))) / denom
    return positive + negative


@dataclass(frozen=True)
class TheoremReport:
    """Outcome of one verification run.

    For ba/af, `max_deviation` is the largest |enumeration - closed form|
    seen and `violations` counts deviations above tolerance. For mf,
    `violations` counts bound breaches beyond the relative slack plus
    fitness-scaling instances that never reached a positive expected
    change, and `max_deviation` is the largest relative bound shortfall.
    """

    model: str
    trials: int
    max_deviation: float
    violations: int
    passed: bool

    def as_json_dict(self) -> dict:
        return {
            "model": self.model,
            "trials": self.trials,
            "max_deviation": self.max_deviation,
            "violations": self.violations,
            "pass": self.passed,
        }

    def to_json(self, path) -> None:
        Path(path).write_text(json.dumps(self.as_json_dict(), indent=2, sort_keys=True) + "\n",
                              encoding="utf-8")


def verify_theorem(model, trials: int = 50, size_range: tuple = (2, 30),
                   rng_seed: int = 0, tolerance: float = 1e-12,
                   slack: float = 1e-2) -> TheoremReport:
    """Check the predicted attachment dynamics on random instances.

    ba/af: every node of `trials` random graphs with t drawn from
    `size_range`; enumeration must match the closed form within
    `tolerance` (absolute).

    mf: two checks, `trials` instances each. (1) Scaling the
    highest-fitness node's fitness by factors up to 1e6 must eventually
    make its exact expected change positive; instances use t from
    `_MF_SCALING_SIZES` and entrant fitness uniform on [1, 2], a regime
    where the network's remaining fitness-degree mass dominates the
    entrant (tiny graphs whose single entrant rivals the whole network
    genuinely escape the claim). (2) On graphs with t from
    `_MF_BOUND_SIZES`, fitness uniform on [0.5, 1.5] and entrant fitness
    uniform on [0.01, 0.1] (so psi >= 100 * max(xi_i + xi_new)), the
    enumerated change must not fall below the approximate bound by more
    than `slack`, relative to the bound's component magnitude.
    """
    kind = _theory_kind(model)
    if trials < 1:
        raise ValidationError(f"trials must be >= 1, got {trials}")
    if rng_seed < 0:
        raise ValidationError(f"rng seed must be >= 0, got {rng_seed}")
    lo, hi = int(size_range[0]), int(size_range[1])
    if lo < 2 or hi < lo:
        raise ValidationError(f"bad size range {size_range}")
    rng = np.random.default_rng(rng_seed)

    if kind in (ModelKind.BA, ModelKind.ADDITIVE):
        max_dev = 0.0
        violations = 0
        for _ in range(trials):
            t = int(rng.integers(lo, hi + 1))
            g = random_theory_graph(rng, t)
            new_fitness = float((1.0 + rng.pareto(2.0)) * 1.0)
            exact = exact_expected_change(kind, g, new_fitness)
            dev = float(np.abs(exact - theorem_formula(kind, g, new_fitness)).max())
            max_dev = max(max_dev, dev)
            if dev > tolerance:
                violations += 1
        return TheoremReport(model=kind.value, trials=trials, max_deviation=max_dev,
                             violations=violations, passed=violations == 0)

    # mf check 1: sufficiently high fitness turns the expected change positive
    violations = 0
    factors = 10.0 ** np.arange(7)
    for _ in range(trials):
        t = int(rng.integers(_MF_SCALING_SIZES[0], _MF_SCALING_SIZES[1] + 1))
        g = random_theory_graph(rng, t)
        new_fitness = float(rng.uniform(1.0, 2.0))
        top = int(np.argmax(g.fitness))
        reached_positive = False
        for f in factors:
            scaled = g.fitness.copy()
            scaled[top] *= f
            g_scaled = g.with_fitness(scaled)
            if exact_expected_change(kind, g_scaled, new_fitness)[top] > 0.0:
                reached_positive = True
                break
        if not reached_positive:
            violations += 1

    # mf check 2: enumeration never falls below the approximate bound
    max_shortfall = 0.0
    for _ in range(trials):
        for _attempt in range(100):
            t = int(rng.integers(_MF_BOUND_SIZES[0], _MF_BOUND_SIZES[1] + 1))
            fitness = rng.uniform(0.5, 1.5, size=t)
            g = random_theory_graph(rng, t, fitness=fitness)
            new_fitness = float(rng.uniform(0.01, 0.1))
            if g.fitness_degree_mass >= 100.0 * float(g.fitness.max() + new_fitness):
                break
        else:
            raise ValidationError("could not draw an mf bound-regime instance")
        exact = exact_expected_change(kind, g, new_fitness)
        bound = theorem_formula(kind, g, new_fitness)
        scale = _mf_bound_scale(g, new_fitness)
        ok = scale > 0.0
        shortfall = (bound[ok] - exact[ok]) / scale[ok]
        max_shortfall = max(max_shortfall, float(shortfall.max(initial=0.0)))
        violations += int(np.count_nonzero(shortfall > slack))
    return TheoremReport(model=kind.value, trials=trials,
                         max_deviation=max_shortfall,
                         violations=violations, passed=violations == 0)
