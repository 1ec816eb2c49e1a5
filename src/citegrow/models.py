"""Attachment models: weight rules, parameter containers, and samplers.

Five growth models share one interface. Writing D for a node's effective
degree, xi for its fitness and chi for its location, the attachment weight
of an existing node when one new node arrives is

    ba     D
    af     D + xi
    mf     D * xi
    lbm    xi * D * exp(-gamma * dist(chi, chi_new))
    lbm-g  same rule as lbm; locations are drawn from a Gaussian active
           subspace whose mean performs a random walk during growth.

Selection probabilities are these weights normalized over existing nodes.
An lbm or lbm-g weight is the mf weight xi * D times a distance factor
that localizes a node's influence around its location.
`attachment_weights` evaluates the degree/fitness part of every rule (the
mf rule for lbm and lbm-g) and `distance_decay` the factor.
The decay gamma may depend on the current network size n: constant,
n, sqrt(n), or log(n). Effective degree defaults to in-degree + 1 so that
never-cited nodes stay reachable; "total" switches to in + out degree.

The models differ only in which of ten flat options they read. Each option
is defined once, in MODEL_OPTIONS; ModelSpec, make_model, config text and
the CLI flags all follow that table.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import ValidationError

__all__ = [
    "ModelKind",
    "GammaRegime",
    "ShiftPolicy",
    "ActiveSubspace",
    "MODEL_OPTIONS",
    "ModelSpec",
    "make_model",
    "parse_config_options",
    "gamma_value",
    "sample_fitness",
    "sample_location_uniform",
    "sample_location_active",
    "shift_subspace",
    "shift_due",
]

DEGREE_MODES = ("in-plus-one", "total")
GAMMA_REGIMES = ("const", "linear", "sqrt", "log")
SHIFT_UNITS = ("months", "nodes")


class ModelKind(str, Enum):
    BA = "ba"
    ADDITIVE = "af"
    MULTIPLICATIVE = "mf"
    LBM = "lbm"
    LBMG = "lbm-g"


_FITNESS_KINDS = frozenset({ModelKind.ADDITIVE, ModelKind.MULTIPLICATIVE,
                            ModelKind.LBM, ModelKind.LBMG})
_LOCATION_KINDS = frozenset({ModelKind.LBM, ModelKind.LBMG})
_SUBSPACE_KINDS = frozenset({ModelKind.LBMG})

_BOUNDS = {">": operator.gt, ">=": operator.ge}


@dataclass(frozen=True)
class ModelOption:
    """One flat model option: its name (also the config key and, with
    dashes, the CLI flag), value type, default, the model kinds that read
    it, and the values it admits (a bound like (">", 0), or choices)."""

    name: str
    type: type
    default: object
    kinds: frozenset
    bound: tuple | None = None
    choices: tuple | None = None

    def check(self, kind: ModelKind, value) -> None:
        if self.choices is not None and value not in self.choices:
            raise ValidationError(
                f"{kind.value}: {self.name} must be one of {self.choices}, got {value!r}")
        if self.bound is not None and not _BOUNDS[self.bound[0]](value, self.bound[1]):
            raise ValidationError(
                f"{kind.value}: {self.name} must be {self.bound[0]} {self.bound[1]}, "
                f"got {value!r}")


# The option table, in config-file order. Two rules tie options together
# and live in ModelSpec: rho (default None) follows sigma, and gamma_const
# is ignored unless the regime is "const".
MODEL_OPTIONS = (
    ModelOption("alpha", float, 2.0, _FITNESS_KINDS, bound=(">", 0)),
    ModelOption("xm", float, 1.0, _FITNESS_KINDS, bound=(">", 0)),
    ModelOption("dim", int, 2, _LOCATION_KINDS, bound=(">=", 1)),
    ModelOption("gamma_regime", str, "log", _LOCATION_KINDS, choices=GAMMA_REGIMES),
    ModelOption("gamma_const", float, 1.0, _LOCATION_KINDS, bound=(">=", 0)),
    ModelOption("sigma", float, 2.0, _SUBSPACE_KINDS, bound=(">=", 0)),
    ModelOption("rho", float, None, _SUBSPACE_KINDS, bound=(">=", 0)),
    ModelOption("shift_unit", str, "months", _SUBSPACE_KINDS, choices=SHIFT_UNITS),
    ModelOption("shift_every", float, 1.0, _SUBSPACE_KINDS, bound=(">", 0)),
    ModelOption("degree_mode", str, "in-plus-one", frozenset(ModelKind),
                choices=DEGREE_MODES),
)


@dataclass(frozen=True)
class GammaRegime:
    """Distance-decay strength as a function of network size n."""

    kind: str
    const: float | None = None

    def __post_init__(self):
        if self.kind not in GAMMA_REGIMES:
            raise ValidationError(
                f"unknown gamma regime {self.kind!r}; expected one of {GAMMA_REGIMES}")
        if self.kind == "const":
            if self.const is None or self.const < 0:
                raise ValidationError("const gamma regime needs a value >= 0")
        elif self.const is not None:
            raise ValidationError(f"gamma regime {self.kind!r} takes no constant")


def gamma_value(regime: GammaRegime, n_nodes: int) -> float:
    """Evaluate a decay regime at network size `n_nodes`."""
    n = int(n_nodes)
    if n < 1:
        raise ValidationError(f"network size must be >= 1, got {n}")
    if regime.kind == "const":
        return float(regime.const)
    if regime.kind == "linear":
        return float(n)
    if regime.kind == "sqrt":
        return math.sqrt(n)
    if n < 2:
        raise ValidationError("log gamma regime needs at least 2 nodes")
    return math.log(n)


@dataclass(frozen=True)
class ShiftPolicy:
    """When the active-subspace mean moves: every S months of simulated
    time, or after every S inserted nodes."""

    unit: str
    every: float

    def __post_init__(self):
        if self.unit not in SHIFT_UNITS:
            raise ValidationError(f"shift unit must be 'months' or 'nodes', got {self.unit!r}")
        if self.unit == "nodes":
            if self.every != int(self.every) or self.every < 1:
                raise ValidationError(f"node-based shifts need a positive integer, got {self.every}")
        elif self.every <= 0:
            raise ValidationError(f"month-based shifts need a positive interval, got {self.every}")
        object.__setattr__(self, "every", float(self.every))


def shift_due(policy: ShiftPolicy, years_since_shift: float, nodes_since_shift: int) -> bool:
    """True when a mean shift is owed under `policy`."""
    if policy.unit == "months":
        # tolerance absorbs float error in the (j+1)/m sub-year clock
        return years_since_shift >= policy.every / 12.0 - 1e-12
    return nodes_since_shift >= policy.every


@dataclass(frozen=True)
class ActiveSubspace:
    """Gaussian region locations are currently drawn from: N(mu, sigma^2 I)."""

    mu: np.ndarray
    sigma: float
    shifts_applied: int = 0

    def __post_init__(self):
        mu = np.array(self.mu, dtype=np.float64)
        if mu.ndim != 1 or mu.size == 0:
            raise ValidationError("subspace mean must be a non-empty 1-D vector")
        if self.sigma < 0:
            raise ValidationError(f"sigma must be >= 0, got {self.sigma}")
        mu.flags.writeable = False
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "sigma", float(self.sigma))

    @property
    def dim(self) -> int:
        return self.mu.size


@dataclass(frozen=True)
class ModelSpec:
    """Full parameterization of one growth model: the kind plus one field
    per entry of :data:`MODEL_OPTIONS`, in table order.

    Options the kind does not read must stay None. The kind's own options
    take the table default when unset, are converted to the table type,
    and must satisfy the table's bound or choices. Build one with
    :func:`make_model`.
    """

    kind: ModelKind
    alpha: float | None = None
    xm: float | None = None
    dim: int | None = None
    gamma_regime: str | None = None
    gamma_const: float | None = None
    sigma: float | None = None
    rho: float | None = None
    shift_unit: str | None = None
    shift_every: float | None = None
    degree_mode: str | None = None

    def __post_init__(self):
        kind = self.kind
        unused = [opt.name for opt in MODEL_OPTIONS
                  if kind not in opt.kinds and getattr(self, opt.name) is not None]
        if unused:
            raise ValidationError(
                f"model {kind.value!r} does not use option(s): {', '.join(sorted(unused))}")
        own = [opt for opt in MODEL_OPTIONS if kind in opt.kinds]
        for opt in own:
            if getattr(self, opt.name) is None:
                object.__setattr__(self, opt.name, opt.default)
        if self.rho is None:  # the walk step follows sigma unless given
            object.__setattr__(self, "rho", self.sigma)
        if self.gamma_regime != "const":  # gamma_const only counts under "const"
            object.__setattr__(self, "gamma_const", None)
        for opt in own:
            value = getattr(self, opt.name)
            if value is None:
                continue
            try:
                value = opt.type(value)
            except (TypeError, ValueError):
                raise ValidationError(
                    f"{kind.value}: {opt.name} needs a {opt.type.__name__}, "
                    f"got {value!r}") from None
            opt.check(kind, value)
            object.__setattr__(self, opt.name, value)
        if kind in _SUBSPACE_KINDS:
            ShiftPolicy(self.shift_unit, self.shift_every)  # node intervals must be whole

    @property
    def uses_fitness(self) -> bool:
        return self.kind in _FITNESS_KINDS

    @property
    def uses_location(self) -> bool:
        return self.kind in _LOCATION_KINDS

    @property
    def gamma(self) -> GammaRegime | None:
        return GammaRegime(self.gamma_regime, self.gamma_const) if self.uses_location else None

    @property
    def shift(self) -> ShiftPolicy | None:
        if self.kind not in _SUBSPACE_KINDS:
            return None
        return ShiftPolicy(self.shift_unit, self.shift_every)

    def to_config_text(self) -> str:
        """Flat 'key = value' lines: the model, then every option the kind
        reads, in table order."""
        lines = [f"model = {self.kind.value}\n"]
        for opt in MODEL_OPTIONS:
            value = getattr(self, opt.name)
            if value is not None:
                lines.append(f"{opt.name} = {value}\n")
        return "".join(lines)


def parse_config_options(text: str) -> tuple[str, dict]:
    """Parse flat 'key = value' config text into (model kind, option dict)
    suitable for :func:`make_model`. Blank lines and '#' comments are
    ignored; unknown keys are rejected."""
    options: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValidationError(f"config line {lineno}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in options:
            raise ValidationError(f"config line {lineno}: duplicate key {key!r}")
        options[key] = value
    if "model" not in options:
        raise ValidationError("config is missing the 'model' key")
    kind = options.pop("model")
    converters = {opt.name: opt.type for opt in MODEL_OPTIONS}
    kwargs: dict[str, object] = {}
    for key, value in options.items():
        if key not in converters:
            raise ValidationError(f"unknown config key {key!r}")
        try:
            kwargs[key] = converters[key](value)
        except ValueError:
            raise ValidationError(f"config key {key!r}: bad value {value!r}") from None
    return kind, kwargs


def make_model(kind: str, **options) -> ModelSpec:
    """Build a ModelSpec from a kind name and flat option values (the
    names of :data:`MODEL_OPTIONS`), applying the table defaults for
    everything left unset. Options the model does not use are rejected,
    except gamma_const, which only applies when the regime is "const" and
    is otherwise ignored (so one value can ride along a sweep that mixes
    regimes)."""
    try:
        mk = ModelKind(kind)
    except ValueError:
        raise ValidationError(
            f"unknown model {kind!r}; expected one of "
            f"{[m.value for m in ModelKind]}") from None
    return ModelSpec(mk, **options)


# -- samplers ---------------------------------------------------------------

def sample_fitness(rng: np.random.Generator, alpha: float, xm: float, size=None):
    """Classical Pareto(alpha, xm) variates: support [xm, inf),
    P(X > x) = (xm / x) ** alpha."""
    if alpha <= 0 or xm <= 0:
        raise ValidationError(f"Pareto needs alpha > 0 and xm > 0, got {alpha}, {xm}")
    # numpy's pareto() is the Lomax shift: classical = (1 + Lomax) * xm
    draw = (1.0 + rng.pareto(alpha, size=size)) * xm
    return float(draw) if size is None else draw


def sample_location_uniform(rng: np.random.Generator, dim: int, size=None) -> np.ndarray:
    """Uniform location(s) on the unit hypercube [0, 1)^dim."""
    if dim < 1:
        raise ValidationError(f"location dimension must be >= 1, got {dim}")
    shape = (dim,) if size is None else (size, dim)
    return rng.random(shape)


def sample_location_active(rng: np.random.Generator, subspace: ActiveSubspace,
                           size=None) -> np.ndarray:
    """Location(s) from the active subspace. sigma == 0 returns the mean
    exactly (no rng consumed)."""
    if subspace.sigma == 0.0:
        if size is None:
            return subspace.mu.copy()
        return np.tile(subspace.mu, (size, 1))
    shape = (subspace.dim,) if size is None else (size, subspace.dim)
    return rng.normal(subspace.mu, subspace.sigma, size=shape)


def shift_subspace(subspace: ActiveSubspace, rho: float,
                   rng: np.random.Generator) -> ActiveSubspace:
    """One random-walk step of the subspace mean: mu' ~ N(mu, rho^2 I).
    rho == 0 keeps the mean in place but still counts as a shift."""
    if rho < 0:
        raise ValidationError(f"rho must be >= 0, got {rho}")
    mu = subspace.mu.copy() if rho == 0.0 else rng.normal(subspace.mu, rho)
    return ActiveSubspace(mu=mu, sigma=subspace.sigma,
                          shifts_applied=subspace.shifts_applied + 1)


def initial_subspace(model: ModelSpec) -> ActiveSubspace:
    """Starting subspace for a growth run: centered on the unit hypercube."""
    if model.kind is not ModelKind.LBMG:
        raise ValidationError("only lbm-g uses an active subspace")
    return ActiveSubspace(mu=np.full(model.dim, 0.5), sigma=model.sigma)


# -- attachment weights -------------------------------------------------------

def attachment_weights(kind: ModelKind, eff_degrees: np.ndarray,
                       fitness: np.ndarray | None = None) -> np.ndarray:
    """The degree/fitness rule on plain arrays: ba D, af D + xi, and
    D * xi for mf, lbm and lbm-g. lbm and lbm-g scale this by
    :func:`distance_decay` at each insertion. The growth loop evaluates it
    once per run; the rule is affine in the effective degree, so a
    citation adds the fixed gain w(1) - w(0)."""
    deg = np.asarray(eff_degrees, dtype=np.float64)
    if kind is ModelKind.BA:
        return deg.copy()
    if kind is ModelKind.ADDITIVE:
        return deg + fitness
    return deg * fitness


def distance_decay(locations: np.ndarray, new_location: np.ndarray,
                   gamma: float) -> np.ndarray:
    """exp(-gamma * dist) from each of `locations` to `new_location`: the
    factor by which lbm and lbm-g localize the mf weight."""
    diff = locations - new_location
    return np.exp(-gamma * np.sqrt(np.einsum("ij,ij->i", diff, diff)))
