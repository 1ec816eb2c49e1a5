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
mf rule for lbm and lbm-g); `spatial` computes the factor.
The decay gamma may depend on the current network size n: constant,
n, sqrt(n), or log(n) (`ModelSpec.gamma_at`). Effective degree defaults
to in-degree + 1 so that never-cited nodes stay reachable; "total"
switches to in + out degree.

The models differ only in which of ten flat options they read. Each option
is defined once, in MODEL_OPTIONS; ModelSpec, make_model, config text and
the CLI flags all follow that table, and ModelOption.convert is the only
code that converts or checks an option value.
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
    "MODEL_OPTIONS",
    "ModelSpec",
    "make_model",
    "parse_config_options",
    "sample_fitness",
    "sample_location_uniform",
    "sample_location_active",
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

    def convert(self, kind: ModelKind, value):
        """`value` as the option's type. Rejects a value that does not
        convert, a non-finite float, an int given as a fraction, and a
        value outside the bound or choices."""
        try:
            converted = self.type(value)
        except (TypeError, ValueError, OverflowError):
            raise ValidationError(
                f"{kind.value}: {self.name} needs a {self.type.__name__}, "
                f"got {value!r}") from None
        if self.type is int and not isinstance(value, str) and converted != value:
            raise ValidationError(
                f"{kind.value}: {self.name} must be a whole number, got {value!r}")
        if self.type is float and not math.isfinite(converted):
            raise ValidationError(f"{kind.value}: {self.name} must be finite, got {value!r}")
        if self.choices is not None and converted not in self.choices:
            raise ValidationError(
                f"{kind.value}: {self.name} must be one of {self.choices}, got {converted!r}")
        if self.bound is not None and not _BOUNDS[self.bound[0]](converted, self.bound[1]):
            raise ValidationError(
                f"{kind.value}: {self.name} must be {self.bound[0]} {self.bound[1]}, "
                f"got {converted!r}")
        return converted


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
class ModelSpec:
    """Full parameterization of one growth model: the kind plus one field
    per entry of :data:`MODEL_OPTIONS`, in table order.

    Options the kind does not read must stay None. The kind's own options
    take the table default when unset, are converted to the table type
    (floats must be finite, ints whole), and must satisfy the table's
    bound or choices; node shift intervals must be whole. Build one with
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
        for opt in MODEL_OPTIONS:
            value = getattr(self, opt.name)
            value = opt.default if value is None else value
            if kind in opt.kinds and value is not None:  # rho's default is None
                object.__setattr__(self, opt.name, opt.convert(kind, value))
        if self.rho is None:  # the walk step follows sigma unless given
            object.__setattr__(self, "rho", self.sigma)
        if self.gamma_regime != "const":  # gamma_const only counts under "const"
            object.__setattr__(self, "gamma_const", None)
        if self.shift_unit == "nodes" and not self.shift_every.is_integer():
            raise ValidationError(
                f"{kind.value}: shift_every must be a whole number of nodes, "
                f"got {self.shift_every!r}")

    @property
    def uses_fitness(self) -> bool:
        return self.kind in _FITNESS_KINDS

    @property
    def uses_location(self) -> bool:
        return self.kind in _LOCATION_KINDS

    def gamma_at(self, n):
        """The lbm/lbm-g decay strength gamma at network size `n`, an int;
        or, for a 1-D int array `n`, an array holding the gamma of each of
        its sizes, to the bit.

        math.log of the int n, not numpy's: numpy's log can differ from
        math.log by one ulp, which would move every graph. np.sqrt rounds
        correctly, as math.sqrt does."""
        many = np.ndim(n) > 0
        if self.gamma_regime == "const":
            return np.full(np.shape(n), self.gamma_const) if many else self.gamma_const
        if self.gamma_regime == "linear":
            return np.asarray(n, dtype=np.float64) if many else float(n)
        if self.gamma_regime == "sqrt":
            return np.sqrt(np.asarray(n, dtype=np.float64)) if many else math.sqrt(n)
        if np.any(np.less(n, 2)):
            raise ValidationError("log gamma regime needs at least 2 nodes")
        if many:
            return np.fromiter(map(math.log, np.asarray(n).tolist()), np.float64, np.size(n))
        return math.log(n)

    def to_config_text(self) -> str:
        """Flat 'key = value' lines: the model, then every option the kind
        reads, in table order."""
        lines = [f"model = {self.kind.value}\n"]
        for opt in MODEL_OPTIONS:
            value = getattr(self, opt.name)
            if value is not None:
                lines.append(f"{opt.name} = {value}\n")
        return "".join(lines)


def parse_config_options(text: str) -> tuple[str, dict[str, str]]:
    """Parse flat 'key = value' config text into (model kind, option
    dict) for :func:`make_model`, which converts and checks the values;
    both come back as text. Blank lines and '#' comments are ignored;
    unknown and duplicate keys are rejected."""
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
    names = {opt.name for opt in MODEL_OPTIONS}
    for key in options:
        if key not in names:
            raise ValidationError(f"unknown config key {key!r}")
    return kind, options


def make_model(kind: str, **options) -> ModelSpec:
    """Build a ModelSpec from a kind name and flat option values (the
    names of :data:`MODEL_OPTIONS`), applying the table defaults for
    everything left unset. Values may be given as text; the table
    converts and checks each one. Options the model does not use are
    rejected, except gamma_const, which only applies when the regime is
    "const" and is otherwise checked and dropped (so one value can ride
    along a sweep that mixes regimes)."""
    try:
        mk = ModelKind(kind)
    except ValueError:
        raise ValidationError(
            f"unknown model {kind!r}; expected one of "
            f"{[m.value for m in ModelKind]}") from None
    return ModelSpec(mk, **options)


# -- samplers ---------------------------------------------------------------

def sample_fitness(rng: np.random.Generator, alpha: float, xm: float,
                   size: int) -> np.ndarray:
    """Classical Pareto(alpha, xm) variates: support [xm, inf),
    P(X > x) = (xm / x) ** alpha."""
    if alpha <= 0 or xm <= 0:
        raise ValidationError(f"Pareto needs alpha > 0 and xm > 0, got {alpha}, {xm}")
    # numpy's pareto() is the Lomax shift: classical = (1 + Lomax) * xm
    return (1.0 + rng.pareto(alpha, size=size)) * xm


def sample_location_uniform(rng: np.random.Generator, dim: int, size: int) -> np.ndarray:
    """`size` uniform locations on the unit hypercube [0, 1)^dim."""
    if dim < 1:
        raise ValidationError(f"location dimension must be >= 1, got {dim}")
    return rng.random((size, dim))


def sample_location_active(rng: np.random.Generator, mean: np.ndarray, sigma: float,
                           size: int) -> np.ndarray:
    """`size` locations from the active subspace N(mean, sigma^2 I).
    sigma == 0 returns the mean exactly (no rng consumed)."""
    if sigma == 0.0:
        return np.tile(mean, (size, 1))
    return rng.normal(mean, sigma, size=(size, len(mean)))


# -- attachment weights -------------------------------------------------------

def attachment_weights(kind: ModelKind, eff_degrees: np.ndarray,
                       fitness: np.ndarray | None = None) -> np.ndarray:
    """The degree/fitness rule on plain arrays: ba D, af D + xi, and
    D * xi for mf, lbm and lbm-g. lbm and lbm-g scale this by the
    distance factor, which `spatial` computes relative to the nearest node,
    at each insertion. The growth loop evaluates it
    once per run; the rule is affine in the effective degree, so a
    citation adds the fixed gain w(1) - w(0)."""
    deg = np.asarray(eff_degrees, dtype=np.float64)
    if kind is ModelKind.BA:
        return deg.copy()
    if kind is ModelKind.ADDITIVE:
        return deg + fitness
    return deg * fitness
