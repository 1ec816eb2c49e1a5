"""Attachment models: weight rules, parameter containers, and samplers.

Five growth models share one interface. Writing D for a node's effective
degree, xi for its fitness and chi for its location, the attachment weight
of an existing node when one new node arrives is

    ba     D
    af     D + xi
    mf     D * xi
    lbm    exp(-gamma * dist(chi, chi_new)) * xi * D
    lbm-g  same rule as lbm; locations are drawn from a Gaussian active
           subspace whose mean performs a random walk during growth.

Selection probabilities are these weights normalized over existing nodes.
The decay gamma may depend on the current network size n: constant,
n, sqrt(n), or log(n). Effective degree defaults to in-degree + 1 so that
never-cited nodes stay reachable; "total" switches to in + out degree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from pathlib import Path

import numpy as np

from .errors import ValidationError

__all__ = [
    "ModelKind",
    "GammaRegime",
    "ShiftPolicy",
    "ActiveSubspace",
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


class ModelKind(str, Enum):
    BA = "ba"
    ADDITIVE = "af"
    MULTIPLICATIVE = "mf"
    LBM = "lbm"
    LBMG = "lbm-g"


_FITNESS_KINDS = {ModelKind.ADDITIVE, ModelKind.MULTIPLICATIVE, ModelKind.LBM, ModelKind.LBMG}
_LOCATION_KINDS = {ModelKind.LBM, ModelKind.LBMG}


@dataclass(frozen=True)
class GammaRegime:
    """Distance-decay strength as a function of network size n."""

    kind: str
    const: float | None = None

    _KINDS = ("const", "linear", "sqrt", "log")

    def __post_init__(self):
        if self.kind not in self._KINDS:
            raise ValidationError(
                f"unknown gamma regime {self.kind!r}; expected one of {self._KINDS}")
        if self.kind == "const":
            if self.const is None or self.const < 0:
                raise ValidationError("const gamma regime needs a value >= 0")
        elif self.const is not None:
            raise ValidationError(f"gamma regime {self.kind!r} takes no constant")

    @classmethod
    def constant(cls, value: float) -> "GammaRegime":
        return cls("const", float(value))

    @classmethod
    def linear(cls) -> "GammaRegime":
        return cls("linear")

    @classmethod
    def sqrt(cls) -> "GammaRegime":
        return cls("sqrt")

    @classmethod
    def log(cls) -> "GammaRegime":
        return cls("log")


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
        if self.unit not in ("months", "nodes"):
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
    """Full parameterization of one growth model.

    Only the fields a model actually uses may be set; everything else must
    stay None. Use the per-model constructors (`ModelSpec.ba()`, ...) or
    :func:`make_model` rather than filling fields by hand.
    """

    kind: ModelKind
    alpha: float | None = None
    xm: float | None = None
    dim: int | None = None
    gamma: GammaRegime | None = None
    sigma: float | None = None
    rho: float | None = None
    shift: ShiftPolicy | None = None
    degree_mode: str = "in-plus-one"

    def __post_init__(self):
        if self.degree_mode not in DEGREE_MODES:
            raise ValidationError(
                f"degree_mode must be one of {DEGREE_MODES}, got {self.degree_mode!r}")
        required = {"kind", "degree_mode"}
        if self.uses_fitness:
            required |= {"alpha", "xm"}
            if self.alpha is None or self.alpha <= 0:
                raise ValidationError(f"{self.kind.value}: fitness shape alpha must be > 0")
            if self.xm is None or self.xm <= 0:
                raise ValidationError(f"{self.kind.value}: fitness scale xm must be > 0")
        if self.uses_location:
            required |= {"dim", "gamma"}
            if self.dim is None or int(self.dim) < 1:
                raise ValidationError(f"{self.kind.value}: location dimension must be >= 1")
            if self.gamma is None:
                raise ValidationError(f"{self.kind.value}: gamma regime is required")
        if self.kind is ModelKind.LBMG:
            required |= {"sigma", "rho", "shift"}
            if self.sigma is None or self.sigma < 0:
                raise ValidationError("lbm-g: sigma must be >= 0")
            if self.rho is None or self.rho < 0:
                raise ValidationError("lbm-g: rho must be >= 0")
            if self.shift is None:
                raise ValidationError("lbm-g: shift policy is required")
        for name in ("alpha", "xm", "dim", "gamma", "sigma", "rho", "shift"):
            if name not in required and getattr(self, name) is not None:
                raise ValidationError(
                    f"{self.kind.value}: parameter {name!r} is not used by this model")

    @property
    def uses_fitness(self) -> bool:
        return self.kind in _FITNESS_KINDS

    @property
    def uses_location(self) -> bool:
        return self.kind in _LOCATION_KINDS

    # -- constructors ------------------------------------------------------

    @classmethod
    def ba(cls, degree_mode: str = "in-plus-one") -> "ModelSpec":
        return cls(ModelKind.BA, degree_mode=degree_mode)

    @classmethod
    def additive(cls, alpha: float = 2.0, xm: float = 1.0,
                 degree_mode: str = "in-plus-one") -> "ModelSpec":
        return cls(ModelKind.ADDITIVE, alpha=alpha, xm=xm, degree_mode=degree_mode)

    @classmethod
    def multiplicative(cls, alpha: float = 2.0, xm: float = 1.0,
                       degree_mode: str = "in-plus-one") -> "ModelSpec":
        return cls(ModelKind.MULTIPLICATIVE, alpha=alpha, xm=xm, degree_mode=degree_mode)

    @classmethod
    def lbm(cls, gamma: GammaRegime | None = None, dim: int = 2,
            alpha: float = 2.0, xm: float = 1.0,
            degree_mode: str = "in-plus-one") -> "ModelSpec":
        return cls(ModelKind.LBM, alpha=alpha, xm=xm, dim=dim,
                   gamma=gamma or GammaRegime.log(), degree_mode=degree_mode)

    @classmethod
    def lbmg(cls, sigma: float = 2.0, rho: float | None = None,
             shift_unit: str = "months", shift_every: float = 1,
             gamma: GammaRegime | None = None, dim: int = 2,
             alpha: float = 2.0, xm: float = 1.0,
             degree_mode: str = "in-plus-one") -> "ModelSpec":
        # rho defaults to sigma: one knob controls both spreads unless split
        return cls(ModelKind.LBMG, alpha=alpha, xm=xm, dim=dim,
                   gamma=gamma or GammaRegime.log(), sigma=sigma,
                   rho=sigma if rho is None else rho,
                   shift=ShiftPolicy(shift_unit, shift_every),
                   degree_mode=degree_mode)

    # -- flat config io ----------------------------------------------------

    def to_config_text(self) -> str:
        pairs: list[tuple[str, object]] = [("model", self.kind.value)]
        if self.uses_fitness:
            pairs += [("alpha", self.alpha), ("xm", self.xm)]
        if self.uses_location:
            pairs += [("dim", self.dim), ("gamma_regime", self.gamma.kind)]
            if self.gamma.kind == "const":
                pairs.append(("gamma_const", self.gamma.const))
        if self.kind is ModelKind.LBMG:
            pairs += [("sigma", self.sigma), ("rho", self.rho),
                      ("shift_unit", self.shift.unit), ("shift_every", self.shift.every)]
        pairs.append(("degree_mode", self.degree_mode))
        return "".join(f"{k} = {v}\n" for k, v in pairs)

    def to_config_file(self, path) -> None:
        Path(path).write_text(self.to_config_text(), encoding="utf-8")

    @classmethod
    def from_config_text(cls, text: str) -> "ModelSpec":
        kind, kwargs = parse_config_options(text)
        return make_model(kind, **kwargs)

    @classmethod
    def from_config_file(cls, path) -> "ModelSpec":
        return cls.from_config_text(Path(path).read_text(encoding="utf-8"))

    def with_params(self, **updates) -> "ModelSpec":
        return replace(self, **updates)


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
    converters = {
        "alpha": float, "xm": float, "dim": int, "gamma_regime": str,
        "gamma_const": float, "sigma": float, "rho": float,
        "shift_unit": str, "shift_every": float, "degree_mode": str,
    }
    kwargs: dict[str, object] = {}
    for key, value in options.items():
        if key not in converters:
            raise ValidationError(f"unknown config key {key!r}")
        try:
            kwargs[key] = converters[key](value)
        except ValueError:
            raise ValidationError(f"config key {key!r}: bad value {value!r}") from None
    return kind, kwargs


def make_model(kind: str, *, alpha: float | None = None, xm: float | None = None,
               dim: int | None = None, gamma_regime: str | None = None,
               gamma_const: float | None = None, sigma: float | None = None,
               rho: float | None = None, shift_unit: str | None = None,
               shift_every: float | None = None,
               degree_mode: str | None = None) -> ModelSpec:
    """Build a ModelSpec from flat option values, applying per-model
    defaults for everything left unset. Options a model does not use are
    rejected, except gamma_const, which only applies when the regime is
    "const" and is otherwise ignored (so one value can ride along a sweep
    that mixes regimes)."""
    try:
        mk = ModelKind(kind)
    except ValueError:
        raise ValidationError(
            f"unknown model {kind!r}; expected one of "
            f"{[m.value for m in ModelKind]}") from None

    supplied = {name: value for name, value in [
        ("alpha", alpha), ("xm", xm), ("dim", dim), ("gamma_regime", gamma_regime),
        ("gamma_const", gamma_const), ("sigma", sigma), ("rho", rho),
        ("shift_unit", shift_unit), ("shift_every", shift_every),
    ] if value is not None}

    allowed: set[str] = set()
    if mk in _FITNESS_KINDS:
        allowed |= {"alpha", "xm"}
    if mk in _LOCATION_KINDS:
        allowed |= {"dim", "gamma_regime", "gamma_const"}
    if mk is ModelKind.LBMG:
        allowed |= {"sigma", "rho", "shift_unit", "shift_every"}
    extras = sorted(set(supplied) - allowed)
    if extras:
        raise ValidationError(f"model {mk.value!r} does not use option(s): {', '.join(extras)}")

    dmode = degree_mode if degree_mode is not None else "in-plus-one"
    gamma = None
    if mk in _LOCATION_KINDS:
        regime = supplied.get("gamma_regime", "log")
        if regime == "const":
            gamma = GammaRegime.constant(supplied.get("gamma_const", 1.0))
        else:
            gamma = GammaRegime(regime)

    if mk is ModelKind.BA:
        return ModelSpec.ba(degree_mode=dmode)
    fit = {"alpha": supplied.get("alpha", 2.0), "xm": supplied.get("xm", 1.0)}
    if mk is ModelKind.ADDITIVE:
        return ModelSpec.additive(degree_mode=dmode, **fit)
    if mk is ModelKind.MULTIPLICATIVE:
        return ModelSpec.multiplicative(degree_mode=dmode, **fit)
    if mk is ModelKind.LBM:
        return ModelSpec.lbm(gamma=gamma, dim=int(supplied.get("dim", 2)),
                             degree_mode=dmode, **fit)
    return ModelSpec.lbmg(
        sigma=supplied.get("sigma", 2.0),
        rho=supplied.get("rho"),
        shift_unit=supplied.get("shift_unit", "months"),
        shift_every=supplied.get("shift_every", 1),
        gamma=gamma, dim=int(supplied.get("dim", 2)),
        degree_mode=dmode, **fit)


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
                       fitness: np.ndarray | None = None,
                       locations: np.ndarray | None = None,
                       new_location: np.ndarray | None = None,
                       gamma: float | None = None) -> np.ndarray:
    """Raw weight rule on plain arrays: the weight of each node for one
    incoming node. The growth loop calls it on its own state, for lbm and
    lbm-g at every insertion, for ba, af and mf once per run (their rule
    is affine in the effective degree)."""
    deg = np.asarray(eff_degrees, dtype=np.float64)
    if kind is ModelKind.BA:
        return deg.copy()
    if kind is ModelKind.ADDITIVE:
        return deg + fitness
    if kind is ModelKind.MULTIPLICATIVE:
        return deg * fitness
    diff = locations - new_location
    dist = np.sqrt(np.einsum("ij,ij->i", diff, diff))
    return np.exp(-gamma * dist) * fitness * deg
