"""Core domain types: observed data, estimand taxonomy, nuisance values, reports.

All types are immutable after construction (arrays are copied and marked
read-only) and therefore safe to share across concurrent readers. With the
package-private ``_owned=True`` the arrays, which the caller has just
allocated and gives up, are marked read-only in place instead of copied, and
every check still runs.
"""

from __future__ import annotations

import enum
from dataclasses import InitVar, dataclass, field
from typing import Optional

import numpy as np

from .errors import (
    DegenerateTreatmentError,
    LengthMismatchError,
    NonBinaryOutcomeError,
    NonFiniteError,
    ValidationError,
)


def _frozen_array(values, dtype=float, ndim=1, owned=False) -> np.ndarray:
    """A read-only copy of ``values`` as a ``ndim``-d array of ``dtype``; when
    ``owned``, ``values`` itself, an array of that dtype and shape which the
    caller has just allocated and gives up."""
    out = values if owned else np.array(values, dtype=dtype, copy=True)
    if ndim == 1 and out.ndim != 1:
        out = out.reshape(-1)
    elif ndim == 2 and out.ndim == 1:
        out = out.reshape(-1, 1)
    if out.ndim != ndim:
        raise LengthMismatchError(f"expected a {ndim}-d array, got shape {out.shape}")
    out.flags.writeable = False
    return out


class OutcomeKind(enum.Enum):
    CONTINUOUS = "continuous"
    BINARY = "binary"


class Taxonomy(enum.Enum):
    """Interpretation family of an estimand.

    Literal estimands average over the treated units in the sample; figurative
    estimands weight every unit by the propensity score. The population effect
    admits both readings.
    """

    LITERAL = "literal"
    FIGURATIVE = "figurative"
    BOTH = "both"


class EstimandKind(enum.Enum):
    PATT = "patt"
    ACTT = "actt"
    SWATT = "swatt"
    CATT = "catt"
    SATT = "satt"
    MATT = "matt"

    @property
    def taxonomy(self) -> Taxonomy:
        if self is EstimandKind.PATT:
            return Taxonomy.BOTH
        if self in (EstimandKind.ACTT, EstimandKind.SWATT):
            return Taxonomy.FIGURATIVE
        return Taxonomy.LITERAL


#: Canonical report ordering for the six estimands.
KIND_ORDER = (
    EstimandKind.PATT,
    EstimandKind.ACTT,
    EstimandKind.SWATT,
    EstimandKind.CATT,
    EstimandKind.SATT,
    EstimandKind.MATT,
)


@dataclass(frozen=True, eq=False)
class Dataset:
    """Observed triples (y, a, x) stored as column arrays.

    Parameters
    ----------
    y : array of shape (n,)
        Outcome; may be 0/1-coded when ``outcome_kind`` is BINARY.
    a : array of shape (n,)
        Treatment indicator, every entry exactly 0 or 1.
    x : array of shape (n, d)
        Covariates; ``d = 0`` is allowed (intercept-only nuisance models).
    outcome_kind : OutcomeKind
        Declared, never inferred: the binary-outcome sharp bound is offered
        only when the user asserts binariness.
    """

    y: np.ndarray
    a: np.ndarray
    x: np.ndarray
    outcome_kind: OutcomeKind = OutcomeKind.CONTINUOUS
    _owned: InitVar[bool] = False  # package-private; a must then be int64

    def __post_init__(self, _owned):
        y = _frozen_array(self.y, owned=_owned)
        a_raw = self.a if _owned else np.array(self.a, dtype=float, copy=True).reshape(-1)
        x = _frozen_array(self.x, ndim=2, owned=_owned)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "x", x)
        if not np.isin(a_raw, (0.0, 1.0)).all():
            raise ValidationError("treatment indicator a must contain only 0 or 1")
        a = a_raw if _owned else a_raw.astype(np.int64)
        a.flags.writeable = False
        object.__setattr__(self, "a", a)
        validate(self)

    @property
    def n(self) -> int:
        return self.y.shape[0]

    @property
    def d(self) -> int:
        return self.x.shape[1]


def validate(dataset: Dataset) -> Dataset:
    """Check every Dataset invariant; return the dataset unchanged if all hold.

    Idempotent: a dataset that validates once validates again.
    """
    y, a, x = dataset.y, dataset.a, dataset.x
    n = y.shape[0]
    if a.shape[0] != n or x.shape[0] != n:
        raise LengthMismatchError(
            f"y, a, x must share length: got {n}, {a.shape[0]}, {x.shape[0]}"
        )
    if not np.isfinite(y).all():
        raise NonFiniteError("y contains non-finite values")
    if x.size and not np.isfinite(x).all():
        raise NonFiniteError("x contains non-finite values")
    n_treated = int(a.sum())
    if n_treated == n:
        raise DegenerateTreatmentError("no control units (all a = 1)")
    if n_treated == 0:
        raise DegenerateTreatmentError("no treated units (all a = 0)")
    if dataset.outcome_kind is OutcomeKind.BINARY and not np.isin(y, (0.0, 1.0)).all():
        raise NonBinaryOutcomeError("outcome_kind is BINARY but y has values outside {0, 1}")
    return dataset


@dataclass(frozen=True, eq=False)
class NuisanceValues:
    """Per-unit nuisance predictions from fitted or oracle models.

    ``pi_hat`` is always inside ``[clip_eps, 1 - clip_eps]`` (clipping attains
    the endpoints). ``mu1_hat`` and the conditional sds are optional because
    several estimands need neither.
    """

    pi_hat: np.ndarray
    mu0_hat: np.ndarray
    mu1_hat: Optional[np.ndarray] = None
    sigma0_hat: Optional[np.ndarray] = None
    sigma1_hat: Optional[np.ndarray] = None
    clip_eps: float = 0.01
    _owned: InitVar[bool] = False  # package-private, as for Dataset

    def __post_init__(self, _owned):
        if not 0.0 < self.clip_eps < 0.5:
            raise ValidationError(f"clip_eps must be in (0, 0.5), got {self.clip_eps}")
        pi = _frozen_array(self.pi_hat, owned=_owned)
        mu0 = _frozen_array(self.mu0_hat, owned=_owned)
        object.__setattr__(self, "pi_hat", pi)
        object.__setattr__(self, "mu0_hat", mu0)
        n = pi.shape[0]
        for name in ("mu1_hat", "sigma0_hat", "sigma1_hat"):
            v = getattr(self, name)
            if v is not None:
                v = _frozen_array(v, owned=_owned)
                object.__setattr__(self, name, v)
                if v.shape[0] != n:
                    raise LengthMismatchError(f"{name} has length {v.shape[0]}, expected {n}")
        if mu0.shape[0] != n:
            raise LengthMismatchError(f"mu0_hat has length {mu0.shape[0]}, expected {n}")
        for name in ("pi_hat", "mu0_hat", "mu1_hat", "sigma0_hat", "sigma1_hat"):
            v = getattr(self, name)
            if v is not None and not np.isfinite(v).all():
                raise NonFiniteError(f"{name} must be finite")
        lo, hi = self.clip_eps, 1.0 - self.clip_eps
        if pi.size and (pi.min() < lo or pi.max() > hi):
            raise ValidationError(
                f"pi_hat must lie within [{lo}, {hi}]; range is [{pi.min()}, {pi.max()}]"
            )
        for name in ("sigma0_hat", "sigma1_hat"):
            v = getattr(self, name)
            if v is not None and v.size and v.min() < 0:
                raise ValidationError(f"{name} must be nonnegative")

    @property
    def n(self) -> int:
        return self.pi_hat.shape[0]


@dataclass(frozen=True, eq=False)
class IfComponents:
    """Per-unit plug-in values of the score decomposition.

    ``psi_y + psi_a + psi_x`` reproduces the closed-form per-unit score exactly
    (up to floating-point rounding); ``tau_y`` is the control-residual
    component driving the literal estimands.
    """

    psi_y: np.ndarray
    psi_a: np.ndarray
    psi_x: np.ndarray
    tau_y: np.ndarray

    def __post_init__(self):
        arrays = {k: _frozen_array(getattr(self, k)) for k in ("psi_y", "psi_a", "psi_x", "tau_y")}
        n = arrays["psi_y"].shape[0]
        for name, arr in arrays.items():
            if arr.shape[0] != n:
                raise LengthMismatchError("influence components must share length")
            object.__setattr__(self, name, arr)

    @property
    def psi_dot(self) -> np.ndarray:
        """Per-unit plug-in score, summed from its three components."""
        return self.psi_y + self.psi_a + self.psi_x


@dataclass(frozen=True)
class KindInference:
    """Variance and confidence interval reported for one estimand.

    Exactly one of two shapes is populated: plain kinds carry ``variance``;
    SWATT carries the conservative family plus ``variance_used`` (the smallest
    available conservative variance, which backs the interval).
    """

    ci_lower: float
    ci_upper: float
    variance: Optional[float] = None
    conservative_simple: Optional[float] = None
    conservative_sigma: Optional[float] = None
    conservative_fh: Optional[float] = None
    variance_used: Optional[float] = None

    def __post_init__(self):
        for name in ("variance", "conservative_simple", "conservative_sigma",
                     "conservative_fh", "variance_used"):
            v = getattr(self, name)
            if v is not None and not v >= 0.0:
                raise ValidationError(f"{name} must be nonnegative, got {v}")
        if not self.ci_lower <= self.ci_upper:
            raise ValidationError("ci_lower must not exceed ci_upper")


def check_ci_level(level: float) -> None:
    """Raise ``ValidationError`` unless the interval level lies in (0, 1)."""
    if not 0.0 < level < 1.0:
        raise ValidationError(f"ci_level must be in (0, 1), got {level}")


def check_seed(seed) -> None:
    """Raise ``ValidationError`` for a negative seed or a seed list with a negative
    entry, which numpy's generators would refuse with a bare ``ValueError``."""
    entries = seed if isinstance(seed, (list, tuple)) else (seed,)
    if any(isinstance(s, (int, np.integer)) and s < 0 for s in entries):
        raise ValidationError(f"seed must be >= 0, got {seed}")


@dataclass(frozen=True)
class EstimateReport:
    """Full output of an estimation run: one point estimate, per-kind inference."""

    psi_hat: float
    n: int
    p_n_a: float
    per_kind: dict
    ci_level: float
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self):
        check_ci_level(self.ci_level)
        for kind, inf in self.per_kind.items():
            if not (inf.ci_lower <= self.psi_hat <= inf.ci_upper):
                raise ValidationError(f"psi_hat outside the {kind} interval")
