"""Core domain types: observed data, estimand taxonomy, nuisance values, reports.

All types are immutable after construction (arrays are copied and marked
read-only) and therefore safe to share across concurrent readers. With the
package-private ``_owned=True`` the arrays, which the caller has just
allocated and gives up, are marked read-only in place instead of copied, and
every check still runs.
"""

from __future__ import annotations

import enum
import numbers
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


def _frozen_array(values, name: str, ndim=1, owned=False) -> np.ndarray:
    """A read-only C-contiguous float copy of ``values`` as a ``ndim``-d array;
    when ``owned``, ``values`` itself, a C-contiguous float array which the
    caller has just allocated and gives up. ``None`` is refused; a 1-d array
    is one column where two dimensions are asked for, and no other is reshaped."""
    if values is None:
        raise ValidationError(f"{name} is required, got None")
    try:
        out = values if owned else np.array(values, dtype=float, copy=True, order="C")
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{name} must be an array of numbers: {exc}") from exc
    if ndim == 2 and out.ndim == 1:
        out = out.reshape(-1, 1)
    if out.ndim != ndim:
        raise LengthMismatchError(f"{name} must be a {ndim}-d array, got shape {out.shape}")
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
    """The six estimands, in canonical report order."""

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


KIND_ORDER = tuple(EstimandKind)


@dataclass(frozen=True, eq=False)
class Dataset:
    """Observed triples (y, a, x) stored as column arrays.

    Parameters
    ----------
    y : array of shape (n,)
        Outcome; may be 0/1-coded when ``outcome_kind`` is BINARY.
    a : array of shape (n,)
        Treatment indicator, stored as floats, every entry exactly 0.0 or 1.0.
    x : array of shape (n, d)
        Covariates; ``d = 0`` is allowed (intercept-only nuisance models).
        Stored C-contiguous, so every fit sums its columns in one order.
    outcome_kind : OutcomeKind
        Declared, never inferred: the binary-outcome sharp bound is offered
        only when the user asserts binariness.
    """

    y: np.ndarray
    a: np.ndarray
    x: np.ndarray
    outcome_kind: OutcomeKind = OutcomeKind.CONTINUOUS
    _owned: InitVar[bool] = False  # package-private

    def __post_init__(self, _owned):
        for name, ndim in (("y", 1), ("a", 1), ("x", 2)):
            object.__setattr__(self, name, _frozen_array(getattr(self, name), name, ndim, _owned))
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
    if not np.isin(a, (0.0, 1.0)).all():
        raise ValidationError("treatment indicator a must contain only 0 or 1")
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
        check_clip_eps(self.clip_eps)
        # mu0_hat, which every set has, comes last: a pi_hat of the wrong length
        # is reported against the first optional array present.
        for name in ("pi_hat", "mu1_hat", "sigma0_hat", "sigma1_hat", "mu0_hat"):
            v = getattr(self, name)
            if v is None and name not in ("pi_hat", "mu0_hat"):
                continue
            v = _frozen_array(v, name, owned=_owned)
            object.__setattr__(self, name, v)
            if v.shape[0] != self.n:  # pi_hat's length, once it is frozen
                raise LengthMismatchError(f"{name} has length {v.shape[0]}, expected {self.n}")
            if not np.isfinite(v).all():
                raise NonFiniteError(f"{name} must be finite")
            if name.startswith("sigma") and v.size and v.min() < 0:
                raise ValidationError(f"{name} must be nonnegative")
        pi, lo, hi = self.pi_hat, self.clip_eps, 1.0 - self.clip_eps
        if pi.size and (pi.min() < lo or pi.max() > hi):
            raise ValidationError(
                f"pi_hat must lie within [{lo}, {hi}]; range is [{pi.min()}, {pi.max()}]"
            )

    @property
    def n(self) -> int:
        return self.pi_hat.shape[0]


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
        for name in ("ci_lower", "ci_upper"):
            if not isinstance(getattr(self, name), numbers.Real):
                raise ValidationError(f"{name} must be a number, got {getattr(self, name)!r}")
        for name in ("variance", "conservative_simple", "conservative_sigma",
                     "conservative_fh", "variance_used"):
            v = getattr(self, name)
            if v is not None and not (isinstance(v, numbers.Real) and v >= 0.0):
                raise ValidationError(f"{name} must be nonnegative, got {v}")
        if not self.ci_lower <= self.ci_upper:
            raise ValidationError("ci_lower must not exceed ci_upper")


def check_ci_level(level: float) -> None:
    """Raise ``ValidationError`` unless the interval level is a number in (0, 1)
    and the level of its normal quantile, (1 + level) / 2, rounds below 1."""
    if not (isinstance(level, numbers.Real) and 0.0 < level < 1.0):
        raise ValidationError(f"ci_level must be in (0, 1), got {level}")
    if 0.5 * (1.0 + level) == 1.0:
        raise ValidationError(f"ci_level {level!r} gives no finite interval: (1 + ci_level) / 2 "
                              f"rounds to 1")


def _is_int(value) -> bool:
    """An int, Python or numpy, and not a bool."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def check_seed(seed) -> None:
    """Raise ``ValidationError`` unless ``seed`` is a non-negative int or a
    non-empty list or tuple of them; numpy's generators would refuse anything
    else with a bare ``TypeError`` or ``ValueError``, or take a float."""
    entries = seed if isinstance(seed, (list, tuple)) else (seed,)
    if not entries or not all(map(_is_int, entries)):
        raise ValidationError(f"seed must be an int or a non-empty list of ints, got {seed!r}")
    if any(s < 0 for s in entries):
        raise ValidationError(f"seed must be >= 0, got {seed}")


def check_count(name: str, value) -> None:
    """Raise ``ValidationError`` unless ``value`` is an int of at least 1."""
    if not _is_int(value):
        raise ValidationError(f"{name} must be an int, got {value!r}")
    if value < 1:
        raise ValidationError(f"{name} must be >= 1")


def check_clip_eps(clip_eps) -> None:
    """Raise ``ValidationError`` unless ``clip_eps`` is a number in (0, 0.5)."""
    if not (isinstance(clip_eps, numbers.Real) and 0.0 < clip_eps < 0.5):
        raise ValidationError(f"clip_eps must be in (0, 0.5), got {clip_eps}")


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
