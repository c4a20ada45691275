"""Point estimator, influence components, variance estimators, intervals.

One point estimate serves all six estimands; they differ only in which
variance estimator calibrates the interval:

========  =====================================================================
kind      variance estimator
========  =====================================================================
patt      sample variance of the full per-unit score (closed form, no mu1)
actt      sample variance of (outcome + assignment) score components
catt      sample variance of the outcome score component
matt      sample variance of the control-residual component tau_y
satt      plug-in mean Pn[ pi (1-a) / (1-pi)^2 * ((y - mu0)/a_bar)^2 ]
swatt     conservative family: actt, actt - sigma bound, actt - FH bound
========  =====================================================================

Sample variances use divisor n, matching the plug-in empirical-measure
convention used throughout. All reported intervals are Wald intervals
``psi_hat +/- z * sqrt(V / n)``.

All operations are pure functions of immutable inputs and safe to call
concurrently.
"""

from __future__ import annotations

from functools import cached_property
from typing import Optional

import numpy as np

from .data_model import (
    Dataset,
    EstimandKind,
    EstimateReport,
    KindInference,
    NuisanceValues,
    OutcomeKind,
    KIND_ORDER,
    check_ci_level,
)
from .errors import (
    LengthMismatchError,
    MissingMu1Error,
    MissingSigmaError,
    NonFiniteEstimateError,
    NotBinaryOutcomeError,
    ValidationError,
)
from .mathutil import norm_quantile, select
from .nuisance import NuisanceConfig, compute_nuisances

class _Columns:
    """The formula table: per-unit columns of one sample and every quantity
    read off them, each built on first use and only once; ``a`` is the float
    treatment indicator. The estimator fills it through ``of``. The brute-force
    oracle fills it with true nuisances, E[pi] as ``a_bar`` and the population
    effect as ``psi``. Built directly it also takes inputs the validated
    Dataset rejects, such as all-treated data."""

    def __init__(self, y, a, pi, mu0, mu1=None, sigma0=None, sigma1=None, *, binary, a_bar,
                 psi=None):
        self.y, self.a, self.pi, self.mu0 = y, a, pi, mu0
        self.mu1, self.sigma0, self.sigma1 = mu1, sigma0, sigma1
        self.binary, self.a_bar = binary, a_bar
        if psi is not None:
            self.psi = psi

    @classmethod
    def of(cls, dataset: Dataset, nuis: NuisanceValues, psi=None) -> "_Columns":
        if nuis.n != dataset.n:
            raise LengthMismatchError(
                f"nuisance values have length {nuis.n}, dataset has {dataset.n}"
            )
        a = dataset.a.astype(float)
        return cls(dataset.y, a, nuis.pi_hat, nuis.mu0_hat, nuis.mu1_hat, nuis.sigma0_hat,
                   nuis.sigma1_hat, binary=dataset.outcome_kind is OutcomeKind.BINARY,
                   a_bar=float(a.mean()), psi=psi)

    def _require_mu1(self) -> np.ndarray:
        if self.mu1 is None:
            raise MissingMu1Error("mu1_hat is required for this quantity")
        return self.mu1

    @cached_property
    def terms(self):
        return (self.a - self.pi) * (self.y - self.mu0) / (self.a_bar * (1.0 - self.pi))

    @cached_property
    def psi(self) -> float:
        return float(np.mean(self.terms))

    @cached_property
    def comp(self):
        """Per-unit outcome, assignment and covariate scores ``(psi_y, psi_a, psi_x)``."""
        y, a, pi, mu0, mu1 = self.y, self.a, self.pi, self.mu0, self._require_mu1()
        contrast = mu1 - mu0 - self.psi
        psi_y = (y - select(a == 1, mu1, mu0)) * (a - (1.0 - a) * pi / (1.0 - pi)) / self.a_bar
        psi_a = (a - pi) * contrast / self.a_bar
        psi_x = pi * contrast / self.a_bar
        return psi_y, psi_a, psi_x

    @cached_property
    def tau_y(self):
        return (self.y - self.mu0) * (1.0 - self.a) * self.pi / (self.a_bar * (1.0 - self.pi))

    @cached_property
    def v_patt(self) -> float:
        """Closed-form per-unit score; needs no treated-arm outcome model."""
        return float(np.var(self.terms - self.a * self.psi / self.a_bar))

    @cached_property
    def v_actt(self) -> float:
        return float(np.var(self.comp[0] + self.comp[1]))

    @cached_property
    def v_catt(self) -> float:
        return float(np.var(self.comp[0]))

    @cached_property
    def v_matt(self) -> float:
        return float(np.var(self.tau_y))

    @cached_property
    def v_satt(self) -> float:
        pi, a = self.pi, self.a
        terms = pi * (1.0 - a) / (1.0 - pi) ** 2 * ((self.y - self.mu0) / self.a_bar) ** 2
        return float(terms.mean())

    @cached_property
    def v_sigma_bound(self) -> float:
        if self.sigma0 is None or self.sigma1 is None:
            raise MissingSigmaError("sigma0_hat and sigma1_hat are required")
        return float(np.mean(self.pi ** 2 * (self.sigma1 - self.sigma0) ** 2) / self.a_bar ** 2)

    @cached_property
    def v_fh_bound(self) -> float:
        if not self.binary:
            raise NotBinaryOutcomeError("the sharp bound applies to binary outcomes only")
        delta = np.abs(np.clip(self._require_mu1(), 0.0, 1.0) - np.clip(self.mu0, 0.0, 1.0))
        return float(np.mean(self.pi ** 2 * (delta - delta ** 2)))

    @cached_property
    def swatt(self):
        """The conservative swatt family as ``(report fields, diagnostics)``.

        Each variant is the actt variance less a part of the effect variance,
        floored at zero: the sigma bound when both sds are present, and
        Pn(a)^-2 times the FH bound for a binary outcome. The interval uses
        the smallest variant; the diagnostics flag each floor that applied
        and carry the bounds.
        """
        less, bounds = {}, {}
        if self.sigma0 is not None and self.sigma1 is not None:
            bounds["v_sigma_bound"] = less["sigma"] = self.v_sigma_bound
        if self.binary:
            bounds["v_fh_bound"] = self.v_fh_bound
            less["fh"] = self.v_fh_bound / self.a_bar ** 2
        fields = {"conservative_simple": self.v_actt, "conservative_sigma": None,
                  "conservative_fh": None}
        floored = {"swatt_sigma_floored": False, "swatt_fh_floored": False}
        for name, v in less.items():
            raw = self.v_actt - v
            fields[f"conservative_{name}"] = max(0.0, raw)
            floored[f"swatt_{name}_floored"] = raw < 0
        fields["variance_used"] = min(v for v in fields.values() if v is not None)
        return fields, {**floored, **bounds}


# ---------------------------------------------------------------------------
# Per-quantity operations, each reading one quantity off ``_Columns``. The
# package does not export them; the benchmark's tracer wraps them here by name.

def estimate_psi_hat(dataset: Dataset, nuis: NuisanceValues) -> float:
    """Doubly robust point estimate Pn[(a - pi)(y - mu0) / (Pn(a) (1 - pi))]."""
    return _Columns.of(dataset, nuis).psi


def if_components(dataset: Dataset, nuis: NuisanceValues, psi_hat: float) -> tuple:
    """Per-unit plug-in values ``(psi_y, psi_a, psi_x, tau_y)`` of the score split.

    ``psi_y + psi_a + psi_x`` reproduces the closed-form per-unit score up to
    rounding; ``tau_y`` is the control-residual component driving the
    literal estimands. Requires ``mu1_hat``: the assignment and covariate
    components carry the fitted effect contrast mu1 - mu0.
    """
    c = _Columns.of(dataset, nuis, psi_hat)
    return (*c.comp, c.tau_y)


def var_patt(dataset: Dataset, nuis: NuisanceValues, psi_hat: float) -> float:
    """Sample variance (divisor n) of the closed-form per-unit score.

    Deliberately computed without mu1 so that population-effect inference
    never requires a treated-arm outcome model.
    """
    return _Columns.of(dataset, nuis, psi_hat).v_patt


def var_actt(dataset: Dataset, nuis: NuisanceValues, psi_hat: float) -> float:
    """Sample variance of the outcome + assignment score components."""
    return _Columns.of(dataset, nuis, psi_hat).v_actt


def var_catt(dataset: Dataset, nuis: NuisanceValues, psi_hat: float) -> float:
    """Sample variance of the outcome score component."""
    return _Columns.of(dataset, nuis, psi_hat).v_catt


def var_matt(dataset: Dataset, nuis: NuisanceValues) -> float:
    """Sample variance of the control-residual component; needs only pi and mu0."""
    return _Columns.of(dataset, nuis).v_matt


def var_satt(dataset: Dataset, nuis: NuisanceValues) -> float:
    """Plug-in mean Pn[ pi (1-a) / (1-pi)^2 * ((y - mu0) / Pn(a))^2 ]."""
    return _Columns.of(dataset, nuis).v_satt


def var_sigma_bound(dataset: Dataset, nuis: NuisanceValues) -> float:
    """Pn(a)^-2 Pn[ pi^2 (sigma1 - sigma0)^2 ], the identified part of the
    conditional effect-variance that sharpens the swatt interval."""
    return _Columns.of(dataset, nuis).v_sigma_bound


def var_fh_binary(dataset: Dataset, nuis: NuisanceValues) -> float:
    """Binary-outcome sharp bound Pn[ pi^2 (|mu1 - mu0| - |mu1 - mu0|^2) ].

    Fitted means are clamped to [0, 1] first, so the integrand is nonnegative.
    """
    return _Columns.of(dataset, nuis).v_fh_bound


def confidence_interval(psi_hat: float, variance: float, n: int, level: float):
    """Wald interval ``psi_hat +/- z_{(1+level)/2} sqrt(variance / n)``."""
    check_ci_level(level)
    if not variance >= 0:
        raise ValidationError(f"variance must be nonnegative, got {variance}")
    z = norm_quantile(0.5 * (1.0 + level))
    half = z * np.sqrt(variance / n)
    return psi_hat - half, psi_hat + half


_MU1_KINDS = frozenset({EstimandKind.ACTT, EstimandKind.CATT, EstimandKind.SWATT})


def _nuisance_method(oracle: Optional[NuisanceValues]) -> str:
    """Report label of where the nuisances came from."""
    if oracle is None:
        return "propensity=logistic_irls,outcome=least_squares,sd=squared_residual_regression"
    has_sigma = oracle.sigma0_hat is not None and oracle.sigma1_hat is not None
    return f"propensity=oracle,outcome=oracle,sd={'oracle' if has_sigma else 'skip'}"


def estimate_all(dataset: Dataset, config: Optional[NuisanceConfig] = None,
                 oracle: Optional[NuisanceValues] = None,
                 estimands=None, ci_level: float = 0.95) -> EstimateReport:
    """Run nuisance estimation, the point estimate, and per-kind inference.

    ``oracle`` supplies known nuisances in place of fitted ones (see
    ``compute_nuisances``). ``estimands``, a collection of ``EstimandKind``
    members, restricts the report (default: all six); any other entry is a
    ``ValidationError``. mu1 is needed only when a requesting kind is present; conditional
    sds only when swatt is requested, and oracle values without sds skip the
    sigma variant. The swatt interval uses the smallest available
    conservative variance.
    """
    check_ci_level(ci_level)
    if config is None:
        config = NuisanceConfig()
    if estimands is None:
        kinds = KIND_ORDER
    else:
        try:
            requested = list(estimands)
        except TypeError as exc:
            raise ValidationError(f"estimands must be a collection of EstimandKind "
                                  f"members: {exc}") from exc
        bad = [k for k in requested if not isinstance(k, EstimandKind)]
        if bad:
            raise ValidationError(f"estimands must be EstimandKind members, got {bad[0]!r}")
        kinds = tuple(k for k in KIND_ORDER if k in requested)
    if not kinds:
        raise ValidationError("no estimands requested")
    need_mu1 = any(k in _MU1_KINDS for k in kinds)
    need_sigma = EstimandKind.SWATT in kinds

    nuis = compute_nuisances(dataset, config, oracle=oracle,
                             need_mu1=need_mu1, need_sigma=need_sigma)
    cols = _Columns.of(dataset, nuis)
    psi, n = cols.psi, dataset.n

    per_kind: dict = {}
    diagnostics: dict = {
        "nuisance_method": _nuisance_method(oracle),
        "folds": config.folds,
        "clip_eps": config.clip_eps,
        "seed": config.seed,
    }

    for kind in kinds:
        if kind is EstimandKind.SWATT:
            fields, swatt_diagnostics = cols.swatt
            used = fields["variance_used"]
            diagnostics.update(swatt_diagnostics)
        else:
            used = getattr(cols, "v_" + kind.value)
            fields, swatt_diagnostics = {"variance": used}, {}
        # The swatt diagnostics add its bounds; its floored flags are never bad.
        checked = {"psi_hat": psi, **fields, **swatt_diagnostics}
        bad = [f"{k}={v}" for k, v in checked.items() if v is not None and not np.isfinite(v)]
        if bad:
            raise NonFiniteEstimateError(f"{kind.value}: non-finite {', '.join(bad)}")
        lo, hi = confidence_interval(psi, used, n, ci_level)
        per_kind[kind] = KindInference(ci_lower=lo, ci_upper=hi, **fields)

    return EstimateReport(psi_hat=psi, n=n, p_n_a=cols.a_bar, per_kind=per_kind,
                          ci_level=ci_level, diagnostics=diagnostics)
