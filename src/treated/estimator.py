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
    IfComponents,
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
from .mathutil import norm_quantile
from .nuisance import NuisanceConfig, compute_nuisances

__all__ = [
    "estimate_psi_hat",
    "if_components",
    "var_patt",
    "var_actt",
    "var_catt",
    "var_matt",
    "var_satt",
    "var_sigma_bound",
    "var_fh_binary",
    "confidence_interval",
    "estimate_all",
]


def _check_lengths(dataset: Dataset, nuis: NuisanceValues):
    if nuis.n != dataset.n:
        raise LengthMismatchError(
            f"nuisance values have length {nuis.n}, dataset has {dataset.n}"
        )


def _require_mu1(nuis: NuisanceValues) -> np.ndarray:
    if nuis.mu1_hat is None:
        raise MissingMu1Error("mu1_hat is required for this quantity")
    return nuis.mu1_hat


# ---------------------------------------------------------------------------
# Kernels on raw arrays, shared with the brute-force oracle, which evaluates
# them with true nuisances and population constants. ``_psi_terms`` and
# ``_tau_y_raw`` are also unit-tested directly on algebraic edge cases (e.g.
# the all-treated reduction) that the validated Dataset type rejects.

def _psi_terms(y, a, pi, mu0, a_bar):
    return (a - pi) * (y - mu0) / (a_bar * (1.0 - pi))


def _tau_y_raw(y, a, pi, mu0, a_bar):
    return (y - mu0) * (1.0 - a) * pi / (a_bar * (1.0 - pi))


def _score_components(y, a, pi, mu0, mu1, psi, a_bar):
    """Per-unit outcome, assignment and covariate score terms
    ``(psi_y, psi_a, psi_x)``; ``a`` is the float treatment indicator."""
    contrast = mu1 - mu0 - psi
    psi_y = (y - np.where(a == 1, mu1, mu0)) * (a - (1.0 - a) * pi / (1.0 - pi)) / a_bar
    psi_a = (a - pi) * contrast / a_bar
    psi_x = pi * contrast / a_bar
    return psi_y, psi_a, psi_x


def _var_sigma_bound_raw(pi, sigma0, sigma1, a_bar) -> float:
    return float(np.mean(pi ** 2 * (sigma1 - sigma0) ** 2) / a_bar ** 2)


def _var_fh_raw(pi, mu0, mu1) -> float:
    delta = np.abs(np.clip(mu1, 0.0, 1.0) - np.clip(mu0, 0.0, 1.0))
    return float(np.mean(pi ** 2 * (delta - delta ** 2)))


class _Columns:
    """Per-unit columns of one (dataset, nuisances) pair and every quantity
    the estimator reads off them; each is built on first use and only once."""

    def __init__(self, dataset: Dataset, nuis: NuisanceValues, psi=None):
        _check_lengths(dataset, nuis)
        self.nuis, self.y, self.pi, self.mu0 = nuis, dataset.y, nuis.pi_hat, nuis.mu0_hat
        self.binary = dataset.outcome_kind is OutcomeKind.BINARY
        self.a = dataset.a.astype(float)
        self.a_bar = float(self.a.mean())
        if psi is not None:
            self.psi = psi

    @cached_property
    def terms(self):
        return _psi_terms(self.y, self.a, self.pi, self.mu0, self.a_bar)

    @cached_property
    def psi(self) -> float:
        return float(np.mean(self.terms))

    @cached_property
    def comp(self):
        return _score_components(self.y, self.a, self.pi, self.mu0, _require_mu1(self.nuis),
                                 self.psi, self.a_bar)

    @cached_property
    def tau_y(self):
        return _tau_y_raw(self.y, self.a, self.pi, self.mu0, self.a_bar)

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
        if self.nuis.sigma0_hat is None or self.nuis.sigma1_hat is None:
            raise MissingSigmaError("sigma0_hat and sigma1_hat are required")
        return _var_sigma_bound_raw(self.pi, self.nuis.sigma0_hat, self.nuis.sigma1_hat,
                                    self.a_bar)

    @cached_property
    def v_fh_bound(self) -> float:
        if not self.binary:
            raise NotBinaryOutcomeError("the sharp bound applies to binary outcomes only")
        return _var_fh_raw(self.pi, self.mu0, _require_mu1(self.nuis))

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
        if self.nuis.sigma0_hat is not None and self.nuis.sigma1_hat is not None:
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
# Public operations. Each reads one quantity off ``_Columns``.

def estimate_psi_hat(dataset: Dataset, nuis: NuisanceValues) -> float:
    """Doubly robust point estimate Pn[(a - pi)(y - mu0) / (Pn(a) (1 - pi))]."""
    return _Columns(dataset, nuis).psi


def if_components(dataset: Dataset, nuis: NuisanceValues, psi_hat: float) -> IfComponents:
    """Per-unit plug-in values of the outcome/assignment/covariate score split.

    Requires ``mu1_hat``: the assignment and covariate components carry the
    fitted effect contrast mu1 - mu0.
    """
    c = _Columns(dataset, nuis, psi_hat)
    return IfComponents(*c.comp, tau_y=c.tau_y)


def var_patt(dataset: Dataset, nuis: NuisanceValues, psi_hat: float) -> float:
    """Sample variance (divisor n) of the closed-form per-unit score.

    Deliberately computed without mu1 so that population-effect inference
    never requires a treated-arm outcome model.
    """
    return _Columns(dataset, nuis, psi_hat).v_patt


def var_actt(dataset: Dataset, nuis: NuisanceValues, psi_hat: float) -> float:
    """Sample variance of the outcome + assignment score components."""
    return _Columns(dataset, nuis, psi_hat).v_actt


def var_catt(dataset: Dataset, nuis: NuisanceValues, psi_hat: float) -> float:
    """Sample variance of the outcome score component."""
    return _Columns(dataset, nuis, psi_hat).v_catt


def var_matt(dataset: Dataset, nuis: NuisanceValues) -> float:
    """Sample variance of the control-residual component; needs only pi and mu0."""
    return _Columns(dataset, nuis).v_matt


def var_satt(dataset: Dataset, nuis: NuisanceValues) -> float:
    """Plug-in mean Pn[ pi (1-a) / (1-pi)^2 * ((y - mu0) / Pn(a))^2 ]."""
    return _Columns(dataset, nuis).v_satt


def var_sigma_bound(dataset: Dataset, nuis: NuisanceValues) -> float:
    """Pn(a)^-2 Pn[ pi^2 (sigma1 - sigma0)^2 ], the identified part of the
    conditional effect-variance that sharpens the swatt interval."""
    return _Columns(dataset, nuis).v_sigma_bound


def var_fh_binary(dataset: Dataset, nuis: NuisanceValues) -> float:
    """Binary-outcome sharp bound Pn[ pi^2 (|mu1 - mu0| - |mu1 - mu0|^2) ].

    Fitted means are clamped to [0, 1] first, so the integrand is nonnegative.
    """
    return _Columns(dataset, nuis).v_fh_bound


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
    ``compute_nuisances``). ``estimands`` restricts the report (default: all
    six). mu1 is needed only when a requesting kind is present; conditional
    sds only when swatt is requested, and oracle values without sds skip the
    sigma variant. The swatt interval uses the smallest available
    conservative variance.
    """
    check_ci_level(ci_level)
    if config is None:
        config = NuisanceConfig()
    kinds = tuple(KIND_ORDER) if estimands is None else tuple(
        k for k in KIND_ORDER if k in set(estimands)
    )
    if not kinds:
        raise ValidationError("no estimands requested")
    need_mu1 = any(k in _MU1_KINDS for k in kinds)
    need_sigma = EstimandKind.SWATT in kinds

    nuis = compute_nuisances(dataset, config, oracle=oracle,
                             need_mu1=need_mu1, need_sigma=need_sigma)
    cols = _Columns(dataset, nuis)
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
