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

from dataclasses import dataclass
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
)
from .errors import (
    DegenerateTreatmentError,
    LengthMismatchError,
    MissingMu1Error,
    MissingSigmaError,
    NonFiniteEstimateError,
    NotBinaryOutcomeError,
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
    "var_swatt_conservative",
    "confidence_interval",
    "estimate_all",
    "SwattConservative",
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
# Kernels on raw arrays. The brute-force oracle evaluates them with true
# nuisances and population constants; they are also exposed for direct unit
# testing of algebraic edge cases (e.g. the all-treated reduction) that the
# validated Dataset type rejects by construction.

def _psi_terms(y, a, pi, mu0, a_bar):
    return (a - pi) * (y - mu0) / (a_bar * (1.0 - pi))


def _psi_hat_raw(y, a, pi, mu0, a_bar=None) -> float:
    a = np.asarray(a, dtype=float)
    if a_bar is None:
        a_bar = a.mean()
    if a_bar == 0:
        raise DegenerateTreatmentError("mean treatment share is zero")
    return float(np.mean(_psi_terms(np.asarray(y, float), a, np.asarray(pi, float),
                                    np.asarray(mu0, float), a_bar)))


def _psi_dot_raw(y, a, pi, mu0, psi_hat, a_bar):
    """Closed-form per-unit plug-in score; needs no treated-arm outcome model."""
    return _psi_terms(y, a, pi, mu0, a_bar) - a * psi_hat / a_bar


def _tau_y_raw(y, a, pi, mu0, a_bar):
    return (y - mu0) * (1.0 - a) * pi / (a_bar * (1.0 - pi))


def _score_components(y, a, pi, mu0, mu1, psi, a_bar):
    """Per-unit outcome, assignment, covariate and control-residual score terms
    ``(psi_y, psi_a, psi_x, tau_y)``; ``a`` is the float treatment indicator."""
    contrast = mu1 - mu0 - psi
    psi_y = (y - np.where(a == 1, mu1, mu0)) * (a - (1.0 - a) * pi / (1.0 - pi)) / a_bar
    psi_a = (a - pi) * contrast / a_bar
    psi_x = pi * contrast / a_bar
    return psi_y, psi_a, psi_x, _tau_y_raw(y, a, pi, mu0, a_bar)


def _var_satt_raw(y, a, pi, mu0, a_bar) -> float:
    terms = pi * (1.0 - a) / (1.0 - pi) ** 2 * ((y - mu0) / a_bar) ** 2
    return float(terms.mean())


def _var_sigma_bound_raw(pi, sigma0, sigma1, a_bar) -> float:
    return float(np.mean(pi ** 2 * (sigma1 - sigma0) ** 2) / a_bar ** 2)


def _var_fh_raw(pi, mu0, mu1) -> float:
    delta = np.abs(np.clip(mu1, 0.0, 1.0) - np.clip(mu0, 0.0, 1.0))
    return float(np.mean(pi ** 2 * (delta - delta ** 2)))


# ---------------------------------------------------------------------------
# Public operations.

def estimate_psi_hat(dataset: Dataset, nuis: NuisanceValues) -> float:
    """Doubly robust point estimate Pn[(a - pi)(y - mu0) / (Pn(a) (1 - pi))]."""
    _check_lengths(dataset, nuis)
    return _psi_hat_raw(dataset.y, dataset.a, nuis.pi_hat, nuis.mu0_hat)


def if_components(dataset: Dataset, nuis: NuisanceValues, psi_hat: float) -> IfComponents:
    """Per-unit plug-in values of the outcome/assignment/covariate score split.

    Requires ``mu1_hat``: the assignment and covariate components carry the
    fitted effect contrast mu1 - mu0.
    """
    _check_lengths(dataset, nuis)
    mu1 = _require_mu1(nuis)
    a = dataset.a.astype(float)
    psi_y, psi_a, psi_x, tau_y = _score_components(
        dataset.y, a, nuis.pi_hat, nuis.mu0_hat, mu1, psi_hat, a.mean())
    return IfComponents(psi_y=psi_y, psi_a=psi_a, psi_x=psi_x, tau_y=tau_y)


def var_patt(dataset: Dataset, nuis: NuisanceValues, psi_hat: float) -> float:
    """Sample variance (divisor n) of the closed-form per-unit score.

    Deliberately computed without mu1 so that population-effect inference
    never requires a treated-arm outcome model.
    """
    _check_lengths(dataset, nuis)
    a = dataset.a.astype(float)
    psi_dot = _psi_dot_raw(dataset.y, a, nuis.pi_hat, nuis.mu0_hat, psi_hat, a.mean())
    return float(np.var(psi_dot))


def var_actt(dataset: Dataset, nuis: NuisanceValues, psi_hat: float,
             components: Optional[IfComponents] = None) -> float:
    """Sample variance of the outcome + assignment score components."""
    comp = components if components is not None else if_components(dataset, nuis, psi_hat)
    return float(np.var(comp.psi_y + comp.psi_a))


def var_catt(dataset: Dataset, nuis: NuisanceValues, psi_hat: float,
             components: Optional[IfComponents] = None) -> float:
    """Sample variance of the outcome score component."""
    comp = components if components is not None else if_components(dataset, nuis, psi_hat)
    return float(np.var(comp.psi_y))


def var_matt(dataset: Dataset, nuis: NuisanceValues) -> float:
    """Sample variance of the control-residual component; needs only pi and mu0."""
    _check_lengths(dataset, nuis)
    a = dataset.a.astype(float)
    tau_y = _tau_y_raw(dataset.y, a, nuis.pi_hat, nuis.mu0_hat, a.mean())
    return float(np.var(tau_y))


def var_satt(dataset: Dataset, nuis: NuisanceValues) -> float:
    """Plug-in mean Pn[ pi (1-a) / (1-pi)^2 * ((y - mu0) / Pn(a))^2 ]."""
    _check_lengths(dataset, nuis)
    a = dataset.a.astype(float)
    return _var_satt_raw(dataset.y, a, nuis.pi_hat, nuis.mu0_hat, a.mean())


def var_sigma_bound(dataset: Dataset, nuis: NuisanceValues) -> float:
    """Pn(a)^-2 Pn[ pi^2 (sigma1 - sigma0)^2 ], the identified part of the
    conditional effect-variance that sharpens the swatt interval."""
    _check_lengths(dataset, nuis)
    if nuis.sigma0_hat is None or nuis.sigma1_hat is None:
        raise MissingSigmaError("sigma0_hat and sigma1_hat are required")
    a_bar = float(dataset.a.mean())
    return _var_sigma_bound_raw(nuis.pi_hat, nuis.sigma0_hat, nuis.sigma1_hat, a_bar)


def var_fh_binary(dataset: Dataset, nuis: NuisanceValues) -> float:
    """Binary-outcome sharp bound Pn[ pi^2 (|mu1 - mu0| - |mu1 - mu0|^2) ].

    Fitted means are clamped to [0, 1] first, so the integrand is nonnegative.
    """
    _check_lengths(dataset, nuis)
    if dataset.outcome_kind is not OutcomeKind.BINARY:
        raise NotBinaryOutcomeError("the sharp bound applies to binary outcomes only")
    mu1 = _require_mu1(nuis)
    return _var_fh_raw(nuis.pi_hat, nuis.mu0_hat, mu1)


@dataclass(frozen=True)
class SwattConservative:
    """Conservative swatt variances; differences are floored at zero.

    ``fh`` subtracts Pn(a)^-2 * V_FH.
    """

    simple: float
    sigma: Optional[float] = None
    fh: Optional[float] = None
    sigma_floored: bool = False
    fh_floored: bool = False

    def smallest(self) -> float:
        candidates = [self.simple]
        if self.sigma is not None:
            candidates.append(self.sigma)
        if self.fh is not None:
            candidates.append(self.fh)
        return min(candidates)


def var_swatt_conservative(v_actt: float, v_sigma: Optional[float] = None,
                           v_fh: Optional[float] = None,
                           p_n_a: Optional[float] = None) -> SwattConservative:
    """Assemble the conservative swatt variance family from its ingredients."""
    sigma = fh = None
    sigma_floored = fh_floored = False
    if v_sigma is not None:
        raw = v_actt - v_sigma
        sigma_floored = raw < 0
        sigma = max(0.0, raw)
    if v_fh is not None:
        if p_n_a is None or p_n_a <= 0:
            raise DegenerateTreatmentError("p_n_a must be positive for the FH variant")
        raw = v_actt - v_fh / p_n_a ** 2
        fh_floored = raw < 0
        fh = max(0.0, raw)
    return SwattConservative(simple=v_actt, sigma=sigma, fh=fh,
                             sigma_floored=sigma_floored, fh_floored=fh_floored)


def confidence_interval(psi_hat: float, variance: float, n: int, level: float):
    """Wald interval ``psi_hat +/- z_{(1+level)/2} sqrt(variance / n)``."""
    if variance < 0:
        raise ValueError(f"variance must be nonnegative, got {variance}")
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
    if config is None:
        config = NuisanceConfig()
    kinds = tuple(KIND_ORDER) if estimands is None else tuple(
        k for k in KIND_ORDER if k in set(estimands)
    )
    if not kinds:
        raise ValueError("no estimands requested")
    need_mu1 = any(k in _MU1_KINDS for k in kinds)
    need_sigma = EstimandKind.SWATT in kinds

    nuis = compute_nuisances(dataset, config, oracle=oracle,
                             need_mu1=need_mu1, need_sigma=need_sigma)
    psi = estimate_psi_hat(dataset, nuis)
    n = dataset.n
    a_bar = float(dataset.a.mean())
    comp = if_components(dataset, nuis, psi) if need_mu1 else None

    per_kind: dict = {}
    diagnostics: dict = {
        "nuisance_method": _nuisance_method(oracle),
        "folds": config.folds,
        "clip_eps": config.clip_eps,
        "seed": config.seed,
    }

    plain = {
        EstimandKind.PATT: lambda: var_patt(dataset, nuis, psi),
        EstimandKind.ACTT: lambda: var_actt(dataset, nuis, psi, comp),
        EstimandKind.CATT: lambda: var_catt(dataset, nuis, psi, comp),
        EstimandKind.SATT: lambda: var_satt(dataset, nuis),
        EstimandKind.MATT: lambda: var_matt(dataset, nuis),
    }
    for kind in kinds:
        if kind is EstimandKind.SWATT:
            v_sigma = None
            if nuis.sigma0_hat is not None and nuis.sigma1_hat is not None:
                v_sigma = var_sigma_bound(dataset, nuis)
            v_fh = None
            if dataset.outcome_kind is OutcomeKind.BINARY:
                v_fh = var_fh_binary(dataset, nuis)
            cons = var_swatt_conservative(var_actt(dataset, nuis, psi, comp), v_sigma, v_fh, a_bar)
            used = cons.smallest()
            fields = {"conservative_simple": cons.simple, "conservative_sigma": cons.sigma,
                      "conservative_fh": cons.fh, "variance_used": used}
            bounds = {"v_sigma_bound": v_sigma, "v_fh_bound": v_fh}
            diagnostics["swatt_sigma_floored"] = cons.sigma_floored
            diagnostics["swatt_fh_floored"] = cons.fh_floored
            diagnostics.update((k, v) for k, v in bounds.items() if v is not None)
        else:
            used = plain[kind]()
            fields = {"variance": used}
            bounds = {}
        checked = {"psi_hat": psi, **fields, **bounds}
        bad = [f"{k}={v}" for k, v in checked.items() if v is not None and not np.isfinite(v)]
        if bad:
            raise NonFiniteEstimateError(f"{kind.value}: non-finite {', '.join(bad)}")
        lo, hi = confidence_interval(psi, used, n, ci_level)
        per_kind[kind] = KindInference(ci_lower=lo, ci_upper=hi, **fields)

    return EstimateReport(psi_hat=psi, n=n, p_n_a=a_bar, per_kind=per_kind,
                          ci_level=ci_level, diagnostics=diagnostics)
