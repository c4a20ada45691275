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

import numbers
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
    check_count,
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
from .nuisance import NuisanceConfig, _residual_diagnostic, compute_nuisances

class _Columns:
    """The formula table: per-unit columns of one sample and every quantity
    read off them, each built on first use and only once; ``a`` is the float
    treatment indicator. The estimator fills it through ``of``. The brute-force
    oracle fills it with true nuisances, E[pi] as ``a_bar`` and the population
    effect as ``psi``. Built directly it also takes inputs the validated
    Dataset rejects, such as all-treated data. Past the shared ``terms`` and
    ``tau_y``, each quantity caches the formula below that its lambda names."""

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
        return cls(dataset.y, dataset.a, nuis.pi_hat, nuis.mu0_hat, nuis.mu1_hat, nuis.sigma0_hat,
                   nuis.sigma1_hat, binary=dataset.outcome_kind is OutcomeKind.BINARY,
                   a_bar=float(dataset.a.mean()), psi=psi)

    @cached_property
    def terms(self):
        return (self.a - self.pi) * (self.y - self.mu0) / (self.a_bar * (1.0 - self.pi))

    @cached_property
    def tau_y(self):
        """The control-residual component driving the literal estimands."""
        return (self.y - self.mu0) * (1.0 - self.a) * self.pi / (self.a_bar * (1.0 - self.pi))

    psi = cached_property(lambda self: estimate_psi_hat(self))
    comp = cached_property(lambda self: if_components(self))
    v_patt = cached_property(lambda self: var_patt(self))
    v_actt = cached_property(lambda self: var_actt(self))
    v_catt = cached_property(lambda self: var_catt(self))
    v_matt = cached_property(lambda self: var_matt(self))
    v_satt = cached_property(lambda self: var_satt(self))
    v_sigma_bound = cached_property(lambda self: var_sigma_bound(self))
    v_fh_bound = cached_property(lambda self: var_fh_binary(self))

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
# The formulas, each of one table ``c``, that ``_Columns`` caches. The package
# does not export them; the benchmark's tracer wraps them here by name.

def estimate_psi_hat(c: _Columns) -> float:
    """Doubly robust point estimate Pn[(a - pi)(y - mu0) / (Pn(a) (1 - pi))]."""
    return float(np.mean(c.terms))


def if_components(c: _Columns) -> tuple:
    """Per-unit outcome, assignment and covariate scores ``(psi_y, psi_a, psi_x)``.

    Their sum is the closed-form per-unit score up to rounding. They need mu1:
    the last two carry the fitted effect contrast mu1 - mu0."""
    if c.mu1 is None:
        raise MissingMu1Error("mu1_hat is required for this quantity")
    y, a, pi, mu0, mu1 = c.y, c.a, c.pi, c.mu0, c.mu1
    contrast = mu1 - mu0 - c.psi
    psi_y = (y - select(a == 1, mu1, mu0)) * (a - (1.0 - a) * pi / (1.0 - pi)) / c.a_bar
    psi_a = (a - pi) * contrast / c.a_bar
    psi_x = pi * contrast / c.a_bar
    return psi_y, psi_a, psi_x


def var_patt(c: _Columns) -> float:
    """Sample variance (divisor n) of the closed-form per-unit score, computed
    without mu1 so that population-effect inference needs no treated-arm model."""
    return float(np.var(c.terms - c.a * c.psi / c.a_bar))


def var_actt(c: _Columns) -> float:
    """Sample variance of the outcome + assignment score components."""
    return float(np.var(c.comp[0] + c.comp[1]))


def var_catt(c: _Columns) -> float:
    """Sample variance of the outcome score component."""
    return float(np.var(c.comp[0]))


def var_matt(c: _Columns) -> float:
    """Sample variance of the control-residual component; needs only pi and mu0."""
    return float(np.var(c.tau_y))


def var_satt(c: _Columns) -> float:
    """Plug-in mean Pn[ pi (1-a) / (1-pi)^2 * ((y - mu0) / Pn(a))^2 ]."""
    pi, a = c.pi, c.a
    return float((pi * (1.0 - a) / (1.0 - pi) ** 2 * ((c.y - c.mu0) / c.a_bar) ** 2).mean())


def var_sigma_bound(c: _Columns) -> float:
    """Pn(a)^-2 Pn[ pi^2 (sigma1 - sigma0)^2 ], the identified part of the
    conditional effect-variance that sharpens the swatt interval."""
    if c.sigma0 is None or c.sigma1 is None:
        raise MissingSigmaError("sigma0_hat and sigma1_hat are required")
    return float(np.mean(c.pi ** 2 * (c.sigma1 - c.sigma0) ** 2) / c.a_bar ** 2)


def var_fh_binary(c: _Columns) -> float:
    """Binary-outcome sharp bound Pn[ pi^2 (|mu1 - mu0| - |mu1 - mu0|^2) ], with
    the fitted means clamped to [0, 1] first so the integrand is nonnegative."""
    if not c.binary:
        raise NotBinaryOutcomeError("the sharp bound applies to binary outcomes only")
    if c.mu1 is None:
        raise MissingMu1Error("mu1_hat is required for this quantity")
    delta = np.abs(np.clip(c.mu1, 0.0, 1.0) - np.clip(c.mu0, 0.0, 1.0))
    return float(np.mean(c.pi ** 2 * (delta - delta ** 2)))


def confidence_interval(psi_hat: float, variance: float, n: int, level: float):
    """Wald interval ``psi_hat +/- z_{(1+level)/2} sqrt(variance / n)``."""
    check_ci_level(level)
    check_count("n", n)
    if not isinstance(psi_hat, numbers.Real):
        raise ValidationError(f"psi_hat must be a number, got {psi_hat!r}")
    if not (isinstance(variance, numbers.Real) and variance >= 0):
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
    conservative variance. With fitted nuisances the diagnostics list, as
    ``heavy_residual_arms``, the arms whose mean leaves heavy residuals.
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
    if oracle is None:
        heavy = diagnostics["heavy_residual_arms"] = []
        # |y - mu| <= 1 for 0/1 outcomes, so the tail rule says nothing there.
        for arm, mu in enumerate(() if cols.binary else (nuis.mu0_hat, nuis.mu1_hat)):
            rows = dataset.a == arm
            if mu is not None and _residual_diagnostic(dataset.y[rows], mu[rows]):
                heavy.append(arm)

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
