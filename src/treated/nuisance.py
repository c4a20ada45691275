"""Nuisance estimation: propensity, outcome means, conditional sds, cross-fitting.

Covariates are standardized internally before every fit; models store the
standardization so predictions live in original coordinates. All linear solves
carry a small ridge term on the slope block so separation and collinearity
degrade gracefully instead of erroring. Fitting is a pure function of
(dataset, config, oracle): identical inputs give bit-identical outputs.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .data_model import Dataset, NuisanceValues, OutcomeKind
from .errors import (
    FoldTooSmallError,
    InsufficientArmDataError,
    IrlsDivergedError,
    MissingOracleError,
    NonFiniteEstimateError,
    SingularSystemError,
    ValidationError,
)
from .mathutil import bernoulli_loglik, expit

# IRLS stopping rule: at most this many Newton steps; stop early once the
# step or the log-likelihood gain falls below this relative tolerance.
_MAX_IRLS_ITER = 100
_IRLS_RTOL = 1e-8


class HeavyResidualWarning(UserWarning):
    """Max outcome residual far exceeds the residual interquartile range."""


@dataclass(frozen=True)
class NuisanceConfig:
    """Settings of the fitted nuisances; oracle values only use ``clip_eps``."""

    folds: int = 1
    clip_eps: float = 0.01
    ridge_lambda: float = 1e-8
    seed: int = 0

    def __post_init__(self):
        if self.folds < 1:
            raise ValidationError(f"folds must be >= 1, got {self.folds}")
        if not 0.0 < self.clip_eps < 0.5:
            raise ValidationError(f"clip_eps must be in (0, 0.5), got {self.clip_eps}")
        if self.ridge_lambda < 0:
            raise ValidationError("ridge_lambda must be nonnegative")


def _standardize(x: np.ndarray):
    """Per-column mean/sd; zero-variance columns get unit scale."""
    mean = x.mean(axis=0)
    scale = x.std(axis=0)
    scale = np.where(scale > 0, scale, 1.0)
    return mean, scale


@dataclass(frozen=True, eq=False)
class _AffineModel:
    """Affine predictor on standardized covariates."""

    mean: np.ndarray
    scale: np.ndarray
    coef: np.ndarray  # (d+1,): intercept then standardized-column slopes

    def linear(self, x: np.ndarray) -> np.ndarray:
        z = (np.asarray(x, dtype=float) - self.mean) / self.scale
        return self.coef[0] + z @ self.coef[1:]


@dataclass(frozen=True, eq=False)
class PropensityModel:
    affine: _AffineModel
    clip_eps: float
    ll_trace: tuple  # accepted penalized log-likelihood values, one per iteration

    def predict(self, x: np.ndarray) -> np.ndarray:
        p = expit(self.affine.linear(x))
        return np.clip(p, self.clip_eps, 1.0 - self.clip_eps)


@dataclass(frozen=True, eq=False)
class MeanModel:
    affine: _AffineModel

    def predict(self, x: np.ndarray) -> np.ndarray:
        return self.affine.linear(x)


@dataclass(frozen=True, eq=False)
class SdModel:
    """Predicts sqrt(max(0, fitted squared residual))."""

    affine: _AffineModel

    def predict(self, x: np.ndarray) -> np.ndarray:
        return np.sqrt(np.maximum(0.0, self.affine.linear(x)))


def _ridge_solve(design: np.ndarray, target: np.ndarray, lam: float) -> np.ndarray:
    gram = design.T @ design
    d = design.shape[1] - 1
    if d > 0:
        gram[np.arange(1, d + 1), np.arange(1, d + 1)] += lam
    try:
        return np.linalg.solve(gram, design.T @ target)
    except np.linalg.LinAlgError as exc:
        raise SingularSystemError(f"singular least-squares system: {exc}") from exc


def _fit_linear(x: np.ndarray, target: np.ndarray, lam: float) -> _AffineModel:
    mean, scale = _standardize(x)
    design = np.column_stack([np.ones(x.shape[0]), (x - mean) / scale])
    coef = _ridge_solve(design, target, lam)
    return _AffineModel(mean, scale, coef)


def _fit_logistic(a: np.ndarray, x: np.ndarray, config: NuisanceConfig) -> PropensityModel:
    n = x.shape[0]
    mean, scale = _standardize(x)
    design = np.column_stack([np.ones(n), (x - mean) / scale])
    d = design.shape[1] - 1
    lam = config.ridge_lambda
    a = a.astype(float)

    def penalized_ll(beta):
        ll = bernoulli_loglik(a, design @ beta)
        if d > 0:
            ll -= 0.5 * lam * float(beta[1:] @ beta[1:])
        return ll

    beta = np.zeros(d + 1)
    ll = penalized_ll(beta)
    trace = [ll]
    converged = False
    for _ in range(_MAX_IRLS_ITER):
        eta = design @ beta
        p = expit(eta)
        w = p * (1.0 - p)
        if not np.isfinite(w).all():
            raise IrlsDivergedError("non-finite working weights in IRLS")
        grad = design.T @ (a - p)
        hess = design.T @ (design * w[:, None])
        if d > 0:
            grad[1:] -= lam * beta[1:]
            hess[np.arange(1, d + 1), np.arange(1, d + 1)] += lam
        # Levenberg-style floor keeps the solve well-posed under saturation.
        hess[np.diag_indices_from(hess)] += max(lam, 1e-10)
        try:
            delta = np.linalg.solve(hess, grad)
        except np.linalg.LinAlgError as exc:
            raise IrlsDivergedError(f"singular IRLS system: {exc}") from exc
        if not np.isfinite(delta).all():
            raise IrlsDivergedError("non-finite IRLS step")
        step = 1.0
        accepted = None
        for _ in range(60):
            cand = beta + step * delta
            cand_ll = penalized_ll(cand)
            if np.isfinite(cand_ll) and cand_ll >= ll:
                accepted = (cand, cand_ll, step)
                break
            step *= 0.5
        if accepted is None:
            # Step-halving cannot improve: numerically stationary.
            converged = True
            break
        beta, new_ll, step = accepted
        trace.append(new_ll)
        gain = new_ll - ll
        ll = new_ll
        if (step * np.abs(delta)).max() <= _IRLS_RTOL * (1.0 + np.abs(beta).max()):
            converged = True
            break
        if gain <= _IRLS_RTOL * (1.0 + abs(ll)):
            converged = True
            break
    if not converged:
        raise IrlsDivergedError(
            f"IRLS did not converge in {_MAX_IRLS_ITER} iterations"
        )
    return PropensityModel(_AffineModel(mean, scale, beta), config.clip_eps, tuple(trace))


def fit_propensity(dataset: Dataset, config: NuisanceConfig) -> PropensityModel:
    """Ridge-penalized logistic regression of a on (1, x) via IRLS.

    The penalized log-likelihood is non-decreasing across accepted iterations
    (step-halving on decrease); predictions are clipped to
    ``[clip_eps, 1 - clip_eps]``.
    """
    return _fit_logistic(dataset.a, dataset.x, config)


def _arm_rows(a: np.ndarray, arm: int) -> np.ndarray:
    return np.flatnonzero(a == arm)


def _fit_mean_arm(y, a, x, arm, config) -> MeanModel:
    rows = _arm_rows(a, arm)
    if rows.size < x.shape[1] + 1:
        raise InsufficientArmDataError(
            f"arm {arm} has {rows.size} units, need at least {x.shape[1] + 1}"
        )
    return MeanModel(_fit_linear(x[rows], y[rows], config.ridge_lambda))


def fit_outcome_mean(dataset: Dataset, arm: int, config: NuisanceConfig) -> MeanModel:
    """Ridge least squares of y on (1, x) over units with a == arm."""
    return _fit_mean_arm(dataset.y, dataset.a, dataset.x, arm, config)


def _fit_sd_arm(y, a, x, arm, mu_at_rows, config) -> SdModel:
    rows = _arm_rows(a, arm)
    if rows.size < x.shape[1] + 1:
        raise InsufficientArmDataError(
            f"arm {arm} has {rows.size} units, need at least {x.shape[1] + 1}"
        )
    sq_resid = (y[rows] - mu_at_rows) ** 2
    return SdModel(_fit_linear(x[rows], sq_resid, config.ridge_lambda))


def fit_conditional_sd(dataset: Dataset, arm: int, mean_model: MeanModel,
                       config: NuisanceConfig) -> SdModel:
    """Regress squared residuals on (1, x) within the arm; predict sqrt(max(0, fit))."""
    rows = _arm_rows(dataset.a, arm)
    mu = mean_model.predict(dataset.x[rows])
    return _fit_sd_arm(dataset.y, dataset.a, dataset.x, arm, mu, config)


def _fold_blocks(n: int, folds: int, seed: int):
    """Seeded shuffle, then contiguous blocks with sizes differing by <= 1.

    Yields ``(block, train)``: the block's row indices and the boolean mask of
    the rows its models are fitted on, which is every row when there is a
    single fold and the block's complement otherwise.
    """
    perm = np.random.default_rng(seed).permutation(n)
    for block in np.array_split(perm, folds):
        train = np.ones(n, dtype=bool)
        train[block] = folds == 1
        yield block, train


def _residual_diagnostic(y, rows, mu_at_rows) -> bool:
    resid = np.abs(y[rows] - mu_at_rows)
    if resid.size == 0:
        return False
    q75, q25 = np.percentile(resid, [75, 25])
    iqr = q75 - q25
    if iqr > 0 and resid.max() > 10.0 * iqr:
        warnings.warn(
            "max outcome residual exceeds 10x the residual IQR; the bounded-"
            "residual condition behind the variance theory may be strained",
            HeavyResidualWarning,
            stacklevel=3,
        )
        return True
    return False


def compute_nuisances(dataset: Dataset, config: NuisanceConfig,
                      oracle: Optional[NuisanceValues] = None,
                      need_mu1: bool = True,
                      need_sigma: bool = True) -> NuisanceValues:
    """Produce per-unit NuisanceValues: known (``oracle``) or fitted.

    Oracle values pass through unchanged except for pi clipping to
    ``config.clip_eps``; their sds are used when needed and present. Without
    an oracle every nuisance is fitted, in-sample (folds=1) or cross-fitted:
    with K >= 2 folds the indices are partitioned by a seeded shuffle and each
    unit's predictions come from models fitted on its fold's complement, so a
    fold's predictions depend only on rows outside that fold (plus its own
    covariates).
    """
    n = dataset.n
    eps = config.clip_eps
    if oracle is not None:
        if oracle.n != n:
            raise ValidationError(f"oracle has {oracle.n} rows, dataset has {n}")
        if need_mu1 and oracle.mu1_hat is None:
            raise MissingOracleError("oracle mu1_hat required but not supplied")
        use_sigma = (need_sigma and oracle.sigma0_hat is not None
                     and oracle.sigma1_hat is not None)
        return NuisanceValues(
            pi_hat=np.clip(oracle.pi_hat, eps, 1.0 - eps),
            mu0_hat=oracle.mu0_hat,
            mu1_hat=oracle.mu1_hat,
            sigma0_hat=oracle.sigma0_hat if use_sigma else None,
            sigma1_hat=oracle.sigma1_hat if use_sigma else None,
            clip_eps=eps,
        )

    y, a, x = dataset.y, dataset.a, dataset.x
    n_treated = int(a.sum())
    if config.folds > min(n_treated, n - n_treated):
        raise FoldTooSmallError(
            f"{config.folds} folds exceed the smaller arm "
            f"({n_treated} treated, {n - n_treated} controls)"
        )
    fitted = {"pi_hat": np.empty(n), "mu0_hat": np.empty(n)}
    if need_mu1:
        fitted["mu1_hat"] = np.empty(n)
    if need_sigma:
        fitted["sigma0_hat"], fitted["sigma1_hat"] = np.empty(n), np.empty(n)
    for block, train in _fold_blocks(n, config.folds, config.seed):
        a_c, y_c, x_c = a[train], y[train], x[train]
        if a_c.sum() == 0 or a_c.sum() == a_c.size:
            raise FoldTooSmallError("a fold complement lacks one treatment arm")
        x_b = x[block]
        fitted["pi_hat"][block] = _fit_logistic(a_c, x_c, config).predict(x_b)
        mean_fits = [_fit_mean_arm(y_c, a_c, x_c, arm, config)
                     for arm in ((0, 1) if need_mu1 or need_sigma else (0,))]
        fitted["mu0_hat"][block] = mean_fits[0].predict(x_b)
        if need_mu1:
            fitted["mu1_hat"][block] = mean_fits[1].predict(x_b)
        if need_sigma:
            for arm, mean_fit in enumerate(mean_fits):
                mu_c = mean_fit.predict(x_c[_arm_rows(a_c, arm)])
                sd_fit = _fit_sd_arm(y_c, a_c, x_c, arm, mu_c, config)
                fitted[f"sigma{arm}_hat"][block] = sd_fit.predict(x_b)

    for name, values in fitted.items():
        if not np.isfinite(values).all():
            raise NonFiniteEstimateError(f"fitted {name} has non-finite values")
    if dataset.outcome_kind is not OutcomeKind.BINARY:
        # |y - mu| <= 1 for 0/1 outcomes, so the tail rule says nothing there.
        for arm in (0, 1) if need_mu1 else (0,):
            rows = _arm_rows(a, arm)
            _residual_diagnostic(y, rows, fitted[f"mu{arm}_hat"][rows])
    return NuisanceValues(**fitted, clip_eps=eps)
