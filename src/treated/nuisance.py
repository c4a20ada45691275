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

from .data_model import Dataset, NuisanceValues, OutcomeKind, check_seed
from .errors import (
    FoldTooSmallError,
    InsufficientArmDataError,
    IrlsDivergedError,
    MissingOracleError,
    NonFiniteEstimateError,
    SingularSystemError,
    ValidationError,
)
from .mathutil import (FOLD_POOL_ROWS, _chunked, bernoulli_loglik, blocked_crossprod,
                       blocked_matmul, expit)

# IRLS takes at most this many Newton steps.
_MAX_IRLS_ITER = 100
# Once the Newton decrement grad' H^-1 grad / 2, the gain the quadratic model
# predicts, is at most this share of 1 + |ll|, quadratic convergence puts one
# more full step within rounding of the optimum, and that step is the last.
_FINAL_DECREMENT = 1e-12
# A candidate whose penalized log-likelihood falls short of the current one by
# at most this share of 1 + |ll| counts as no worse: near the optimum the
# log-likelihood is flat to rounding, and a full step must not hang on noise.
_LL_ROUNDING = 1e-13
# Ridge term on the standardized slope block of every fit.
_RIDGE = 1e-8


class HeavyResidualWarning(UserWarning):
    """Max outcome residual far exceeds the residual interquartile range."""


@dataclass(frozen=True)
class NuisanceConfig:
    """Settings of the fitted nuisances; oracle values only use ``clip_eps``."""

    folds: int = 1
    clip_eps: float = 0.01
    seed: int = 0

    def __post_init__(self):
        if self.folds < 1:
            raise ValidationError(f"folds must be >= 1, got {self.folds}")
        if not 0.0 < self.clip_eps < 0.5:
            raise ValidationError(f"clip_eps must be in (0, 0.5), got {self.clip_eps}")
        check_seed(self.seed)


@dataclass(frozen=True, eq=False)
class _AffineModel:
    """Affine predictor on standardized covariates."""

    mean: np.ndarray
    scale: np.ndarray
    coef: np.ndarray  # (d+1,): intercept then standardized-column slopes

    def linear(self, x: np.ndarray) -> np.ndarray:
        z = (np.asarray(x, dtype=float) - self.mean) / self.scale
        return self.coef[0] + blocked_matmul(z, self.coef[1:])


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


def _design(x: np.ndarray):
    """Per-column mean and sd of x, and the design [1, (x - mean) / scale].

    Zero-variance columns get unit scale.
    """
    mean = x.mean(axis=0)
    scale = x.std(axis=0)
    scale = np.where(scale > 0, scale, 1.0)
    return mean, scale, np.column_stack([np.ones(x.shape[0]), (x - mean) / scale])


def _fit_logistic(a: np.ndarray, x: np.ndarray, config: NuisanceConfig) -> PropensityModel:
    mean, scale, design = _design(x)
    d = design.shape[1] - 1
    a = a.astype(float)

    def penalized_ll(beta):
        eta = blocked_matmul(design, beta)
        ll = bernoulli_loglik(a, eta)
        if d > 0:
            ll -= 0.5 * _RIDGE * float(beta[1:] @ beta[1:])
        return ll, eta

    beta = np.zeros(d + 1)
    ll, eta = penalized_ll(beta)
    trace = [ll]
    for _ in range(_MAX_IRLS_ITER):
        p = expit(eta)
        w = p * (1.0 - p)
        if not np.isfinite(w).all():
            raise IrlsDivergedError("non-finite working weights in IRLS")
        grad = blocked_crossprod(design, a - p)
        hess = blocked_crossprod(design, design * w[:, None])
        if d > 0:
            grad[1:] -= _RIDGE * beta[1:]
            hess[np.arange(1, d + 1), np.arange(1, d + 1)] += _RIDGE
        # Levenberg-style floor keeps the solve well-posed under saturation.
        hess[np.diag_indices_from(hess)] += max(_RIDGE, 1e-10)
        try:
            delta = np.linalg.solve(hess, grad)
        except np.linalg.LinAlgError as exc:
            raise IrlsDivergedError(f"singular IRLS system: {exc}") from exc
        if not np.isfinite(delta).all():
            raise IrlsDivergedError("non-finite IRLS step")
        last = 0.5 * float(grad @ delta) <= _FINAL_DECREMENT * (1.0 + abs(ll))
        floor = ll - _LL_ROUNDING * (1.0 + abs(ll))
        step = 1.0
        for _ in range(60):
            cand = beta + step * delta
            cand_ll, cand_eta = penalized_ll(cand)
            if np.isfinite(cand_ll) and cand_ll >= floor:
                break
            step *= 0.5
        else:
            break  # step-halving cannot improve: numerically stationary
        # The accepted candidate's linear predictor is the next iteration's.
        beta, ll, eta = cand, cand_ll, cand_eta
        trace.append(ll)
        if last:
            break
    else:
        raise IrlsDivergedError(
            f"IRLS did not converge in {_MAX_IRLS_ITER} iterations"
        )
    return PropensityModel(_AffineModel(mean, scale, beta), config.clip_eps, tuple(trace))


def fit_propensity(dataset: Dataset, config: NuisanceConfig) -> PropensityModel:
    """Ridge-penalized logistic regression of a on (1, x) via IRLS.

    The penalized log-likelihood does not decrease across accepted iterations
    beyond rounding (step-halving on decrease). The fit stops after the full
    Newton step taken once the Newton decrement is negligible, so the
    coefficients are resolved to rounding. Predictions are clipped to
    ``[clip_eps, 1 - clip_eps]``.
    """
    return _fit_logistic(dataset.a, dataset.x, config)


def _arm_rows(a: np.ndarray, arm: int) -> np.ndarray:
    return np.flatnonzero(a == arm)


class _ArmDesign:
    """One arm's rows, their standardized design and its ridge Gram matrix.

    The arm's mean fit and its sd fit are both ridge least squares on this
    design, so they share it; only the target differs.
    """

    def __init__(self, y: np.ndarray, x: np.ndarray, rows: np.ndarray, arm: int):
        d = x.shape[1]
        if rows.size < d + 1:
            raise InsufficientArmDataError(
                f"arm {arm} has {rows.size} units, need at least {d + 1}"
            )
        self.y, self.x = y[rows], x[rows]
        self.mean, self.scale, self.design = _design(self.x)
        self.gram = blocked_crossprod(self.design, self.design)
        self.gram[np.arange(1, d + 1), np.arange(1, d + 1)] += _RIDGE

    def _solve(self, target: np.ndarray) -> _AffineModel:
        try:
            coef = np.linalg.solve(self.gram, blocked_crossprod(self.design, target))
        except np.linalg.LinAlgError as exc:
            raise SingularSystemError(f"singular least-squares system: {exc}") from exc
        return _AffineModel(self.mean, self.scale, coef)

    def fit_mean(self) -> MeanModel:
        return MeanModel(self._solve(self.y))

    def fit_sd(self, mean_model: MeanModel) -> SdModel:
        return SdModel(self._solve((self.y - mean_model.predict(self.x)) ** 2))


def fit_outcome_mean(dataset: Dataset, arm: int, config: NuisanceConfig) -> MeanModel:
    """Ridge least squares of y on (1, x) over units with a == arm."""
    rows = _arm_rows(dataset.a, arm)
    return _ArmDesign(dataset.y, dataset.x, rows, arm).fit_mean()


def fit_conditional_sd(dataset: Dataset, arm: int, mean_model: MeanModel,
                       config: NuisanceConfig) -> SdModel:
    """Regress squared residuals on (1, x) within the arm; predict sqrt(max(0, fit))."""
    rows = _arm_rows(dataset.a, arm)
    return _ArmDesign(dataset.y, dataset.x, rows, arm).fit_sd(mean_model)


def _fold_blocks(n: int, folds: int, seed: int) -> list:
    """Seeded shuffle, then contiguous blocks with sizes differing by <= 1: the
    row indices of each fold."""
    return np.array_split(np.random.default_rng(seed).permutation(n), folds)


def _fold_fits(y, a, x, blocks, config, need_mu1, need_sigma, lo, hi):
    """Yield, for each fold k in [lo, hi), the fitted nuisances at the rows
    ``blocks[k]`` as ``{name: values}``, from models fitted on the fold's
    complement, or on every row when there is a single fold."""
    n = a.shape[0]
    for block in blocks[lo:hi]:
        train = np.ones(n, dtype=bool)
        train[block] = len(blocks) == 1
        a_c = a[train]
        if a_c.sum() == 0 or a_c.sum() == a_c.size:
            raise FoldTooSmallError("a fold complement lacks one treatment arm")
        x_b = x[block]
        fold = {"pi_hat": _fit_logistic(a_c, x[train], config).predict(x_b)}
        for arm in (0, 1) if need_mu1 or need_sigma else (0,):
            arm_design = _ArmDesign(y, x, np.flatnonzero(train & (a == arm)), arm)
            mean_fit = arm_design.fit_mean()
            if arm == 0 or need_mu1:
                fold[f"mu{arm}_hat"] = mean_fit.predict(x_b)
            if need_sigma:
                fold[f"sigma{arm}_hat"] = arm_design.fit_sd(mean_fit).predict(x_b)
            del arm_design  # one arm's rows and design at a time
        yield fold


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
    ``config.clip_eps``; their sds are used when needed and present. An oracle
    that clipping cannot change (its own ``clip_eps`` is at least the
    config's) and whose sds are all kept is returned as it is. Without an
    oracle every nuisance is fitted, in-sample (folds=1) or cross-fitted:
    with K >= 2 folds the indices are partitioned by a seeded shuffle and each
    unit's predictions come from models fitted on its fold's complement, so a
    fold's predictions depend only on rows outside that fold (plus its own
    covariates). From ``FOLD_POOL_ROWS`` rows on, the folds are fitted in one
    forked worker process per CPU in the affinity mask, each on a contiguous
    run of folds; the result does not depend on the number of workers.
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
        if oracle.clip_eps >= eps and (use_sigma or oracle.sigma0_hat is None
                                       and oracle.sigma1_hat is None):
            return oracle
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
    blocks = _fold_blocks(n, config.folds, config.seed)
    args = (y, a, x, blocks, config, need_mu1, need_sigma)
    # Every fold runs the same code wherever it runs, and the folds are read
    # back in index order, so the first failing fold's error is raised
    # whatever the worker count.
    if n >= FOLD_POOL_ROWS:
        folds = _chunked(_fold_fits, args, len(blocks))
    else:
        folds = _fold_fits(*args, 0, len(blocks))
    for block, fold in zip(blocks, folds):
        for name, values in fold.items():
            fitted[name][block] = values

    for name, values in fitted.items():
        if not np.isfinite(values).all():
            raise NonFiniteEstimateError(f"fitted {name} has non-finite values")
    if dataset.outcome_kind is not OutcomeKind.BINARY:
        # |y - mu| <= 1 for 0/1 outcomes, so the tail rule says nothing there.
        for arm in (0, 1) if need_mu1 else (0,):
            rows = _arm_rows(a, arm)
            _residual_diagnostic(y, rows, fitted[f"mu{arm}_hat"][rows])
    return NuisanceValues(**fitted, clip_eps=eps)
