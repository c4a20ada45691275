"""Nuisance estimation: propensity, outcome means, conditional sds, cross-fitting.

Covariates are standardized internally before every fit; models store the
standardization so predictions live in original coordinates. All linear solves
carry a small ridge term on the slope block so separation and collinearity
degrade gracefully instead of erroring. Fitting is a pure function of
(dataset, config, oracle): identical inputs give bit-identical outputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .data_model import Dataset, NuisanceValues, check_clip_eps, check_count, check_seed
from .errors import (
    FoldTooSmallError,
    InsufficientArmDataError,
    IrlsDivergedError,
    MissingOracleError,
    NonFiniteEstimateError,
    SingularSystemError,
    ValidationError,
)
from .mathutil import (_chunked, bernoulli_loglik, blocked_crossprod, blocked_matmul, expit,
                       row_blocks, shared_empty)

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
# Fewest rows for which cross-fitting runs its folds in the pool; below it a
# pool's start costs about what it saves. `treated estimate --nuisance fitted
# --folds 5` on d = 2 covariates (2 vCPUs, medians of 10 alternating pairs) took
# 277 ms serial against 294 ms pooled at 20,000 rows, 341-420 against 336-366 ms
# at 40,000 and 442-456 against 427-462 ms at 60,000: none won 9 pairs of 10.
FOLD_POOL_ROWS = 50_000


@dataclass(frozen=True)
class NuisanceConfig:
    """Settings of the fitted nuisances; oracle values only use ``clip_eps``."""

    folds: int = 1
    clip_eps: float = 0.01
    seed: int = 0

    def __post_init__(self):
        check_count("folds", self.folds)
        check_clip_eps(self.clip_eps)
        check_seed(self.seed)


@dataclass(frozen=True, eq=False)
class _AffineModel:
    """Affine predictor on standardized covariates."""

    mean: np.ndarray
    scale: np.ndarray
    coef: np.ndarray  # (d+1,): intercept then standardized-column slopes

    def standardize(self, x: np.ndarray) -> np.ndarray:
        return (np.asarray(x, dtype=float) - self.mean) / self.scale

    def at(self, z: np.ndarray) -> np.ndarray:  # z: rows already standardized
        return self.coef[0] + blocked_matmul(z, self.coef[1:])

    def predict(self, x: np.ndarray) -> np.ndarray:
        return self.at(self.standardize(x))


@dataclass(frozen=True, eq=False)
class PropensityModel:
    affine: _AffineModel
    clip_eps: float
    ll_trace: tuple  # accepted penalized log-likelihood values, one per iteration

    def predict(self, x: np.ndarray) -> np.ndarray:
        p = expit(self.affine.predict(x))
        return np.clip(p, self.clip_eps, 1.0 - self.clip_eps)


@dataclass(frozen=True, eq=False)
class SdModel:
    """Predicts sqrt(max(0, fitted squared residual))."""

    affine: _AffineModel

    def at(self, z: np.ndarray) -> np.ndarray:
        return np.sqrt(np.maximum(0.0, self.affine.at(z)))

    def predict(self, x: np.ndarray) -> np.ndarray:
        return self.at(self.affine.standardize(x))


def _design(x: np.ndarray):
    """Per-column mean and sd of x, and the design [1, (x - mean) / scale].

    Zero-variance columns get unit scale. On a C-contiguous x of d >= 2
    columns, numpy's ``x.mean(axis=0)`` and ``x.std(axis=0)`` add the rows in
    order, one row of d elements at a time; a running sum down each column,
    copied out contiguously, adds the same numbers in the same order, so it
    gives the same bits several times faster. Other layouts, and d <= 1,
    where numpy sums each column pairwise, take numpy's own reductions.
    """
    n, d = x.shape
    if d < 2 or n == 0 or not x.flags.c_contiguous:
        mean = x.mean(axis=0)
        scale = x.std(axis=0)
        scale = np.where(scale > 0, scale, 1.0)
        return mean, scale, np.column_stack([np.ones(n), (x - mean) / scale])
    design = np.empty((n, d + 1))
    design[:, 0] = 1.0
    mean, scale = np.empty(d), np.empty(d)
    col, acc = np.empty(n), np.empty(n)
    for j in range(d):
        np.copyto(col, x[:, j])
        mean[j] = np.add.accumulate(col, out=acc)[-1] / n
        col -= mean[j]
        np.multiply(col, col, out=acc)
        var = np.add.accumulate(acc, out=acc)[-1] / n
        scale[j] = np.sqrt(var) if var > 0 else 1.0
        col /= scale[j]
        design[:, j + 1] = col
    return mean, scale, design


def _fit_logistic(a: np.ndarray, x: np.ndarray, config: NuisanceConfig) -> PropensityModel:
    """``fit_propensity`` on arrays. Each Newton candidate takes one sweep over the design's
    ``row_blocks``, adding the blocks' gradients and Hessians in block order with the
    products of ``blocked_crossprod``; an accepted candidate's sweep serves the next step."""
    mean, scale, design = _design(x)
    d = design.shape[1] - 1
    blocks = row_blocks(design.shape[0])

    def sweep(beta):  # the penalized ll, and the unpenalized gradient and Hessian
        ll = 0.0
        for rows in blocks:
            z, a_b = design[rows], a[rows]
            eta = z @ beta
            ll += bernoulli_loglik(a_b, eta)
            p = expit(eta)
            w = p * (1.0 - p)
            g, h = z.T @ (a_b - p), z.T @ (z * w[:, None])
            grad, hess = (g, h) if rows.start == 0 else (grad + g, hess + h)
        return ll - 0.5 * _RIDGE * float(beta[1:] @ beta[1:]), grad, hess

    beta = np.zeros(d + 1)
    ll, grad, hess = sweep(beta)
    trace = [ll]
    for _ in range(_MAX_IRLS_ITER):
        # The design's first column is ones: hess[0, 0] sums the weights, each in [0, 1/4].
        if not np.isfinite(hess[0, 0]):
            raise IrlsDivergedError("non-finite working weights in IRLS")
        grad[1:] -= _RIDGE * beta[1:]
        hess.flat[d + 2::d + 2] += _RIDGE  # the slopes' diagonal
        # A floor on every diagonal entry, the intercept's too, keeps the solve
        # well-posed under saturation.
        hess.flat[::d + 2] += _RIDGE
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
            swept = sweep(cand)
            if np.isfinite(swept[0]) and swept[0] >= floor:
                break
            step *= 0.5
        else:
            break  # step-halving cannot improve: numerically stationary
        beta, (ll, grad, hess) = cand, swept
        trace.append(ll)
        if last:
            break
    else:
        raise IrlsDivergedError(f"IRLS did not converge in {_MAX_IRLS_ITER} iterations")
    return PropensityModel(_AffineModel(mean, scale, beta), config.clip_eps, tuple(trace))


def fit_propensity(dataset: Dataset, config: NuisanceConfig) -> PropensityModel:
    """Ridge-penalized logistic regression of a on (1, x) via IRLS. The penalized
    log-likelihood does not decrease across accepted iterations beyond rounding
    (step-halving on decrease). The fit stops after the full Newton step taken once
    the Newton decrement is negligible, so the coefficients are resolved to rounding.
    Predictions are clipped to ``[clip_eps, 1 - clip_eps]``."""
    return _fit_logistic(dataset.a, dataset.x, config)


class _ArmDesign:
    """One arm's rows, their standardized design and its ridge Gram matrix, which the
    arm's mean fit and its sd fit share: both are ridge least squares on this design,
    of y and of the mean fit's squared residuals."""

    def __init__(self, y: np.ndarray, x: np.ndarray, rows: np.ndarray, arm: int):
        d = x.shape[1]
        if rows.size < d + 1:
            raise InsufficientArmDataError(
                f"arm {arm} has {rows.size} units, need at least {d + 1}"
            )
        # take: numpy's fancy indexing of a 2-d array is several times slower.
        self.y, self.x = y[rows], x.take(rows, axis=0)
        self.mean, self.scale, self.design = _design(self.x)
        self.gram = blocked_crossprod(self.design, self.design)
        self.gram.flat[d + 2::d + 2] += _RIDGE  # the slopes' diagonal

    def _solve(self, target: np.ndarray) -> _AffineModel:
        try:
            coef = np.linalg.solve(self.gram, blocked_crossprod(self.design, target))
        except np.linalg.LinAlgError as exc:
            raise SingularSystemError(f"singular least-squares system: {exc}") from exc
        return _AffineModel(self.mean, self.scale, coef)

    def fit_mean(self) -> _AffineModel:
        return self._solve(self.y)

    def fit_sd(self, mean_model: _AffineModel) -> SdModel:
        own = mean_model.mean is self.mean  # a fit on this design: read it off the design
        fitted = mean_model.at(self.design[:, 1:]) if own else mean_model.predict(self.x)
        return SdModel(self._solve((self.y - fitted) ** 2))


def fit_outcome_mean(dataset: Dataset, arm: int, config: NuisanceConfig) -> _AffineModel:
    """Ridge least squares of y on (1, x) over units with a == arm."""
    return _ArmDesign(dataset.y, dataset.x, np.flatnonzero(dataset.a == arm), arm).fit_mean()


def fit_conditional_sd(dataset: Dataset, arm: int, mean_model: _AffineModel,
                       config: NuisanceConfig) -> SdModel:
    """Regress squared residuals on (1, x) within the arm; predict sqrt(max(0, fit))."""
    rows = np.flatnonzero(dataset.a == arm)
    return _ArmDesign(dataset.y, dataset.x, rows, arm).fit_sd(mean_model)


def _fold_layout(n: int, folds: int, seed: int) -> list:
    """Each fold's (train, test) rows. One fold is ``[:]`` twice: its fits read
    views of the data. K >= 2 folds cut a seeded shuffle into blocks with sizes
    differing by <= 1, the test rows, sorted (predictions are row by row) so that their
    gathers and scatters run in memory order, and train on a mask of the others."""
    if folds == 1:
        return [(slice(None), slice(None))]
    layout = []
    for test in map(np.sort, np.array_split(np.random.default_rng(seed).permutation(n), folds)):
        train = np.ones(n, dtype=bool)
        train[test] = False
        layout.append((train, test))
    return layout


def _fold_fits(y, a, x, fits, columns, config, lo, hi):
    """Run ``fits[lo:hi]``, (train, test, arm) triples, yielding None after each:
    fit the propensity (arm None) or the arm's outcome models on the training
    rows, and write their predictions at the test rows into those ``columns`` that exist.
    An arm's mean and sd fits share its design, and their predictions one standardized x[test]."""
    for train, test, arm in fits[lo:hi]:
        if arm is None:
            a_c = a[train]
            if a_c.sum() == 0 or a_c.sum() == a_c.size:
                raise FoldTooSmallError("a fold complement lacks one treatment arm")
            # compress copies a K-fold mask's rows several times faster than x[train].
            x_c = x[train] if isinstance(train, slice) else x.compress(train, axis=0)
            columns["pi_hat"][test] = _fit_logistic(a_c, x_c, config).predict(x[test])
        else:
            rows = np.flatnonzero(a == arm if isinstance(train, slice) else (a == arm) & train)
            arm_design = _ArmDesign(y, x, rows, arm)
            mean_fit = arm_design.fit_mean()
            z_test = mean_fit.standardize(x[test])
            if f"mu{arm}_hat" in columns:
                columns[f"mu{arm}_hat"][test] = mean_fit.at(z_test)
            if f"sigma{arm}_hat" in columns:
                columns[f"sigma{arm}_hat"][test] = arm_design.fit_sd(mean_fit).at(z_test)
        yield


def _quartiles(values: np.ndarray):
    """The upper and lower quartiles of a nonempty array, and its maximum,
    from one partition.

    The quartiles are bit for bit ``np.percentile(values, [75, 25])``: the
    same order statistics, weights and interpolation. np.percentile's first
    call imports numpy.ma, which costs about 18 ms.
    """
    n = values.size
    picks = []
    for q in (0.75, 0.25):
        virtual = (n - 1) * q
        below = math.floor(virtual)
        above = below + 1
        if virtual >= n - 1:
            below = above = -1
        picks.append((below, above, virtual - below))
    kth = sorted({k % n for below, above, _ in picks for k in (below, above, -1)})
    ordered = np.partition(values, kth)
    quartiles = []
    for below, above, gamma in picks:
        lo, hi = ordered[below], ordered[above]
        diff = hi - lo
        quartiles.append(hi - diff * (1 - gamma) if gamma >= 0.5 else lo + diff * gamma)
    return (*quartiles, ordered[-1])


def _residual_diagnostic(y, mu) -> bool:
    """Whether one arm's largest absolute residual ``|y - mu|`` exceeds the
    upper residual quartile by more than 10x the residual IQR: heavy residuals
    strain the bounded residual moments behind the variance theory."""
    resid = np.abs(y - mu)
    if resid.size == 0:
        return False
    q75, q25, top = _quartiles(resid)
    iqr = q75 - q25
    # An exact fit leaves residuals of the ridge term's and rounding's size,
    # about 1e-9 |y|, and an IQR as small: the floor keeps it quiet.
    floor = np.sqrt(np.finfo(float).eps) * np.abs(y).max()
    return bool(top > q75 + 10.0 * max(iqr, floor))


def compute_nuisances(dataset: Dataset, config: NuisanceConfig,
                      oracle: Optional[NuisanceValues] = None,
                      need_mu1: bool = True,
                      need_sigma: bool = True) -> NuisanceValues:
    """Produce per-unit NuisanceValues: known (``oracle``) or fitted.

    An oracle whose own ``clip_eps`` is at least the config's is returned as
    it is, since clipping cannot change it; otherwise it comes back with pi
    clipped to ``config.clip_eps`` and every other value unchanged. The
    estimator reads the oracle's sds only when swatt is requested and both are
    present. Without an oracle every nuisance is fitted, in-sample (folds=1)
    or cross-fitted: with K >= 2 folds the indices are partitioned by a seeded
    shuffle and each unit's predictions come from models fitted on its fold's
    complement, so a fold's predictions depend only on rows outside that fold
    (plus its own covariates); one fold uses the data as it is, unshuffled
    and uncopied. From ``FOLD_POOL_ROWS`` rows on, the fits (each fold's
    propensity and its two arms' outcome models) run in one forked worker
    process per CPU in the affinity mask, each on a contiguous run of fits,
    and write into ``shared_empty`` columns; the result does not depend on
    the number of workers.
    """
    n = dataset.n
    eps = config.clip_eps
    if oracle is not None:
        if oracle.n != n:
            raise ValidationError(f"oracle has {oracle.n} rows, dataset has {n}")
        if need_mu1 and oracle.mu1_hat is None:
            raise MissingOracleError("oracle mu1_hat required but not supplied")
        if oracle.clip_eps >= eps:
            return oracle
        return replace(oracle, pi_hat=np.clip(oracle.pi_hat, eps, 1.0 - eps), clip_eps=eps)

    y, a, x = dataset.y, dataset.a, dataset.x
    n_treated = int(a.sum())
    if config.folds > min(n_treated, n - n_treated):
        raise FoldTooSmallError(
            f"{config.folds} folds exceed the smaller arm "
            f"({n_treated} treated, {n - n_treated} controls)"
        )
    pooled = n >= FOLD_POOL_ROWS
    # Only pool workers need shared columns: a 2,000-row one fills in 46 us, a private one in 1.7.
    empty = shared_empty if pooled else np.empty
    fitted = {"pi_hat": empty(n), "mu0_hat": empty(n)}
    if need_mu1:
        fitted["mu1_hat"] = empty(n)
    if need_sigma:
        fitted["sigma0_hat"], fitted["sigma1_hat"] = empty(n), empty(n)
    arms = (None, 0, 1) if need_mu1 or need_sigma else (None, 0)
    fits = [(train, test, arm) for train, test in _fold_layout(n, config.folds, config.seed)
            for arm in arms]
    args = (y, a, x, fits, fitted, config)
    # Every fit runs the same code wherever it runs, and the fits are read
    # back in index order, so the first failing fit's error is raised
    # whatever the worker count.
    _chunked(_fold_fits, args, len(fits), pooled=pooled)

    for name, values in fitted.items():
        if not np.isfinite(values).all():
            raise NonFiniteEstimateError(f"fitted {name} has non-finite values")
    return NuisanceValues(**fitted, clip_eps=eps, _owned=True)
