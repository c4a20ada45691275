import itertools
import json
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from treated import (
    Dataset,
    EstimandKind,
    FoldTooSmallError,
    InsufficientArmDataError,
    IrlsDivergedError,
    MissingOracleError,
    NonFiniteEstimateError,
    NuisanceConfig,
    NuisanceValues,
    OutcomeKind,
    SingularSystemError,
    ValidationError,
    compute_nuisances,
    estimate_all,
)
from treated import mathutil, nuisance
from treated.cli import main
from treated.mathutil import bernoulli_loglik, expit, select
from treated.nuisance import fit_conditional_sd, fit_outcome_mean, fit_propensity

from conftest import with_workers


def _expit_two_branch(t):
    """The masked two-branch logistic, the reference for ``expit``."""
    t = np.asarray(t, dtype=float)
    out = np.empty_like(t)
    pos = t >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-t[pos]))
    et = np.exp(t[~pos])
    out[~pos] = et / (1.0 + et)
    return out


def test_expit_matches_two_branch_formula_bit_for_bit():
    edges = np.array([0.0, 1e-300, 1.0, 36.7, 709.0, 745.0, 1e308, np.inf])
    grid = np.concatenate([edges, -edges, np.linspace(-800.0, 800.0, 20001)])
    assert expit(grid).tobytes() == _expit_two_branch(grid).tobytes()
    for t in (0.0, -0.0, 3.5, -745.0):
        got = expit(t)
        assert isinstance(got, np.ndarray) and got.shape == ()
        assert got.tobytes() == _expit_two_branch(t).tobytes()


# Signed zeros, infinities and NaNs of either sign and a payload, by bit pattern.
_SPECIAL_FLOATS = np.array([0, 1 << 63, 0x7FF0 << 48, 0xFFF0 << 48, 0x7FF8 << 48,
                            (0xFFF8 << 48) | 0x123], dtype=np.uint64).view(float)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.sampled_from([(), (1,), (9,), (4, 5), (2, 3, 4)]))
def test_select_matches_where_bit_for_bit(seed, shape):
    rng = np.random.default_rng(seed)
    mask = rng.random(shape) < rng.random()
    a, b = (np.where(rng.random(shape) < 0.5, rng.choice(_SPECIAL_FLOATS, shape),
                     rng.standard_normal(shape)) for _ in range(2))
    got = select(mask, a, b)
    assert isinstance(got, np.ndarray) and got.shape == shape
    assert got.tobytes() == np.where(mask, a, b).tobytes()


def _dataset(n=100, d=1, seed=0, slope=0.5, noise=1.0):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, d))
    pi = expit(slope * x.sum(axis=1))
    a = (rng.random(n) < pi).astype(int)
    a[0], a[1] = 1, 0
    y = 1.0 + x.sum(axis=1) + noise * rng.standard_normal(n)
    return Dataset(y=y, a=a, x=x)


# ---------------------------------------------------------------------------
# Propensity.

def test_intercept_only_mle_is_sample_mean():
    ds = Dataset(y=np.zeros(100), a=[1] * 30 + [0] * 70, x=np.empty((100, 0)))
    model = fit_propensity(ds, NuisanceConfig())
    assert model.predict(np.empty((5, 0))) == pytest.approx([0.30] * 5, abs=1e-6)


def test_separated_covariate_yields_finite_monotone_clipped_predictions():
    # Oracle check: predictions stay inside [0.01, 0.99] and increase with x.
    x = np.array([-5.0, -4, -3, -2, -1, 1, 2, 3, 4, 5]).reshape(-1, 1)
    a = (x.ravel() > 0).astype(int)
    ds = Dataset(y=np.zeros(10), a=a, x=x)
    model = fit_propensity(ds, NuisanceConfig())
    p = model.predict(x)
    assert np.isfinite(p).all()
    assert p.min() >= 0.01 and p.max() <= 0.99
    assert np.all(np.diff(p) >= 0)


def test_irls_penalized_loglik_monotone():
    ds = _dataset(n=400, d=3, seed=5)
    model = fit_propensity(ds, NuisanceConfig())
    trace = np.array(model.ll_trace)
    assert trace.size >= 2
    assert np.all(np.diff(trace) >= -1e-10)



def test_irls_step_halving_keeps_the_penalized_loglik_from_falling(monkeypatch):
    # On this seeded sample of cubed covariates with a steep slope, full
    # Newton steps overshoot and the fit halves them.
    n = 20
    rng = np.random.default_rng(6)
    x = rng.standard_normal((n, 2)) ** 3
    a = (rng.random(n) < expit(3.0 * x.sum(axis=1))).astype(int)
    a[0], a[1] = 1, 0
    calls = []

    def counted(a, eta):
        calls.append(1)
        return bernoulli_loglik(a, eta)

    monkeypatch.setattr(nuisance, "bernoulli_loglik", counted)
    trace = np.array(fit_propensity(Dataset(y=np.zeros(n), a=a, x=x), NuisanceConfig()).ll_trace)
    # One evaluation at the start and one per accepted step: any more were
    # candidates the fit halved.
    assert len(calls) > trace.size
    rounding = nuisance._LL_ROUNDING * (1.0 + np.abs(trace[:-1]))
    assert np.all(np.diff(trace) >= -rounding)

def test_large_n_independent_treatment_recovers_null_coefficients():
    # Monte Carlo oracle: at pi = 0.5 with standard normal X the asymptotic
    # sd of each logistic coefficient is sqrt(1 / (0.25 n)) = 2 / sqrt(n).
    n = 100_000
    rng = np.random.default_rng(42)
    x = rng.standard_normal((n, 2))
    a = (rng.random(n) < 0.5).astype(int)
    ds = Dataset(y=np.zeros(n), a=a, x=x)
    model = fit_propensity(ds, NuisanceConfig())
    se = 2.0 / np.sqrt(n)
    coef = model.affine.coef  # standardized scale; x already ~ unit scale
    assert abs(coef[0]) < 3 * se
    assert abs(coef[1]) < 3 * se
    assert abs(coef[2]) < 3 * se


# ---------------------------------------------------------------------------
# Outcome means.

def test_constant_outcome_gives_constant_fit():
    y = np.where(np.arange(10) % 2 == 0, 3.0, 99.0)  # controls all equal 3
    a = (np.arange(10) % 2 == 1).astype(int)
    ds = Dataset(y=y, a=a, x=np.random.default_rng(0).standard_normal((10, 1)))
    model = fit_outcome_mean(ds, arm=0, config=NuisanceConfig())
    assert model.predict(ds.x) == pytest.approx(np.full(10, 3.0), abs=1e-9)


def test_d0_outcome_mean_is_arm_mean():
    y = np.array([1.0, 5.0, 2.0, 7.0])
    ds = Dataset(y=y, a=[1, 0, 1, 0], x=np.empty((4, 0)))
    m0 = fit_outcome_mean(ds, 0, NuisanceConfig())
    m1 = fit_outcome_mean(ds, 1, NuisanceConfig())
    assert m0.predict(np.empty((1, 0)))[0] == pytest.approx(6.0, rel=1e-12)
    assert m1.predict(np.empty((1, 0)))[0] == pytest.approx(1.5, rel=1e-12)


def test_exact_linear_fit_matches_normal_equations():
    # Oracle: solve the unpenalized 2x2 normal equations directly.
    rng = np.random.default_rng(3)
    x = rng.standard_normal((40, 1))
    y = 2.0 * x.ravel() + 1.0
    a = np.zeros(40, dtype=int)
    a[:5] = 1
    ds = Dataset(y=y, a=a, x=x)
    model = fit_outcome_mean(ds, arm=0, config=NuisanceConfig())
    rows = np.flatnonzero(a == 0)
    design = np.column_stack([np.ones(rows.size), x[rows, 0]])
    beta = np.linalg.solve(design.T @ design, design.T @ y[rows])
    grid = np.linspace(-3, 3, 7).reshape(-1, 1)
    expected = beta[0] + beta[1] * grid.ravel()
    assert model.predict(grid) == pytest.approx(expected, abs=1e-6)
    assert model.predict(x) == pytest.approx(y, abs=1e-6)


def test_insufficient_arm_data():
    ds = Dataset(y=[1.0, 2.0, 3.0], a=[1, 0, 0], x=np.eye(3)[:, :2])
    with pytest.raises(InsufficientArmDataError):
        fit_outcome_mean(ds, arm=1, config=NuisanceConfig())  # 1 treated < d+1


# ---------------------------------------------------------------------------
# Conditional sd.

def test_homoskedastic_intercept_sd():
    rng = np.random.default_rng(11)
    n = 200
    resid = rng.standard_normal(n) * 1.7
    y = resid
    a = np.zeros(n, dtype=int)
    a[:3] = 1
    ds = Dataset(y=y, a=a, x=np.empty((n, 0)))
    mean_model = fit_outcome_mean(ds, 0, NuisanceConfig())
    sd_model = fit_conditional_sd(ds, 0, mean_model, NuisanceConfig())
    rows = np.flatnonzero(a == 0)
    expected = np.sqrt(np.mean((y[rows] - y[rows].mean()) ** 2))
    assert sd_model.predict(np.empty((1, 0)))[0] == pytest.approx(expected, rel=1e-6)


def test_zero_residuals_give_zero_sd():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((30, 1))
    y = 4.0 - 2.0 * x.ravel()
    a = np.zeros(30, dtype=int)
    a[:4] = 1
    ds = Dataset(y=y, a=a, x=x)
    mean_model = fit_outcome_mean(ds, 0, NuisanceConfig())
    sd_model = fit_conditional_sd(ds, 0, mean_model, NuisanceConfig())
    assert sd_model.predict(x) == pytest.approx(np.zeros(30), abs=1e-6)


def test_sd_regression_recovers_linear_variance_pattern():
    # sigma0(x)^2 = 1 + x^2 is linear in the second column of (x, x^2), so the
    # squared-residual regression should recover the (1, 0, 1) pattern.
    rng = np.random.default_rng(7)
    n = 100_000
    x1 = rng.standard_normal(n)
    x = np.column_stack([x1, x1 ** 2])
    sd = np.sqrt(1.0 + x1 ** 2)
    y = sd * rng.standard_normal(n)
    a = np.zeros(n, dtype=int)
    a[:10] = 1
    ds = Dataset(y=y, a=a, x=x)
    mean_model = fit_outcome_mean(ds, 0, NuisanceConfig())
    sd_model = fit_conditional_sd(ds, 0, mean_model, NuisanceConfig())
    aff = sd_model.affine
    intercept = aff.coef[0] - np.sum(aff.coef[1:] * aff.mean / aff.scale)
    slopes = aff.coef[1:] / aff.scale
    assert intercept == pytest.approx(1.0, abs=0.1)
    assert slopes[0] == pytest.approx(0.0, abs=0.05)
    assert slopes[1] == pytest.approx(1.0, abs=0.05)


# ---------------------------------------------------------------------------
# compute_nuisances.

@pytest.mark.parametrize("folds, message", [(2.5, "folds must be an int, got 2.5"),
                                            (True, "folds must be an int, got True"),
                                            (0, "folds must be >= 1")])
def test_config_refuses_a_non_integer_fold_count(folds, message):
    # 2.5 ran and was reported as "folds": 2.5; True ran one fold, reported as true.
    with pytest.raises(ValidationError, match=f"^{message}$"):
        NuisanceConfig(folds=folds)
    assert NuisanceConfig(folds=np.int64(2)).folds == 2


def test_oracle_passthrough_with_clipping():
    ds = _dataset(n=20, seed=1)
    oracle = NuisanceValues(
        pi_hat=np.full(20, 0.005), mu0_hat=np.arange(20.0), mu1_hat=np.arange(20.0) + 1,
        sigma0_hat=np.ones(20), sigma1_hat=np.ones(20), clip_eps=0.001,
    )
    out = compute_nuisances(ds, NuisanceConfig(), oracle=oracle)
    assert np.all(out.pi_hat == 0.01)  # clipped up to the config's eps
    assert np.array_equal(out.mu0_hat, oracle.mu0_hat)
    assert np.array_equal(out.mu1_hat, oracle.mu1_hat)
    assert np.array_equal(out.sigma0_hat, oracle.sigma0_hat)


@pytest.mark.parametrize("oracle_eps, config_eps, need_sigma, sds, as_is", [
    (0.02, 0.01, True, "both", True),
    (0.01, 0.01, True, "both", True),
    (0.02, 0.01, True, "none", True),
    (0.02, 0.05, True, "both", False),  # the config clips harder
    (0.02, 0.01, False, "both", True),  # unneeded sds are kept
    (0.02, 0.01, True, "sigma0", True),  # so is a lone sd
])
def test_oracle_returned_as_is_only_when_nothing_changes(oracle_eps, config_eps, need_sigma,
                                                          sds, as_is):
    n = 50
    ds = _dataset(n=n, seed=3)
    pi = np.linspace(oracle_eps, 1.0 - oracle_eps, n)
    sd = np.ones(n)
    oracle = NuisanceValues(pi_hat=pi, mu0_hat=np.zeros(n), mu1_hat=np.ones(n),
                            sigma0_hat=None if sds == "none" else sd,
                            sigma1_hat=sd if sds == "both" else None, clip_eps=oracle_eps)
    out = compute_nuisances(ds, NuisanceConfig(clip_eps=config_eps), oracle=oracle,
                            need_sigma=need_sigma)
    assert (out is oracle) == as_is
    assert out.pi_hat.tobytes() == np.clip(pi, config_eps, 1.0 - config_eps).tobytes()

    def sds(nu):
        return [None if v is None else v.tobytes() for v in (nu.sigma0_hat, nu.sigma1_hat)]

    assert sds(out) == sds(oracle)


def test_oracle_mu1_required_only_when_needed():
    ds = _dataset(n=20, seed=1)
    oracle = NuisanceValues(pi_hat=np.full(20, 0.5), mu0_hat=np.zeros(20))
    with pytest.raises(MissingOracleError):
        compute_nuisances(ds, NuisanceConfig(), oracle=oracle)
    out = compute_nuisances(ds, NuisanceConfig(), oracle=oracle, need_mu1=False)
    assert out.mu1_hat is None and out.sigma0_hat is None


def test_oracle_without_sigmas_skips_the_sigma_variant():
    ds = _dataset(n=40, seed=2)
    oracle = NuisanceValues(pi_hat=np.full(40, 0.5), mu0_hat=np.zeros(40),
                            mu1_hat=np.ones(40))
    report = estimate_all(ds, oracle=oracle)
    assert report.per_kind[EstimandKind.SWATT].conservative_sigma is None
    assert "v_sigma_bound" not in report.diagnostics
    assert report.diagnostics["nuisance_method"] == \
        "propensity=oracle,outcome=oracle,sd=skip"


def test_two_fold_handtrace_matches_per_half_refits():
    # d=0, folds=2 on n=4: each unit's predictions must come from the other
    # half. Oracle: intercept-only fits computed by hand on each complement.
    y = np.array([3.0, 1.0, 2.0, 0.0])
    a = np.array([1, 0, 1, 0])
    ds = Dataset(y=y, a=a, x=np.empty((4, 0)))
    seed = next(
        s for s in range(100)
        if all(b.size == 2 and a[b].sum() == 1
               for b in np.array_split(np.random.default_rng(s).permutation(4), 2))
    )
    config = NuisanceConfig(folds=2, seed=seed)
    out = compute_nuisances(ds, config, need_sigma=False)
    blocks = np.array_split(np.random.default_rng(seed).permutation(4), 2)
    for j, block in enumerate(blocks):
        comp = np.setdiff1d(np.arange(4), block)
        assert out.pi_hat[block] == pytest.approx(np.full(2, a[comp].mean()), abs=1e-6)
        assert out.mu0_hat[block] == pytest.approx(
            np.full(2, y[comp][a[comp] == 0].mean()), rel=1e-9)
        assert out.mu1_hat[block] == pytest.approx(
            np.full(2, y[comp][a[comp] == 1].mean()), rel=1e-9)


def test_cross_fitting_deterministic():
    ds = _dataset(n=80, d=2, seed=9)
    config = NuisanceConfig(folds=4, seed=123)
    first = compute_nuisances(ds, config)
    second = compute_nuisances(ds, config)
    for name in ("pi_hat", "mu0_hat", "mu1_hat", "sigma0_hat", "sigma1_hat"):
        assert np.array_equal(getattr(first, name), getattr(second, name))


def test_cross_fitting_honesty():
    # Perturbing y[i] for i in fold j must leave every prediction in fold j
    # unchanged (they are fitted on the complement only).
    ds = _dataset(n=60, d=1, seed=13)
    config = NuisanceConfig(folds=3, seed=77)
    base = compute_nuisances(ds, config)
    blocks = np.array_split(np.random.default_rng(77).permutation(60), 3)
    target_fold = blocks[1]
    y2 = ds.y.copy()
    y2[target_fold[0]] += 1.0
    ds2 = Dataset(y=y2, a=ds.a, x=ds.x)
    perturbed = compute_nuisances(ds2, config)
    for name in ("mu0_hat", "mu1_hat", "sigma0_hat", "sigma1_hat"):
        assert np.array_equal(getattr(base, name)[target_fold],
                              getattr(perturbed, name)[target_fold])
    # sanity: the perturbation does change somebody's prediction
    assert not np.array_equal(base.mu0_hat, perturbed.mu0_hat) or \
        not np.array_equal(base.mu1_hat, perturbed.mu1_hat)


def test_fold_too_small():
    ds = Dataset(y=np.arange(8.0), a=[1, 1, 1, 0, 0, 0, 0, 0], x=np.empty((8, 0)))
    with pytest.raises(FoldTooSmallError):
        compute_nuisances(ds, NuisanceConfig(folds=5))


def test_singular_least_squares_is_a_numeric_error(monkeypatch):
    # Without the ridge term a covariate duplicated on the control rows makes
    # arm 0's normal equations exactly singular; numpy's LinAlgError must not
    # escape. The treated rows keep the propensity fit's own system regular.
    base = _dataset(n=80, d=1, seed=5)
    x2 = np.where(base.a == 0, base.x[:, 0], np.random.default_rng(6).standard_normal(80))
    ds = Dataset(y=base.y, a=base.a, x=np.column_stack([base.x, x2]))
    monkeypatch.setattr(nuisance, "_RIDGE", 0.0)
    with pytest.raises(SingularSystemError):
        estimate_all(ds, NuisanceConfig())


def test_singular_irls_system_is_a_numeric_error(monkeypatch):
    # The IRLS diagonal carries _RIDGE alone: without it a covariate duplicated
    # on every row makes the propensity fit's system exactly singular.
    base = _dataset(n=80, d=1, seed=5)
    ds = Dataset(y=base.y, a=base.a, x=np.column_stack([base.x, base.x]))
    monkeypatch.setattr(nuisance, "_RIDGE", 0.0)
    with pytest.raises(IrlsDivergedError, match="singular IRLS system"):
        estimate_all(ds, NuisanceConfig())


@pytest.mark.parametrize("x", [[[1e308], [1e308], [-1e308], [1e308]],
                               [[1e308, 0.0], [1e308, 1.0], [1e308, 2.0], [-1e308, 0.5]]])
def test_overflowing_standardization_is_a_non_finite_weight_error(x):
    # The column mean overflows, so the design, the logits and the working
    # weights at the starting point are NaN.
    ds = Dataset(y=np.zeros(4), a=[1, 0, 1, 0], x=x)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        with pytest.raises(IrlsDivergedError, match="^non-finite working weights in IRLS$"):
            fit_propensity(ds, NuisanceConfig())


def test_overflowing_fitted_sd_is_a_numeric_error():
    # Outcomes near 1e200 are finite, but their squared residuals overflow,
    # so the fitted conditional sds come out NaN.
    base = _dataset(n=400, d=1, seed=6)
    ds = Dataset(y=base.y * 1e200, a=base.a, x=base.x)
    with np.errstate(all="ignore"), pytest.raises(NonFiniteEstimateError, match="sigma0_hat"):
        compute_nuisances(ds, NuisanceConfig())


def test_clipping_invariant_fitted():
    ds = _dataset(n=200, d=1, seed=3, slope=4.0)
    out = compute_nuisances(ds, NuisanceConfig(clip_eps=0.05))
    assert out.pi_hat.min() >= 0.05 and out.pi_hat.max() <= 0.95


def test_mu1_skipped_when_not_needed():
    ds = _dataset(n=50, seed=21)
    out = compute_nuisances(ds, NuisanceConfig(), need_mu1=False, need_sigma=False)
    assert out.mu1_hat is None and out.sigma0_hat is None


def test_extreme_control_residual_is_reported():
    rng = np.random.default_rng(4)
    n = 60
    x = rng.standard_normal((n, 1))
    y = x.ravel() + 0.1 * rng.standard_normal(n)
    a = np.zeros(n, dtype=int)
    a[:5] = 1
    y[-1] += 500.0  # one extreme control residual
    ds = Dataset(y=y, a=a, x=x)
    # These estimands fit no treated-arm mean, so only the control arm is checked.
    report = estimate_all(ds, NuisanceConfig(),
                          estimands=[EstimandKind.PATT, EstimandKind.SATT, EstimandKind.MATT])
    assert report.diagnostics["heavy_residual_arms"] == [0]


def test_exact_fit_raises_no_heavy_residual_warning():
    # Both arms fit exactly; the treated residuals are the ridge term's 5e-9
    # and their IQR is 2e-16, which the bare 10x-IQR rule flagged.
    ds = Dataset(y=[1.0, 2.0, 3.0, 5.0, 4.0], a=[0, 0, 1, 1, 0],
                 x=[[0.0], [1.0], [0.0], [1.0], [3.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = estimate_all(ds, NuisanceConfig())
    assert report.diagnostics["heavy_residual_arms"] == []


def test_one_outlier_among_exact_residuals_is_heavy():
    from treated.nuisance import _residual_diagnostic

    # Nine residuals at the ridge term's size, an IQR of 5e-11, and one of 1.0.
    y = np.arange(1.0, 11.0)
    mu = y - np.linspace(5e-9, 5.1e-9, y.size)
    mu[-1] -= 1.0
    assert _residual_diagnostic(y, mu)
    # Nine exact residuals leave an IQR of 0; the outlier is still heavy.
    y = np.zeros(10)
    y[-1] = 1.0
    assert _residual_diagnostic(y, np.zeros(10))
    # Two equal residuals are no outlier.
    assert not _residual_diagnostic(np.array([1.0, 0.0]), np.array([0.0, 1.0]))


def test_residual_quartiles_match_numpys_percentile_bit_for_bit():
    rng = np.random.default_rng(12)
    for trial in range(600):
        n = int(rng.integers(1, 40)) if trial % 3 else int(rng.integers(40, 5000))
        values = np.abs(rng.standard_normal(n)) * 10.0 ** rng.integers(-12, 12)
        if trial % 4 == 0:
            values = np.round(values)  # ties, as from integer outcomes
        q75, q25 = np.percentile(values, [75, 25])
        got = nuisance._quartiles(values.copy())
        assert np.array([q75, q25, values.max()]).tobytes() == np.array(got).tobytes(), n


def test_binary_outcome_raises_no_heavy_residual_warning():
    # With 10% prevalence the 0/1 residuals have a zero or tiny IQR, which the
    # 10x-IQR rule used to flag on every fit.
    rng = np.random.default_rng(8)
    n = 300
    x = rng.standard_normal((n, 1))
    a = (rng.random(n) < 0.5).astype(int)
    y = (rng.random(n) < 0.1).astype(float)
    ds = Dataset(y=y, a=a, x=x, outcome_kind=OutcomeKind.BINARY)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = estimate_all(ds, NuisanceConfig())
    assert report.diagnostics["heavy_residual_arms"] == []
    # The bare rule would flag an arm of this outcome.
    mu = compute_nuisances(ds, NuisanceConfig()).mu0_hat
    assert nuisance._residual_diagnostic(y[a == 0], mu[a == 0])


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**31 - 1))
@example(seed=300734144)  # both seeds draw a heavy residual in one arm
@example(seed=522869530)
def test_fitted_nuisances_deterministic_and_clipped(seed):
    ds = _dataset(n=40, d=2, seed=seed)
    config = NuisanceConfig()
    a_out = compute_nuisances(ds, config)
    b_out = compute_nuisances(ds, config)
    assert np.array_equal(a_out.pi_hat, b_out.pi_hat)
    assert np.array_equal(a_out.mu0_hat, b_out.mu0_hat)
    assert a_out.pi_hat.min() >= config.clip_eps
    assert a_out.pi_hat.max() <= 1 - config.clip_eps


# ---------------------------------------------------------------------------
# The fold loop against the fits it replaced, in which each arm's mean fit
# and sd fit built their own rows, standardization, design and Gram matrix,
# and every IRLS iteration recomputed the linear predictor.

def _reference_design(x):
    mean = x.mean(axis=0)
    scale = x.std(axis=0)
    scale = np.where(scale > 0, scale, 1.0)
    return mean, scale, np.column_stack([np.ones(x.shape[0]), (x - mean) / scale])


def _layouts(x):
    """x as a C-contiguous, an F-contiguous and a column-strided array."""
    wide = np.repeat(x, 2, axis=1)
    return {"C": np.ascontiguousarray(x), "F": np.asfortranarray(x), "strided": wide[:, ::2]}


@pytest.mark.parametrize("n", [1, 2047, 2056, 70_000])
@pytest.mark.parametrize("d", [0, 1, 2, 3, 4])
def test_design_matches_numpys_reductions_bit_for_bit(n, d):
    rng = np.random.default_rng(1000 * d + n)
    x = rng.standard_normal((n, d)) * rng.uniform(0.1, 100.0, d) + rng.uniform(-50, 50, d)
    if d >= 2:
        x[:, 1] = 2.5  # a constant column keeps unit scale
    for layout, arr in _layouts(x).items():
        got = nuisance._design(arr)
        expected = _reference_design(arr)
        for name, g, e in zip(("mean", "scale", "design"), got, expected):
            assert (g.shape, g.strides, g.tobytes()) == (e.shape, e.strides, e.tobytes()), \
                (layout, name)


def _reference_fit_linear(x, target, lam):
    mean, scale, design = _reference_design(x)
    gram = design.T @ design
    d = design.shape[1] - 1
    if d > 0:
        gram[np.arange(1, d + 1), np.arange(1, d + 1)] += lam
    return mean, scale, np.linalg.solve(gram, design.T @ target)


def _reference_linear(model, x):
    mean, scale, coef = model
    return coef[0] + ((x - mean) / scale) @ coef[1:]


def _reference_fit_logistic(a, x, lam):
    mean, scale, design = _reference_design(x)
    d = design.shape[1] - 1
    a = a.astype(float)

    def penalized_ll(beta):
        ll = bernoulli_loglik(a, design @ beta)
        if d > 0:
            ll -= 0.5 * lam * float(beta[1:] @ beta[1:])
        return ll

    beta = np.zeros(d + 1)
    ll = penalized_ll(beta)
    trace = [ll]
    for _ in range(100):
        eta = design @ beta
        p = expit(eta)
        w = p * (1.0 - p)
        grad = design.T @ (a - p)
        hess = design.T @ (design * w[:, None])
        if d > 0:
            grad[1:] -= lam * beta[1:]
            hess[np.arange(1, d + 1), np.arange(1, d + 1)] += lam
        hess[np.diag_indices_from(hess)] += max(lam, 1e-10)
        delta = np.linalg.solve(hess, grad)
        last = 0.5 * float(grad @ delta) <= 1e-12 * (1.0 + abs(ll))
        step = 1.0
        accepted = None
        for _ in range(60):
            cand = beta + step * delta
            cand_ll = penalized_ll(cand)
            if np.isfinite(cand_ll) and cand_ll >= ll - 1e-13 * (1.0 + abs(ll)):
                accepted = (cand, cand_ll)
                break
            step *= 0.5
        if accepted is None:
            break
        beta, ll = accepted
        trace.append(ll)
        if last:
            break
    return (mean, scale, beta), tuple(trace)


def _reference_compute_nuisances(ds, config, need_mu1, need_sigma):
    y, a, x, n, lam = ds.y, ds.a, ds.x, ds.n, nuisance._RIDGE
    fitted = {"pi_hat": np.empty(n), "mu0_hat": np.empty(n)}
    if need_mu1:
        fitted["mu1_hat"] = np.empty(n)
    if need_sigma:
        fitted["sigma0_hat"], fitted["sigma1_hat"] = np.empty(n), np.empty(n)
    perm = np.random.default_rng(config.seed).permutation(n)
    for block in np.array_split(perm, config.folds):
        train = np.ones(n, dtype=bool)
        train[block] = config.folds == 1
        a_c, y_c, x_c = a[train], y[train], x[train]
        x_b = x[block]
        propensity, _ = _reference_fit_logistic(a_c, x_c, lam)
        fitted["pi_hat"][block] = np.clip(expit(_reference_linear(propensity, x_b)),
                                          config.clip_eps, 1.0 - config.clip_eps)
        mean_fits = [_reference_fit_linear(x_c[np.flatnonzero(a_c == arm)],
                                           y_c[np.flatnonzero(a_c == arm)], lam)
                     for arm in ((0, 1) if need_mu1 or need_sigma else (0,))]
        fitted["mu0_hat"][block] = _reference_linear(mean_fits[0], x_b)
        if need_mu1:
            fitted["mu1_hat"][block] = _reference_linear(mean_fits[1], x_b)
        if need_sigma:
            for arm, mean_fit in enumerate(mean_fits):
                rows = np.flatnonzero(a_c == arm)
                sq_resid = (y_c[rows] - _reference_linear(mean_fit, x_c[rows])) ** 2
                sd_fit = _reference_fit_linear(x_c[rows], sq_resid, lam)
                fitted[f"sigma{arm}_hat"][block] = np.sqrt(
                    np.maximum(0.0, _reference_linear(sd_fit, x_b)))
    return fitted


@pytest.mark.parametrize("kind", [OutcomeKind.CONTINUOUS, OutcomeKind.BINARY])
@pytest.mark.parametrize("d", [0, 1, 2, 3])
@pytest.mark.parametrize("folds", [1, 3])
def test_shared_arm_design_matches_the_separate_fits_bit_for_bit(folds, d, kind):
    base = _dataset(n=150, d=d, seed=40 + d)
    y = (base.y > 1.0).astype(float) if kind is OutcomeKind.BINARY else base.y
    ds = Dataset(y=y, a=base.a, x=base.x, outcome_kind=kind)
    config = NuisanceConfig(folds=folds, seed=5)
    # x given in each layout: the dataset stores it C-contiguous, so the fits
    # sum its columns in one order and give the reference's bits.
    layouts = {layout: Dataset(y=y, a=base.a, x=x, outcome_kind=kind)
               for layout, x in _layouts(base.x).items()}
    for need_mu1 in (True, False):
        for need_sigma in (True, False):
            expected = _reference_compute_nuisances(ds, config, need_mu1, need_sigma)
            for layout, data in layouts.items():
                assert data.x.flags.c_contiguous, layout
                got = compute_nuisances(data, config, need_mu1=need_mu1, need_sigma=need_sigma)
                for name in ("pi_hat", "mu0_hat", "mu1_hat", "sigma0_hat", "sigma1_hat"):
                    value = getattr(got, name)
                    assert (value is None) == (name not in expected)
                    if value is not None:
                        assert value.tobytes() == expected[name].tobytes(), (layout, name)
    _, trace = _reference_fit_logistic(ds.a, ds.x, nuisance._RIDGE)
    assert fit_propensity(ds, config).ll_trace == trace
    for arm in (0, 1):
        rows = np.flatnonzero(ds.a == arm)
        mean_ref = _reference_fit_linear(ds.x[rows], ds.y[rows], nuisance._RIDGE)
        sq_resid = (ds.y[rows] - _reference_linear(mean_ref, ds.x[rows])) ** 2
        sd_ref = _reference_fit_linear(ds.x[rows], sq_resid, nuisance._RIDGE)
        mean_fit = fit_outcome_mean(ds, arm, config)
        assert mean_fit.coef.tobytes() == mean_ref[2].tobytes()
        sd_fit = fit_conditional_sd(ds, arm, mean_fit, config)
        assert sd_fit.affine.coef.tobytes() == sd_ref[2].tobytes()


@pytest.mark.parametrize("d", [1, 3])
@pytest.mark.parametrize("n", [150, 5_000])
def test_sd_fit_on_a_mean_model_of_another_sample_matches_the_reference(n, d):
    # A mean model fitted on another sample carries another standardization:
    # the sd fit regresses the squared residuals of that model's predictions
    # at this arm's rows, not of this arm's own mean fit.
    ds, other = _dataset(n=n, d=d, seed=60 + d), _dataset(n=n // 2, d=d, seed=70 + d)
    other = Dataset(y=other.y * 3.0 - 2.0, a=other.a, x=other.x * 2.0 + 1.0)
    config = NuisanceConfig()
    for arm in (0, 1):
        rows = np.flatnonzero(ds.a == arm)
        mean_ref = _reference_fit_linear(other.x[other.a == arm], other.y[other.a == arm],
                                         nuisance._RIDGE)
        sq_resid = (ds.y[rows] - _reference_linear(mean_ref, ds.x[rows])) ** 2
        sd_ref = _reference_fit_linear(ds.x[rows], sq_resid, nuisance._RIDGE)
        mean_fit = fit_outcome_mean(other, arm, config)
        assert mean_fit.scale.tobytes() != _reference_design(ds.x[rows])[1].tobytes()
        sd_fit = fit_conditional_sd(ds, arm, mean_fit, config)
        np.testing.assert_allclose(sd_fit.affine.coef, sd_ref[2], rtol=1e-9, atol=1e-12)


# ---------------------------------------------------------------------------
# Many row blocks: the fits against the two-pass IRLS they replaced, in which
# every Newton step took one pass for the candidate's log-likelihood and another
# for the weights, gradient and Hessian over whole n-length arrays, built on
# the blocked products; and against the unsorted fold rows and the arm rows
# selected through a[train].

def _two_pass_fit_logistic(a, x):
    mean, scale, design = nuisance._design(x)
    d = design.shape[1] - 1
    lam = nuisance._RIDGE

    def penalized_ll(beta):
        eta = mathutil.blocked_matmul(design, beta)
        return bernoulli_loglik(a, eta) - 0.5 * lam * float(beta[1:] @ beta[1:]), eta

    beta = np.zeros(d + 1)
    ll, eta = penalized_ll(beta)
    trace = [ll]
    for _ in range(nuisance._MAX_IRLS_ITER):
        p = expit(eta)
        w = p * (1.0 - p)
        grad = mathutil.blocked_crossprod(design, a - p)
        hess = mathutil.blocked_crossprod(design, design * w[:, None])
        grad[1:] -= lam * beta[1:]
        hess[np.arange(1, d + 1), np.arange(1, d + 1)] += lam
        hess[np.diag_indices_from(hess)] += lam
        delta = np.linalg.solve(hess, grad)
        last = 0.5 * float(grad @ delta) <= nuisance._FINAL_DECREMENT * (1.0 + abs(ll))
        floor = ll - nuisance._LL_ROUNDING * (1.0 + abs(ll))
        step = 1.0
        for _ in range(60):
            cand = beta + step * delta
            cand_ll, cand_eta = penalized_ll(cand)
            if np.isfinite(cand_ll) and cand_ll >= floor:
                break
            step *= 0.5
        else:
            break
        beta, ll, eta = cand, cand_ll, cand_eta
        trace.append(ll)
        if last:
            break
    return (mean, scale, beta), trace


def _blocked_affine(model, x):
    mean, scale, coef = model
    return coef[0] + mathutil.blocked_matmul((x - mean) / scale, coef[1:])


def _two_pass_compute_nuisances(ds, config):
    y, a, x, n, lam = ds.y, ds.a, ds.x, ds.n, nuisance._RIDGE
    fitted = {name: np.empty(n) for name in ("pi_hat", "mu0_hat", "mu1_hat", "sigma0_hat",
                                             "sigma1_hat")}
    blocks = np.array_split(np.random.default_rng(config.seed).permutation(n), config.folds)
    for test in blocks if config.folds > 1 else [np.arange(n)]:
        train = np.ones(n, dtype=bool)
        train[test] = config.folds == 1
        propensity, _ = _two_pass_fit_logistic(a[train], x[train])
        fitted["pi_hat"][test] = np.clip(expit(_blocked_affine(propensity, x[test])),
                                         config.clip_eps, 1.0 - config.clip_eps)
        for arm in (0, 1):
            rows = np.arange(n)[train][a[train] == arm]
            x_r, y_r = x[rows], y[rows]
            mean, scale, design = nuisance._design(x_r)
            gram = mathutil.blocked_crossprod(design, design)
            gram[np.arange(1, design.shape[1]), np.arange(1, design.shape[1])] += lam
            mean_fit = (mean, scale,
                        np.linalg.solve(gram, mathutil.blocked_crossprod(design, y_r)))
            sq_resid = (y_r - _blocked_affine(mean_fit, x_r)) ** 2
            sd_fit = (mean, scale,
                      np.linalg.solve(gram, mathutil.blocked_crossprod(design, sq_resid)))
            fitted[f"mu{arm}_hat"][test] = _blocked_affine(mean_fit, x[test])
            fitted[f"sigma{arm}_hat"][test] = np.sqrt(np.maximum(0.0, _blocked_affine(sd_fit,
                                                                                      x[test])))
    return fitted


@pytest.mark.parametrize("n", [2_056, 4_103, 20_003])
def test_blocked_irls_matches_the_two_pass_fit_bit_for_bit(n):
    # 2,056 rows: a full block and one of 8; 4,103: a last block of 2,055 that
    # keeps its 7 extra rows; 20,003: nine full blocks and a short one.
    ds = _dataset(n=n, d=2, seed=n, slope=1.5)
    model = fit_propensity(ds, NuisanceConfig())
    (mean, scale, beta), trace = _two_pass_fit_logistic(ds.a, ds.x)
    for got, expected in ((model.affine.mean, mean), (model.affine.scale, scale),
                          (model.affine.coef, beta)):
        assert got.tobytes() == expected.tobytes()
    # The log-likelihood is summed block by block, not over the whole array.
    assert len(model.ll_trace) == len(trace)
    tolerance = n * np.finfo(float).eps * (1.0 + np.abs(trace))
    assert np.all(np.abs(np.array(model.ll_trace) - trace) <= tolerance)
    for folds in (1, 3):
        config = NuisanceConfig(folds=folds, seed=n % 7)
        got = compute_nuisances(ds, config)
        for name, expected in _two_pass_compute_nuisances(ds, config).items():
            assert getattr(got, name).tobytes() == expected.tobytes(), (folds, name)


@pytest.mark.parametrize("folds", [1, 2, 5])
@pytest.mark.parametrize("n, seed", [(10, 0), (257, 3), (4_103, 11)])
def test_fold_rows_are_sorted_blocks_and_arm_rows_their_complements(monkeypatch, n, seed,
                                                                    folds):
    layout = nuisance._fold_layout(n, folds, seed)
    blocks = np.array_split(np.random.default_rng(seed).permutation(n), folds)
    if folds == 1:
        assert layout == [(slice(None), slice(None))]
    else:
        assert len(layout) == folds
        for (train, test), block in zip(layout, blocks):
            assert test.tobytes() == np.sort(block).tobytes()
            assert train.dtype == bool and np.array_equal(np.flatnonzero(~train), test)
        assert np.array_equal(np.sort(np.concatenate([test for _, test in layout])),
                              np.arange(n))
    # Each arm fit gets the row numbers the training mask selects in that arm.
    arm_rows = []

    class Recording(nuisance._ArmDesign):
        def __init__(self, y, x, rows, arm):
            arm_rows.append((arm, rows))
            super().__init__(y, x, rows, arm)

    monkeypatch.setattr(nuisance, "_ArmDesign", Recording)
    ds = _dataset(n=n, d=1, seed=seed)
    compute_nuisances(ds, NuisanceConfig(folds=folds, seed=seed))
    expected = [(arm, np.arange(n)[train][ds.a[train] == arm])
                for train, _ in layout for arm in (0, 1)]
    assert len(arm_rows) == len(expected)
    for (arm, rows), (expected_arm, expected_rows) in zip(arm_rows, expected):
        assert arm == expected_arm and rows.tobytes() == expected_rows.tobytes()


def test_bernoulli_loglik_softplus_is_within_4_ulp_of_logaddexp():
    # One element at a time with a = 0, so the log-likelihood is -log(1 + e^eta).
    edges = [0.0, 1e-300, 30.0, 36.7, 745.0, 1e300, 5e-324]
    grid = np.concatenate([edges, np.negative(edges),
                           np.random.default_rng(0).standard_normal(500) * 20.0,
                           np.linspace(-800.0, 800.0, 161)])
    for eta in grid:
        expected = np.logaddexp(0.0, eta)
        got = -bernoulli_loglik(np.zeros(1), np.array([eta]))
        assert abs(got - expected) <= 4 * np.spacing(expected), eta
    # A NaN logit is a NaN log-likelihood, which the line search refuses.
    assert np.isnan(bernoulli_loglik(np.array([1.0, 0.0]), np.array([0.5, np.nan])))


# ---------------------------------------------------------------------------
# The fold pool: the fitted values, and the first failing fold's error, must
# not depend on how many workers fit the folds.

def _with_fold_pool(monkeypatch, workers):
    """Send every fold fit through the pool path, with ``workers`` workers."""
    monkeypatch.setattr(nuisance, "FOLD_POOL_ROWS", 0)
    with_workers(monkeypatch, workers)


def test_fold_pool_values_do_not_depend_on_worker_count(monkeypatch):
    # 70,000 rows: many 2048-row blocks in every fit. Three workers split the
    # 15 fits of 5 folds 5/5/5, across fold boundaries; one fold has 3 fits.
    ds = _dataset(n=70_000, d=2, seed=8)
    for config, need_mu1, need_sigma in itertools.product(
            (NuisanceConfig(folds=5, seed=3), NuisanceConfig(folds=1)), (True, False),
            (True, False)):
        got = []
        for workers in (1, 2, 3):
            _with_fold_pool(monkeypatch, workers)
            got.append(compute_nuisances(ds, config, need_mu1=need_mu1,
                                         need_sigma=need_sigma))
        for name in ("pi_hat", "mu0_hat", "mu1_hat", "sigma0_hat", "sigma1_hat"):
            serial, *pooled = (getattr(values, name) for values in got)
            for values in pooled:
                assert (serial is None) == (values is None), name
                if serial is not None:
                    assert serial.tobytes() == values.tobytes(), (name, config.folds,
                                                                  need_mu1, need_sigma)


def _third_fold_lacks_treated_units(tmp_path):
    """A 200-row, d = 2 CSV with 5 treated units, 4 of them in the third of 5
    folds (seed 4), so that fold's complement holds 1 treated unit."""
    n, folds, seed = 200, 5, 4
    tests = [test for _, test in nuisance._fold_layout(n, folds, seed)]
    a = np.zeros(n, dtype=int)
    a[tests[2][:4]] = 1
    a[tests[0][0]] = 1
    rng = np.random.default_rng(0)
    x = rng.standard_normal((n, 2))
    y = x.sum(axis=1) + rng.standard_normal(n)
    path = tmp_path / "third_fold.csv"
    rows = ["y,a,x1,x2"] + [f"{yi!r},{ai},{x1!r},{x2!r}"
                            for yi, ai, (x1, x2) in zip(y.tolist(), a.tolist(), x.tolist())]
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    return Dataset(y=y, a=a, x=x), NuisanceConfig(folds=folds, seed=seed), str(path)


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_failing_fold_error_does_not_depend_on_worker_count(workers, monkeypatch, tmp_path,
                                                            capsys):
    ds, config, path = _third_fold_lacks_treated_units(tmp_path)
    _with_fold_pool(monkeypatch, workers)
    with pytest.raises(InsufficientArmDataError) as raised:
        compute_nuisances(ds, config)
    assert type(raised.value) is InsufficientArmDataError
    assert str(raised.value) == "arm 1 has 1 units, need at least 3"
    # With one fold, the last of its three fits fails: arm 1 has 2 of 3 units.
    a = np.zeros(ds.n, dtype=int)
    a[:2] = 1
    with pytest.raises(InsufficientArmDataError) as raised:
        compute_nuisances(Dataset(y=ds.y, a=a, x=ds.x), NuisanceConfig(folds=1))
    assert str(raised.value) == "arm 1 has 2 units, need at least 3"
    code = main(["estimate", "--input", path, "--folds", "5", "--seed", "4"])
    assert code == 2
    payload = json.loads(capsys.readouterr().err.strip())
    assert payload == {"error_code": "InsufficientArmData",
                       "message": "arm 1 has 1 units, need at least 3"}
