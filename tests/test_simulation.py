import dataclasses
import json
import os
import pathlib
import statistics
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from treated import (
    Dataset,
    Dependence,
    DgpSpec,
    EstimandKind,
    LengthMismatchError,
    NuisanceConfig,
    NonFiniteError,
    NonFiniteEstimateError,
    NuisanceValues,
    OutcomeKind,
    ValidationError,
    XDist,
    estimate_all,
    generate,
    oracle_asymptotic_variances,
    psi_patt_true,
    psi_tilde,
    run_monte_carlo,
    true_sample_estimands,
)
from treated import mathutil, nuisance, simulation
from treated.data_model import KIND_ORDER
from treated.estimator import _Columns, estimate_psi_hat
from treated.simulation import McValue, PotentialDataset, _child_seed

from conftest import STD_SPEC, fh_sharpness_oracle


def _d1_spec(**overrides):
    base = dict(
        d=1,
        propensity_coeffs=[0.3, 0.4],
        mu0_coeffs=[1.0, 1.0],
        mu1_coeffs=[2.0, 1.5],
        noise0_sd_coeffs=[1.0, 0.0],
        noise1_sd_coeffs=[0.8, 0.0],
    )
    base.update(overrides)
    return DgpSpec(**base)


# ---------------------------------------------------------------------------
# generate.

def test_generate_reproducible_bit_identical():
    spec = _d1_spec()
    a = generate(spec, 500, seed=42)
    b = generate(spec, 500, seed=42)
    assert np.array_equal(a.dataset.y, b.dataset.y)
    assert np.array_equal(a.dataset.a, b.dataset.a)
    assert np.array_equal(a.dataset.x, b.dataset.x)
    assert np.array_equal(a.y0, b.y0)
    assert np.array_equal(a.y1, b.y1)
    c = generate(spec, 500, seed=43)
    assert not np.array_equal(a.dataset.y, c.dataset.y)


def test_generate_consistency_identity_exact():
    pd = generate(STD_SPEC, 2_000, seed=0)
    a = pd.dataset.a
    assert np.all(pd.dataset.y == np.where(a == 1, pd.y1, pd.y0))


def test_generate_pi_clipped_and_noise_floored():
    spec = _d1_spec(propensity_coeffs=[-8.0, 0.1], noise0_sd_coeffs=[0.0, 0.0])
    pd = generate(spec, 1_000, seed=1)
    pi = pd.true_nuisances.pi_hat
    assert pi.min() >= 0.02 and pi.max() <= 0.98
    # zero sd coefficients floor at 0.05: outcomes never exactly deterministic
    controls = pd.dataset.a == 0
    assert np.all(pd.true_nuisances.sigma0_hat == 0.05)
    assert np.any(pd.dataset.y[controls] != pd.true_nuisances.mu0_hat[controls])


def test_generate_exact_noise_switch():
    spec = _d1_spec(noise0_sd_coeffs=[0.0, 0.0], noise1_sd_coeffs=[0.0, 0.0],
                    exact_noise=True)
    pd = generate(spec, 200, seed=2)
    assert np.array_equal(pd.y0, spec.mu(0, pd.dataset.x))
    assert np.array_equal(pd.y1, spec.mu(1, pd.dataset.x))


def test_generate_arrays_are_read_only():
    # generate hands its arrays to the data types uncopied; they freeze them.
    pd = generate(_d1_spec(), 300, seed=3)
    nu = pd.true_nuisances
    arrays = (pd.y0, pd.y1, pd.dataset.y, pd.dataset.a, pd.dataset.x, nu.pi_hat,
              nu.mu0_hat, nu.mu1_hat, nu.sigma0_hat, nu.sigma1_hat)
    for arr in arrays:
        assert not arr.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0.5
    assert pd.dataset.a.dtype == np.float64


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_overflowing_spec_fails_its_replication_as_non_finite():
    # The mean map overflows to inf above x = 0.8. The uncopied arrays still
    # pass the finiteness check, so the replication fails as before.
    spec = _d1_spec(mu0_coeffs=[1e308, 1e308])
    with pytest.raises(NonFiniteError, match="mu0_hat must be finite"):
        generate(spec, 200, seed=0)
    with pytest.raises(ValidationError, match="first: rep 0: mu0_hat must be finite"):
        run_monte_carlo(spec, n=200, reps=2, seed=0, psi_patt=McValue(1.0, 0.0))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_overflowing_spec_stops_the_oracle_after_pass_1(monkeypatch):
    # The population constants come out non-finite; the oracle names them
    # instead of running the joint pass on them.
    def no_joint_pass(*args):
        raise AssertionError("joint pass ran")

    monkeypatch.setattr(simulation, "_joint_batches", no_joint_pass)
    spec = _d1_spec(mu0_coeffs=[1e308, 1e308])
    with pytest.raises(NonFiniteEstimateError,
                       match=r"^oracle pass 1: non-finite psi_patt=nan, tau=nan$"):
        oracle_asymptotic_variances(spec, draws=1000, seed=0)


def test_generate_rejects_nonpositive_n():
    for n in (-1, 0):
        with pytest.raises(ValidationError, match="n must be >= 1"):
            generate(_d1_spec(), n, seed=0)


def test_counts_must_be_ints():
    # A float count reached numpy as a raw TypeError; a bool read as 1.
    spec = _d1_spec()
    calls = [
        ("n", lambda: generate(spec, 2.5, seed=0)),
        ("n", lambda: run_monte_carlo(spec, n=50.0, reps=3, seed=0, psi_patt=McValue(1.0, 0.0))),
        ("reps", lambda: run_monte_carlo(spec, n=50, reps=True, seed=0)),
        ("draws", lambda: psi_patt_true(spec, draws=1e3, seed=0)),
        ("draws", lambda: oracle_asymptotic_variances(spec, draws=1000.0, seed=0)),
    ]
    for name, call in calls:
        with pytest.raises(ValidationError, match=f"^{name} must be an int, got "):
            call()
    assert generate(spec, np.int64(20), seed=0).dataset.n == 20


def test_negative_seed_is_a_validation_error():
    # numpy refuses a negative seed with a bare ValueError. run_monte_carlo must
    # refuse it up front: in a replication it would count as a failed one.
    spec = _d1_spec()
    calls = [
        lambda: generate(spec, 10, seed=-1),
        lambda: generate(spec, 10, seed=[3, -1]),
        lambda: NuisanceConfig(seed=-1),
        lambda: psi_patt_true(spec, draws=1000, seed=-1),
        lambda: oracle_asymptotic_variances(spec, draws=1000, seed=-1),
        lambda: run_monte_carlo(spec, n=50, reps=3, seed=-1, psi_patt=McValue(1.0, 0.0)),
    ]
    for call in calls:
        with pytest.raises(ValidationError, match="seed must be >= 0"):
            call()


@pytest.mark.parametrize("seed", [1.5, None, True, "3", [], (), [1, 1.5], [True], np.float64(2.0)],
                         ids=["float", "None", "bool", "string", "empty list", "empty tuple",
                              "float entry", "bool entry", "numpy float"])
def test_a_seed_that_is_not_an_int_or_a_list_of_ints_is_a_validation_error(seed):
    # numpy takes a float or a bool as a seed and raises a bare TypeError on
    # None or a string; every seeded entry point refuses each by name.
    spec = _d1_spec()
    calls = [
        lambda: generate(spec, 10, seed),
        lambda: NuisanceConfig(seed=seed),
        lambda: psi_patt_true(spec, draws=1000, seed=seed),
        lambda: oracle_asymptotic_variances(spec, draws=1000, seed=seed),
        lambda: run_monte_carlo(spec, n=50, reps=3, seed=seed, psi_patt=McValue(1.0, 0.0)),
    ]
    for call in calls:
        with pytest.raises(ValidationError, match="^seed must be an int or a non-empty list of "):
            call()
    # A numpy int and a tuple of ints are seeds, the tuple the same as its list.
    def outcomes(seed):
        return generate(spec, 10, seed).dataset.y.tolist()

    assert outcomes(np.int64(3)) == outcomes(3) and outcomes((3, 1)) == outcomes([3, 1])


def test_generate_treated_share_matches_oracle():
    # E[pi(X)] by a 1e7-draw oracle; empirical share within 3 binomial SEs.
    spec = _d1_spec()
    rng = np.random.default_rng(987)
    e_pi = float(np.mean([spec.propensity(rng.standard_normal((1_000_000, 1))).mean()
                          for _ in range(10)]))
    n = 1_000_000
    pd = generate(spec, n, seed=11)
    share = pd.dataset.a.mean()
    tol = 3 * np.sqrt(e_pi * (1 - e_pi) / n)
    assert abs(share - e_pi) < tol


def test_generate_ignorability_within_strata():
    # Within narrow covariate strata, treatment is uncorrelated with both
    # potential outcomes (3 MC standard errors, SE ~ 1/sqrt(m)). Strata must
    # be narrow: inside a wide stratum both a and y0 still track x.
    spec = _d1_spec()
    pd = generate(spec, 200_000, seed=31)
    x = pd.dataset.x.ravel()
    edges = np.quantile(x, np.linspace(0, 1, 101))
    for lo, hi in zip(edges[:-1], edges[1:]):
        rows = (x >= lo) & (x <= hi)
        m = rows.sum()
        a = pd.dataset.a[rows]
        if a.std() == 0:
            continue
        for pot in (pd.y0[rows], pd.y1[rows]):
            corr = np.corrcoef(a, pot)[0, 1]
            assert abs(corr) <= 3.0 / np.sqrt(m)


def test_binary_generation_margins_and_dependence():
    spec = _d1_spec(mu0_coeffs=[0.3, 0.3], mu1_coeffs=[0.5, 0.3],
                    outcome_kind=OutcomeKind.BINARY, dependence=Dependence.COMONOTONE,
                    x_dist=XDist.UNIFORM01)
    pd = generate(spec, 100_000, seed=3)
    assert set(np.unique(pd.y0)) <= {0.0, 1.0}
    # comonotone with p1 >= p0 pointwise: y1 >= y0 always
    assert np.all(pd.y1 >= pd.y0)
    p0 = spec.mu(0, pd.dataset.x)
    assert abs(pd.y0.mean() - p0.mean()) < 3 * np.sqrt(0.25 / 100_000)



@pytest.mark.parametrize("dependence, joint", [
    (Dependence.COMONOTONE, min(0.6, 0.7)),
    (Dependence.INDEPENDENT, 0.6 * 0.7),
    (Dependence.ANTITONE, max(0.0, 0.6 + 0.7 - 1.0)),
])
def test_binary_dependence_sets_the_joint_success_probability(dependence, joint):
    # With d = 0 the arm means are the constants 0.6 and 0.7; the dependence
    # regime fixes P(y0 = 1, y1 = 1) at the upper Frechet bound, the product,
    # or the lower Frechet bound.
    spec = DgpSpec(d=0, propensity_coeffs=[0.0], mu0_coeffs=[0.6], mu1_coeffs=[0.7],
                   noise0_sd_coeffs=[1.0], noise1_sd_coeffs=[1.0],
                   outcome_kind=OutcomeKind.BINARY, dependence=dependence)
    n = 100_000
    pd = generate(spec, n, seed=11)
    both = float(np.mean(pd.y0 * pd.y1))
    assert abs(both - joint) <= 4 * np.sqrt(joint * (1 - joint) / n)
    assert abs(pd.y0.mean() - 0.6) <= 4 * np.sqrt(0.24 / n)
    assert abs(pd.y1.mean() - 0.7) <= 4 * np.sqrt(0.21 / n)


# ---------------------------------------------------------------------------
# true_sample_estimands / psi_tilde: exact three-row arithmetic.

def _three_row_pd():
    x = np.array([[0.0], [1.0], [2.0]])
    a = np.array([1, 0, 1])
    y0 = np.array([1.0, 2.0, 3.0])
    y1 = np.array([4.0, 2.0, 5.0])
    y = np.where(a == 1, y1, y0)
    nuis = NuisanceValues(pi_hat=[0.2, 0.5, 0.8], mu0_hat=[1.0, 1.5, 2.0],
                          mu1_hat=[3.0, 4.0, 5.0], sigma0_hat=np.ones(3),
                          sigma1_hat=np.ones(3), clip_eps=0.02)
    return PotentialDataset(dataset=Dataset(y=y, a=a, x=x), y0=y0, y1=y1,
                            true_nuisances=nuis)


def test_true_sample_estimands_three_row_arithmetic():
    pd = _three_row_pd()
    got = true_sample_estimands(pd, psi_patt_true=1.25)
    # hand arithmetic in exact rationals
    expected = {
        EstimandKind.PATT: 1.25,
        EstimandKind.SATT: Fraction(3 + 2, 2),
        EstimandKind.CATT: Fraction(2 + 3, 2),
        EstimandKind.MATT: Fraction(3 + 3, 2),
        EstimandKind.ACTT: (Fraction(1, 5) * 2 + Fraction(1, 2) * Fraction(5, 2)
                            + Fraction(4, 5) * 3) / Fraction(3, 2),
        EstimandKind.SWATT: (Fraction(1, 5) * 3 + Fraction(4, 5) * 2) / Fraction(3, 2),
    }
    for kind, value in expected.items():
        assert got[kind] == pytest.approx(float(value), rel=1e-12), kind


def test_true_sample_estimands_constant_effect():
    spec = _d1_spec(mu1_coeffs=[3.0, 1.0], dependence=Dependence.COMONOTONE,
                    noise1_sd_coeffs=[1.0, 0.0])  # equal sds, shared noise
    pd = generate(spec, 5_000, seed=8)
    got = true_sample_estimands(pd, psi_patt_true=2.0)
    assert got[EstimandKind.SATT] == pytest.approx(2.0, rel=1e-12)
    assert got[EstimandKind.SWATT] == pytest.approx(2.0, rel=1e-12)
    assert got[EstimandKind.CATT] == pytest.approx(2.0, rel=1e-12)
    assert got[EstimandKind.ACTT] == pytest.approx(2.0, rel=1e-12)


def test_sample_estimands_converge_to_population_effect(std_oracle):
    pd = generate(STD_SPEC, 1_000_000, seed=17)
    psi = std_oracle.psi_patt.value
    got = true_sample_estimands(pd, psi)
    nuis = pd.true_nuisances
    a = pd.dataset.a.astype(float)
    pi = nuis.pi_hat
    n = pd.dataset.n
    # self-normalized 4-sigma tolerances from the per-unit ingredients
    ingredients = {
        EstimandKind.SATT: a * (pd.y1 - pd.y0 - psi) / a.mean(),
        EstimandKind.CATT: a * (nuis.mu1_hat - nuis.mu0_hat - psi) / a.mean(),
        EstimandKind.MATT: a * (pd.dataset.y - nuis.mu0_hat - psi) / a.mean(),
        EstimandKind.ACTT: pi * (nuis.mu1_hat - nuis.mu0_hat - psi) / pi.mean(),
        EstimandKind.SWATT: pi * (pd.y1 - pd.y0 - psi) / pi.mean(),
    }
    for kind, term in ingredients.items():
        tol = 4.0 * term.std() / np.sqrt(n) + 4.0 * std_oracle.psi_patt.se
        assert abs(got[kind] - psi) < tol, kind


def test_psi_tilde_three_row_arithmetic():
    pd = _three_row_pd()
    # rows contribute 3, -1*0.5, 3; mean/abar = (5.5/3)/(2/3) = 2.75
    assert psi_tilde(pd) == pytest.approx(2.75, rel=1e-12)


def test_psi_tilde_zero_when_outcome_matches_mu0():
    pd = _three_row_pd()
    ds = pd.dataset
    flat = PotentialDataset(
        dataset=Dataset(y=pd.true_nuisances.mu0_hat, a=ds.a, x=ds.x),
        y0=pd.true_nuisances.mu0_hat, y1=pd.true_nuisances.mu0_hat,
        true_nuisances=pd.true_nuisances)
    assert psi_tilde(flat) == 0.0


def test_potential_dataset_checks_its_lengths():
    # Potential outcomes of length 1 would broadcast into a wrong SATT truth,
    # and of length 7 fail inside numpy: each is a length mismatch up front.
    pd = generate(STD_SPEC, 50, seed=3)
    nu = pd.true_nuisances
    short_nu = NuisanceValues(pi_hat=nu.pi_hat[:7], mu0_hat=nu.mu0_hat[:7],
                              mu1_hat=nu.mu1_hat[:7])
    for y0, y1, nuis, name in [(pd.y0[:1], pd.y1[:1], nu, "y0"), (pd.y0, pd.y1[:7], nu, "y1"),
                               (pd.y0, pd.y1, short_nu, "true_nuisances")]:
        with pytest.raises(LengthMismatchError, match=f"^{name} has length"):
            PotentialDataset(dataset=pd.dataset, y0=y0, y1=y1, true_nuisances=nuis)


def test_psi_tilde_equals_oracle_psi_hat():
    # The exact propensities lie in [0.02, 0.98], inside the estimator's 0.01
    # clip, so psi_tilde and the oracle-nuisance point estimate are the same
    # computation on the same arrays and agree bit for bit.
    for r in range(20):
        pd = generate(STD_SPEC, 500, seed=_child_seed(23, r))
        assert psi_tilde(pd) == estimate_all(pd.dataset, oracle=pd.true_nuisances).psi_hat, r


# ---------------------------------------------------------------------------
# psi_patt_true.

def test_psi_patt_true_constant_effect_exact():
    spec = _d1_spec(mu0_coeffs=[1.0, 1.0], mu1_coeffs=[3.5, 1.0])
    got = psi_patt_true(spec, draws=100_000, seed=5)
    assert got.value == pytest.approx(2.5, rel=1e-12)


def test_psi_patt_true_matches_gauss_hermite_quadrature(monkeypatch):
    # Independent oracle: 200-node Gauss-Hermite integration of the exact
    # integrand (clipping included, though inactive on any plausible node).
    spec = _d1_spec()
    nodes, weights = np.polynomial.hermite.hermgauss(200)
    x = (np.sqrt(2.0) * nodes).reshape(-1, 1)
    w = weights / np.sqrt(np.pi)
    pi = spec.propensity(x)
    delta = spec.mu(1, x) - spec.mu(0, x)
    quad = float((w * pi * delta).sum() / (w * pi).sum())
    monkeypatch.setattr(simulation, "BATCH_DRAWS", 250_000)
    got = psi_patt_true(spec, draws=4_000_000, seed=6)
    assert got.value == pytest.approx(quad, abs=5 * got.se)
    assert abs(got.value - quad) < 5e-3


def test_psi_patt_true_is_the_oracle_pass_1_at_the_default_sizes(monkeypatch):
    # Above 16 batches of BATCH_DRAWS the batch size decides the x-only
    # streams; both read the one constant, so psi_patt_true is the oracle's
    # pass 1.
    class PassOne(Exception):
        pass

    real = simulation._x_constants

    def stop_after_pass_1(*args, **kwargs):
        raise PassOne(real(*args, **kwargs).psi)

    spec = _d1_spec()
    expected = psi_patt_true(spec, seed=3)
    monkeypatch.setattr(simulation, "_x_constants", stop_after_pass_1)
    with pytest.raises(PassOne) as stopped:
        oracle_asymptotic_variances(spec, seed=3)
    assert stopped.value.args[0] == expected


def test_psi_patt_true_se_halves_when_draws_quadruple(monkeypatch):
    spec = _d1_spec()
    monkeypatch.setattr(simulation, "BATCH_DRAWS", 5_000)
    base = psi_patt_true(spec, draws=500_000, seed=7)
    quad = psi_patt_true(spec, draws=2_000_000, seed=8)
    ratio = quad.se / base.se
    assert 0.5 * 0.8 < ratio < 0.5 * 1.2


# ---------------------------------------------------------------------------
# oracle_asymptotic_variances.

def test_oracle_comonotone_equal_sds_swatt_equals_actt():
    spec = _d1_spec(noise1_sd_coeffs=[1.0, 0.0], dependence=Dependence.COMONOTONE)
    orc = oracle_asymptotic_variances(spec, draws=200_000, seed=9)
    assert orc.swatt.value == orc.actt.value  # subtracted term identically zero


def test_oracle_independent_noise_identity_crosscheck():
    # Under independence var(y1 - y0 | x) = sd0^2 + sd1^2; check the jointly
    # estimated subtraction against a direct x-only evaluation.
    spec = _d1_spec()
    orc = oracle_asymptotic_variances(spec, draws=4_000_000, seed=10)
    rng = np.random.default_rng(1234)
    x = rng.standard_normal((4_000_000, 1))
    pi = spec.propensity(x)
    direct = float(np.mean(pi ** 2 * (spec.sigma(0, x) ** 2 + spec.sigma(1, x) ** 2)))
    direct /= orc.p_a ** 2
    gap = orc.actt.value - orc.swatt.value
    assert gap == pytest.approx(direct, rel=0.01)


def test_oracle_seed_stability_one_percent():
    a = oracle_asymptotic_variances(STD_SPEC, draws=10_000_000, seed=101)
    b = oracle_asymptotic_variances(STD_SPEC, draws=10_000_000, seed=202)
    for kind, mv in a.by_kind().items():
        other = b.by_kind()[kind]
        assert mv.value == pytest.approx(other.value, rel=0.01), kind


def test_oracle_satt_term_direct_vs_ipw_identity():
    # E{var(y0|x) | a=1} admits both a direct and an inverse-weighted form;
    # the satt limit must equal matt + that term / p_a.
    spec = _d1_spec()
    orc = oracle_asymptotic_variances(spec, draws=4_000_000, seed=12)
    rng = np.random.default_rng(77)
    x = rng.standard_normal((4_000_000, 1))
    pi = spec.propensity(x)
    direct = float(np.mean(pi * spec.sigma(0, x) ** 2)) / orc.p_a  # E{var|a=1}
    expected = orc.matt.value + direct / orc.p_a
    assert orc.satt.value == pytest.approx(expected, rel=0.01)


# ---------------------------------------------------------------------------
# psi_tau.

def test_psi_tau_constant_mu0():
    spec = _d1_spec(mu0_coeffs=[4.0, 0.0])
    orc = oracle_asymptotic_variances(spec, draws=200_000, seed=13)
    assert orc.tau.value == pytest.approx(4.0, rel=1e-12)


def test_psi_tau_can_exceed_full_score_variance():
    # Homogeneous effect with deterministic treated outcomes: the full-score
    # variance drops below the control-mean score variance exactly when the
    # treated residual variance is smaller than the variance of a*(mu0 - tau).
    spec = _d1_spec(mu0_coeffs=[1.0, 2.0], mu1_coeffs=[3.0, 2.0],
                    noise0_sd_coeffs=[0.6, 0.0], noise1_sd_coeffs=[0.0, 0.0],
                    exact_noise=True)
    orc = oracle_asymptotic_variances(spec, draws=2_000_000, seed=14)
    margin = 3 * (orc.patt.se + orc.tau_score.se)
    assert orc.patt.value < orc.tau_score.value - margin


def test_psi_tau_seed_stability():
    spec = _d1_spec()
    a = oracle_asymptotic_variances(spec, draws=2_000_000, seed=16)
    b = oracle_asymptotic_variances(spec, draws=2_000_000, seed=17)
    assert a.tau_score.value == pytest.approx(b.tau_score.value, rel=0.01)


def test_monte_carlo_psi_tau_extras_track_score_variance():
    # The scaled variance of the estimator against the tau-based sample
    # variant (treated mean of y minus the true tau) approaches the score
    # variance of the control-mean functional.
    spec = _d1_spec()
    orc = oracle_asymptotic_variances(spec, draws=2_000_000, seed=18)
    n = 8_000
    errors = []
    for r in range(400):
        pd = generate(spec, n, seed=_child_seed(19, r))
        ds = pd.dataset
        a = ds.a.astype(float)
        psi_tau_r = float((a * ds.y).sum() / a.sum()) - orc.tau.value
        errors.append(estimate_psi_hat(_Columns.of(ds, pd.true_nuisances)) - psi_tau_r)
    scaled = n * float(np.var(errors, ddof=1))
    assert scaled == pytest.approx(orc.tau_score.value, rel=0.25)


# ---------------------------------------------------------------------------
# Frechet-Hoeffding sharpness oracle.

def test_fh_oracle_equals_min_on_grid():
    grid = [round(0.1 * k, 10) for k in range(1, 10)]
    for p in grid:
        for q in grid:
            assert fh_sharpness_oracle(p, q) == min(p, q)


def test_fh_oracle_degenerate_margins():
    assert fh_sharpness_oracle(0.4, 0.4) == 0.4
    assert fh_sharpness_oracle(0.7, 0.0) == 0.0


# ---------------------------------------------------------------------------
# run_monte_carlo.

def test_single_rep_reproduces_estimate_all():
    spec = _d1_spec()
    patt = McValue(1.0, 0.0)
    rep = run_monte_carlo(spec, n=400, reps=1, seed=5, psi_patt=patt)
    pd = generate(spec, 400, seed=_child_seed(5, 0))
    direct = estimate_all(pd.dataset, oracle=pd.true_nuisances)
    assert rep.extras["mean_psi_hat"] == direct.psi_hat
    assert rep.per_kind[EstimandKind.PATT].mean_variance_estimate == \
        direct.per_kind[EstimandKind.PATT].variance


def test_monte_carlo_bit_identical_reports():
    from treated.cli import dumps_canonical, mc_report_to_dict

    spec = _d1_spec()
    kwargs = dict(n=300, reps=25, seed=99, psi_patt=McValue(1.0, 0.0))
    a = run_monte_carlo(spec, **kwargs)
    b = run_monte_carlo(spec, **kwargs)
    assert dumps_canonical(mc_report_to_dict(a)) == dumps_canonical(mc_report_to_dict(b))


def _with_workers(monkeypatch, workers):
    monkeypatch.setattr(mathutil, "_worker_count", lambda reps: workers)


@pytest.mark.parametrize("workers", [1, 2])
def test_failed_replications_counted_not_dropped(workers, monkeypatch):
    spec = _d1_spec(propensity_coeffs=[-8.0, 0.0])  # pi clipped to 0.02
    kwargs = dict(n=10, reps=60, seed=3, psi_patt=McValue(1.0, 0.0))
    _with_workers(monkeypatch, 1)
    serial = run_monte_carlo(spec, **kwargs)
    _with_workers(monkeypatch, workers)
    rep = run_monte_carlo(spec, **kwargs)
    assert rep.failed_reps > 0
    assert rep.failed_reps < 60  # some replications still succeed
    assert rep.failure_messages
    assert rep.reps == 60
    indices = [int(m.split(":")[0].removeprefix("rep ")) for m in rep.failure_messages]
    assert indices == sorted(indices)
    assert (rep.failed_reps, rep.failure_messages) == (serial.failed_reps, serial.failure_messages)


def test_pooled_patt_truth_gives_the_report_of_a_given_one(monkeypatch):
    # Without psi_patt each replication carries its share of the x-only batches
    # of the PATT truth; given the same truth, the study has no batches. This
    # process scores both studies once and must write the same report bytes,
    # at any worker count, failed replication included. At 3 workers the 16
    # batches fall unevenly on the 9 replications and on the chunks.
    from treated.cli import dumps_canonical, mc_report_to_dict

    real_generate = simulation.generate

    def failing_generate(spec, n, seed):
        if seed == _child_seed(8, 5):
            raise ValidationError("failing replication")
        return real_generate(spec, n, seed)

    monkeypatch.setattr(simulation, "generate", failing_generate)
    spec = _d1_spec()
    truth = psi_patt_true(spec, draws=100_000, seed=_child_seed(8, 2 ** 31))
    reports = []
    for workers in (1, 2, 3):
        _with_workers(monkeypatch, workers)
        for psi_patt in (None, truth):
            rep = run_monte_carlo(spec, n=200, reps=9, seed=8, psi_patt=psi_patt,
                                  patt_draws=100_000)
            assert (rep.failed_reps, rep.failure_messages) == (1, ("rep 5: failing replication",))
            reports.append(dumps_canonical(mc_report_to_dict(rep)))
    assert reports == [reports[0]] * 6


@pytest.mark.parametrize("oracle", [True, False])
def test_study_scores_match_a_serial_reference(oracle, monkeypatch):
    # Each replication rerun alone through generate, true_sample_estimands and
    # estimate_all, then scored here with the statistics module against the
    # study's PATT truth. The 50% intervals miss on both sides, so a hit that
    # checks one bound only shows in the coverage.
    from treated.cli import dumps_canonical, mc_report_to_dict

    real_generate = simulation.generate

    def failing_generate(spec, n, seed):
        if seed == _child_seed(6, 3):
            raise ValidationError("failing replication")
        return real_generate(spec, n, seed)

    monkeypatch.setattr(simulation, "generate", failing_generate)
    spec, n, level = _d1_spec(), 300, 0.5
    reports = []
    for workers in (1, 2):
        _with_workers(monkeypatch, workers)
        reports.append(run_monte_carlo(spec, n=n, reps=8, seed=6, ci_level=level,
                                       nuisance_config=None if oracle else NuisanceConfig(),
                                       patt_draws=100_000))
    assert dumps_canonical(mc_report_to_dict(reports[0])) == \
        dumps_canonical(mc_report_to_dict(reports[1]))
    rep = reports[0]
    psi = psi_patt_true(spec, draws=100_000, seed=_child_seed(6, 2 ** 31)).value
    assert (rep.extras["psi_patt_value"], rep.failed_reps) == (psi, 1)

    errors, hits, variances = ({kind: [] for kind in KIND_ORDER} for _ in range(3))
    for r in (0, 1, 2, 4, 5, 6, 7):
        pd = real_generate(spec, n, _child_seed(6, r))
        truths = true_sample_estimands(pd, psi)
        report = estimate_all(pd.dataset, NuisanceConfig(), ci_level=level,
                              oracle=pd.true_nuisances if oracle else None)
        for kind in KIND_ORDER:
            inf = report.per_kind[kind]
            errors[kind].append(report.psi_hat - truths[kind])
            hits[kind].append(inf.ci_lower <= truths[kind] <= inf.ci_upper)
            variances[kind].append(inf.variance_used if inf.variance is None else inf.variance)
    assert 0 < sum(map(sum, hits.values())) < 6 * 7
    for kind in KIND_ORDER:
        stats = rep.per_kind[kind]
        assert stats.coverage == sum(hits[kind]) / 7
        assert stats.empirical_var_scaled == pytest.approx(
            n * statistics.variance(errors[kind]), rel=1e-9)
        assert stats.mean_variance_estimate == pytest.approx(
            statistics.fmean(variances[kind]), rel=1e-12)
    satt, patt = ([e - statistics.fmean(errors[kind]) for e in errors[kind]]
                  for kind in (EstimandKind.SATT, EstimandKind.PATT))
    diffs = [s ** 2 - p ** 2 for s, p in zip(satt, patt)]
    mean, se = statistics.fmean(diffs), statistics.stdev(diffs) / 7 ** 0.5
    verdict = rep.extras["satt_vs_patt"]
    assert verdict.scaled_diff == pytest.approx(n * mean, rel=1e-9, abs=1e-12)
    assert verdict.scaled_se == pytest.approx(n * se, rel=1e-9)
    assert verdict.holds == (mean <= 3 * se)


def test_one_successful_replication_leaves_its_spreads_null():
    from treated.cli import mc_report_to_dict

    spec = _d1_spec(propensity_coeffs=[-8.0, 0.0])  # pi clipped to 0.02
    rep = run_monte_carlo(spec, n=10, reps=3, seed=1, psi_patt=McValue(1.0, 0.0))
    out = mc_report_to_dict(rep)
    assert rep.failed_reps == 2
    assert [out["per_kind"][k.value]["empirical_var_scaled_se"] for k in KIND_ORDER] == \
        [None] * 6
    assert (out["extras"]["satt_vs_patt"], out["extras"]["ordering"]) == (None, [])


def test_worker_count_bounded_by_affinity_and_reps(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3, 4, 5, 6, 7})
    assert [mathutil._worker_count(r) for r in (1, 2, 3, 8, 300)] == [1, 2, 3, 8, 8]
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {1})
    assert mathutil._worker_count(300) == 1


def test_fitted_replications_start_one_pool(monkeypatch, tmp_path):
    # Each fitted replication cross-fits its nuisances inside a replication
    # worker. With the fold pool's row threshold at 0 it would start a pool
    # of its own there; a worker runs its folds in-process instead. Every fork
    # is recorded with the pid that made it: one pool of two workers is two
    # forks, both by this process.
    forks = tmp_path / "forks"
    real_fork = os.fork

    def recording_fork():
        with open(forks, "a", encoding="utf-8") as fh:
            fh.write(f"{os.getpid()}\n")
        return real_fork()

    monkeypatch.setattr(os, "fork", recording_fork)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(nuisance, "FOLD_POOL_ROWS", 0)
    rep = run_monte_carlo(_d1_spec(), n=200, reps=4, seed=6,
                          nuisance_config=NuisanceConfig(folds=2),
                          psi_patt=McValue(1.0, 0.0))
    assert rep.failed_reps == 0
    assert forks.read_text(encoding="utf-8").split() == [str(os.getpid())] * 2


def test_drawing_pools_fork_after_secrets_is_imported():
    # numpy.random imports secrets, which loads OpenSSL's libcrypto. The calling
    # process imports it before a pool that draws forks, so libcrypto's start-up
    # pages count once there and not in every worker. A fresh process records at
    # each fork whether secrets is loaded, and unloads it before each call: the
    # oracle's two passes, a study's PATT truth and its replications, and a study
    # given its PATT truth, two workers each.
    code = """
import json, os, sys
from treated import McValue, oracle_asymptotic_variances, run_monte_carlo, simulation
forks, real_fork = [], os.fork
os.fork = lambda: forks.append("secrets" in sys.modules) or real_fork()
os.sched_getaffinity = lambda pid: {0, 1}
simulation.X_POOL_DRAWS = 0
spec = simulation.DgpSpec.from_dict(json.loads(open(sys.argv[1]).read()))
for call in [
        lambda: oracle_asymptotic_variances(spec, draws=140_000, seed=1),
        lambda: run_monte_carlo(spec, n=100, reps=2, seed=1, patt_draws=1000),
        lambda: run_monte_carlo(spec, n=100, reps=2, seed=1, psi_patt=McValue(1.0, 0.0))]:
    sys.modules.pop("secrets", None)
    call()
print(forks)
"""
    spec = pathlib.Path(__file__).parent / "golden" / "continuous_spec.json"
    proc = subprocess.run([sys.executable, "-c", code, str(spec)],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == str([True] * 10)


def test_single_replication_runs_in_process(monkeypatch, tmp_path):
    # One replication is too little work for a pool: given its PATT truth, or
    # with one below X_POOL_DRAWS, the study runs in this process. Each
    # generate and _x_batches call appends its pid to a file, which a forked
    # worker's write reaches too. From X_POOL_DRAWS draws on the study pools its
    # PATT batches, as pass 1 would, runs the replication here and writes the
    # in-process report's bytes. A study of two replications pools its PATT
    # batches below X_POOL_DRAWS too, so nothing draws in this process.
    from treated.cli import dumps_canonical, mc_report_to_dict

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
    calls = tmp_path / "calls"
    real_generate, real_batches = simulation.generate, simulation._x_batches

    def record():
        with open(calls, "a", encoding="utf-8") as fh:
            fh.write(f"{os.getpid()}\n")

    def recording_generate(*args, **kwargs):
        record()
        return real_generate(*args, **kwargs)

    def recording_batches(*args):
        record()
        return real_batches(*args)

    monkeypatch.setattr(simulation, "generate", recording_generate)
    monkeypatch.setattr(simulation, "_x_batches", recording_batches)

    def study(reps=1, **kwargs):
        calls.write_text("", encoding="utf-8")
        rep = run_monte_carlo(_d1_spec(), n=200, reps=reps, seed=4, **kwargs)
        return calls.read_text(encoding="utf-8").split(), dumps_canonical(mc_report_to_dict(rep))

    here = str(os.getpid())
    assert study(psi_patt=McValue(1.0, 0.0))[0] == [here]
    pids, report = study(patt_draws=100_000)
    assert pids == [here] * 2
    # 16 batches on four workers, each calling _x_batches, then two replications
    # on two more.
    pids = study(reps=2, patt_draws=100_000)[0]
    assert len(pids) == 6 and here not in pids
    monkeypatch.setattr(simulation, "X_POOL_DRAWS", 100_000)
    pids, pooled_report = study(patt_draws=100_000)
    # 16 batches on four workers, each calling _x_batches, then the replication here.
    assert len(pids) == 5 and len(set(pids)) == 5 and pids[-1] == here
    assert here not in pids[:4]
    assert pooled_report == report


@pytest.mark.parametrize("workers", [1, 2])
def test_unexpected_replication_error_reaches_caller(workers, monkeypatch):
    # Only a TreatedError is a failed replication; anything else is a bug and
    # must surface from a worker process as well as in-process.
    real_generate = simulation.generate

    def broken_generate(spec, n, seed):
        if seed == _child_seed(8, 5):
            raise RuntimeError("broken replication")
        return real_generate(spec, n, seed)

    monkeypatch.setattr(simulation, "generate", broken_generate)
    _with_workers(monkeypatch, workers)
    with pytest.raises(RuntimeError, match="broken replication"):
        run_monte_carlo(_d1_spec(), n=200, reps=8, seed=8, psi_patt=McValue(1.0, 0.0))


def test_population_constants_do_not_depend_on_worker_count(monkeypatch):
    # With the threshold at 0 the x-only pass runs its batches in the pool at
    # every size. Batch k draws from its own (seed, 1, k) stream and the sums
    # are added in batch order, so the constants and everything pass 2 builds
    # on them are bit for bit the same at any worker count.
    monkeypatch.setattr(simulation, "X_POOL_DRAWS", 0)
    spec = _d1_spec()
    results = []
    for workers in (1, 2):
        _with_workers(monkeypatch, workers)
        results.append(repr((psi_patt_true(spec, draws=64_000, seed=3),
                             oracle_asymptotic_variances(spec, draws=64_000, seed=3))))
    assert results[0] == results[1]


@pytest.mark.parametrize("ratio, holds", [(2.5, True), (3.5, False)])
def test_ordering_verdict_holds_up_to_three_paired_standard_errors(ratio, holds):
    # Both kinds' errors are +-e by turns, so their means are 0. The small
    # kind's squared errors are 1 and 3, the large kind's a constant b^2: the
    # paired differences e_small^2 - b^2 have a standard error that b does not
    # move, and b puts their mean at ``ratio`` standard errors.
    squares = np.tile([1.0, 1.0, 3.0, 3.0], 10)
    signs = np.tile([1.0, -1.0], 20)
    b2 = squares.mean() - ratio * squares.std(ddof=1) / np.sqrt(squares.size)
    errors = {EstimandKind.MATT: signs * np.sqrt(squares), EstimandKind.CATT: signs * np.sqrt(b2)}
    verdict = simulation._paired_verdict(errors, EstimandKind.MATT, EstimandKind.CATT, 100)
    assert verdict.scaled_diff / verdict.scaled_se == pytest.approx(ratio, rel=1e-12)
    assert verdict.holds is holds


def test_batches_are_described_not_listed():
    # Batch k has min(batch_size, draws - k * batch_size) draws: the sizes of
    # the list this description replaced, full batches then the remainder.
    for draws in (1, 15, 16, 17, 1000, 64_000, 16 * 65_536, 16 * 65_536 + 1, 10 ** 7 + 3):
        batch_size, count = simulation._batch_sizes(draws)
        full = min(simulation.BATCH_DRAWS, max(1, draws // 16))
        listed = [full] * (draws // full) + ([draws % full] if draws % full else [])
        assert [min(batch_size, draws - k * batch_size) for k in range(count)] == listed, draws
    # 10**13 draws are two numbers, not a list of 152,587,891 sizes; the last
    # batch holds the 40,960 draws left over.
    batch_size, count = simulation._batch_sizes(10 ** 13)
    assert (batch_size, count) == (65_536, 152_587_891)
    assert 10 ** 13 - (count - 1) * batch_size == 40_960


@pytest.mark.parametrize("name", ["continuous_spec.json", "binary_spec.json"])
def test_one_oracle_batch_peaks_under_20_columns(name):
    # Each pool worker holds one joint-pass batch at a time, so one batch of
    # BATCH_DRAWS bounds a worker's numpy memory: at most 20 columns of
    # 65,536 draws, 10 MiB.
    path = pathlib.Path(__file__).parent / "golden" / name
    spec = DgpSpec.from_dict(json.loads(path.read_text()))
    consts = simulation._x_constants(spec, 64_000, 0, pooled=False)
    batch = simulation._joint_batches(spec, simulation.BATCH_DRAWS, simulation.BATCH_DRAWS, 0,
                                      consts, 0, 1)
    tracemalloc.start()
    try:
        next(batch)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 20 * 65_536 * 8


@pytest.mark.parametrize("workers", [1, 2])
def test_unexpected_oracle_error_reaches_caller(workers, monkeypatch):
    # An exception in a batch of the oracle's joint pass must surface from a
    # worker process as well as in-process.
    real_child_seed = simulation._child_seed

    def broken_child_seed(seed, *tail):
        if tail == (2, 5):
            raise RuntimeError("broken batch")
        return real_child_seed(seed, *tail)

    monkeypatch.setattr(simulation, "_child_seed", broken_child_seed)
    _with_workers(monkeypatch, workers)
    with pytest.raises(RuntimeError, match="broken batch"):
        oracle_asymptotic_variances(_d1_spec(), draws=16_000, seed=8)


def test_oracle_study_makes_no_psi_tilde_call(monkeypatch):
    # On the exact nuisances psi_hat is psi_tilde's own computation, so an
    # oracle study records a gap of 0 without it; a fitted study still calls it.
    def no_psi_tilde(pd):
        raise AssertionError("psi_tilde called")

    monkeypatch.setattr(simulation, "psi_tilde", no_psi_tilde)
    _with_workers(monkeypatch, 1)
    kwargs = dict(n=200, reps=3, seed=4, psi_patt=McValue(1.0, 0.0))
    rep = run_monte_carlo(_d1_spec(), **kwargs)
    assert rep.failed_reps == 0
    assert rep.extras["psi_tilde_rms_scaled_gap"] == 0.0
    with pytest.raises(AssertionError, match="psi_tilde called"):
        run_monte_carlo(_d1_spec(), nuisance_config=NuisanceConfig(), **kwargs)


def test_a_nuisance_config_alone_fits_the_nuisances():
    # No config means each replication's true nuisances, where the one-step gap
    # is 0 by identity; a config alone means fitted nuisances.
    kwargs = dict(n=200, reps=3, seed=4, psi_patt=McValue(1.0, 0.0))
    gaps = [run_monte_carlo(_d1_spec(), nuisance_config=config, **kwargs)
            .extras["psi_tilde_rms_scaled_gap"] for config in (None, NuisanceConfig())]
    assert gaps[0] == 0.0 and gaps[1] > 0.0


def test_monte_carlo_rejects_bad_n_before_the_patt_oracle(monkeypatch):
    def no_oracle(*args, **kwargs):
        raise AssertionError("psi_patt_true ran before n was checked")

    monkeypatch.setattr(simulation, "psi_patt_true", no_oracle)
    for n in (-5, 0):
        with pytest.raises(ValidationError, match="n must be >= 1"):
            run_monte_carlo(_d1_spec(), n=n, reps=3, seed=0)


def test_consistency_chain_rms_decreases(std_oracle):
    # RMS error against every estimand shrinks from n=2000 to n=20000.
    rms = {}
    for n in (2_000, 20_000):
        errs = {k: [] for k in EstimandKind}
        for r in range(120):
            pd = generate(STD_SPEC, n, seed=_child_seed(55, n, r))
            truths = true_sample_estimands(pd, std_oracle.psi_patt.value)
            psi = estimate_psi_hat(_Columns.of(pd.dataset, pd.true_nuisances))
            for k in EstimandKind:
                errs[k].append(psi - truths[k])
        rms[n] = {k: float(np.sqrt(np.mean(np.square(v)))) for k, v in errs.items()}
    for k in EstimandKind:
        assert rms[20_000][k] < rms[2_000][k], k


def test_conservative_swatt_variances_bound_truth(std_oracle):
    rep = run_monte_carlo(STD_SPEC, n=20_000, reps=100, seed=71, psi_patt=std_oracle.psi_patt)
    floor = std_oracle.swatt.value - 3 * std_oracle.swatt.se
    assert rep.extras["mean_swatt_conservative_simple"] >= floor
    assert rep.extras["mean_swatt_conservative_sigma"] >= floor
    # and the sigma variant is the sharper of the two
    assert rep.extras["mean_swatt_conservative_sigma"] <= \
        rep.extras["mean_swatt_conservative_simple"]


def test_double_robustness_single_misspecification(std_oracle):
    # Oracle pi with wrong mu0 (and vice versa) keeps the estimate centred.
    from treated import NuisanceValues as NV

    wrong_mu = dataclasses.replace(STD_SPEC, mu0_coeffs=[0.0, 0.0, 0.0])
    wrong_pi = dataclasses.replace(STD_SPEC, propensity_coeffs=[0.2, 0.0, 0.0])
    psi_true = std_oracle.psi_patt.value
    for pi_spec, mu_spec in ((STD_SPEC, wrong_mu), (wrong_pi, STD_SPEC)):
        est = []
        for r in range(60):
            pd = generate(STD_SPEC, 5_000, seed=_child_seed(81, r))
            nu = NV(pi_hat=pi_spec.propensity(pd.dataset.x),
                    mu0_hat=mu_spec.mu(0, pd.dataset.x), clip_eps=0.01)
            est.append(estimate_psi_hat(_Columns.of(pd.dataset, nu)))
        est = np.asarray(est)
        se = est.std(ddof=1) / np.sqrt(est.size)
        assert abs(est.mean() - psi_true) < 3 * se


# ---------------------------------------------------------------------------
# DgpSpec serialization.

@pytest.mark.parametrize("d", range(7))
def test_blocked_affine_equals_whole_product(d):
    # DgpSpec._affine and the fitted models' predictions multiply in row
    # blocks. simulate's golden bytes rest on the blocks giving the whole
    # product bit for bit; a BLAS build that breaks this fails here, naming
    # the cause, before it fails the golden files.
    rng = np.random.default_rng(d)
    spec = DgpSpec(d, *[np.zeros(d + 1)] * 5)
    unit = rng.standard_normal((500_001, d))
    scaled = unit * 10.0 ** rng.uniform(-8, 8, d)
    coeffs = rng.standard_normal(d + 1) * 10.0 ** rng.uniform(-4, 4, d + 1)
    for n in (*range(1, 41), *range(2047, 2058), *range(4095, 4105), 20_000, 500_001):
        for x in (unit[:n], scaled[:n]):
            product = x @ coeffs[1:]
            assert mathutil.blocked_matmul(x, coeffs[1:]).tobytes() == product.tobytes(), (d, n)
            assert spec._affine(coeffs, x).tobytes() == (coeffs[0] + product).tobytes(), (d, n)


def test_blocked_reductions_match_whole_product_to_rounding():
    # The fit kernels' reductions over rows (the Gram matrix, X.T @ v, the
    # weighted IRLS Hessian and the a @ eta dot) sum block by block. Within
    # one block they are the whole product bit for bit. Above it both are
    # sums of n products in different orders, and each lies within
    # n * eps / 2 * (|X|.T @ |Y|) of the exact sum (Higham, Accuracy and
    # Stability of Numerical Algorithms, section 3.1), so they differ by at
    # most n * eps * (|X|.T @ |Y|). A lost or doubled block moves a sum by
    # about 1/n of its scale, far above that bound.
    rng = np.random.default_rng(11)
    big = 500_001
    design = np.column_stack([np.ones(big), rng.standard_normal((big, 2)) * [1.0, 1e3]])
    v = rng.standard_normal(big)
    w = rng.uniform(0.0, 0.25, big)
    a = (rng.random(big) < 0.4).astype(float)
    for n in (*range(2047, 2058), *range(4095, 4105), big):
        x = design[:n]
        for left, right in ((x, x), (x, v[:n]), (x, x * w[:n, None]), (a[:n], v[:n])):
            blocked = mathutil.blocked_crossprod(left, right)
            whole = left.T @ right
            if n <= mathutil.BLOCK_ROWS + 7:
                assert np.asarray(blocked).tobytes() == np.asarray(whole).tobytes(), n
            bound = n * np.finfo(float).eps * (np.abs(left).T @ np.abs(right))
            assert np.all(np.abs(blocked - whole) <= bound), n


@pytest.mark.parametrize("n", [1, 2047, 2055, 2056])
def test_single_block_products_skip_the_blocks(n, monkeypatch):
    # Up to BLOCK_ROWS + 7 rows row_blocks makes one block, and the blocked
    # products return the plain product without building it; one row more
    # makes two blocks, which they do build.
    rng = np.random.default_rng(n)
    x, v, coeffs = rng.standard_normal((n, 3)), rng.standard_normal(n), rng.standard_normal(3)
    one_block = len(mathutil.row_blocks(n)) == 1
    assert one_block == (n < 2056)
    calls = []
    real_row_blocks = mathutil.row_blocks

    def counting_row_blocks(rows):
        calls.append(rows)
        return real_row_blocks(rows)

    monkeypatch.setattr(mathutil, "row_blocks", counting_row_blocks)
    assert mathutil.blocked_matmul(x, coeffs).tobytes() == (x @ coeffs).tobytes()
    crossprod = mathutil.blocked_crossprod(x, v)
    if one_block:
        assert crossprod.tobytes() == (x.T @ v).tobytes()
    assert calls == ([] if one_block else [n, n])


def test_spec_roundtrip_through_dict():
    spec = _d1_spec(dependence=Dependence.ANTITONE, x_dist=XDist.UNIFORM01)
    data = spec.to_dict()
    back = DgpSpec.from_dict(data)
    assert back.to_dict() == data


@pytest.mark.parametrize("version", [99, True, 1.0, "1"])
def test_spec_rejects_bad_schema_version(version):
    # Only the JSON integer 1 is version 1: true, 1.0 or "1" in its place is
    # refused too.
    data = _d1_spec().to_dict()
    data["schema_version"] = version
    with pytest.raises(ValidationError) as refused:
        DgpSpec.from_dict(data)
    assert str(refused.value) == f"unsupported DGP spec schema_version {version!r}, expected 1"


def test_spec_rejects_bad_lengths():
    with pytest.raises(ValidationError):
        _d1_spec(propensity_coeffs=[0.1, 0.2, 0.3])


@pytest.mark.parametrize("field, value, message", [
    ("d", 1.0, "d must be an integer"),
    ("d", True, "d must be an integer"),
    ("d", "1", "d must be an integer"),
    ("d", None, "d must be an integer"),
    ("exact_noise", "false", "exact_noise must be true or false"),
    ("exact_noise", 0, "exact_noise must be true or false"),
    ("mu0_coeffs", ["1", "2"], "mu0_coeffs must be a list of numbers"),
    ("mu0_coeffs", [[1.0], [2.0]], "mu0_coeffs must be a list of numbers"),
    ("noise1_sd_coeffs", [True, 1.0], "noise1_sd_coeffs must be a list of numbers"),
    ("propensity_coeffs", [10 ** 400, 1.0], "int too large to convert to float"),
])
def test_spec_from_dict_coerces_no_field(field, value, message):
    # A spec file's fields keep their JSON types: a string, float or bool
    # where an integer, a boolean or a number belongs is refused, not
    # converted, and so is an integer beyond float.
    data = _d1_spec().to_dict()
    data[field] = value
    with pytest.raises(ValidationError) as refused:
        DgpSpec.from_dict(data)
    assert str(refused.value) == f"bad DGP spec field: {message}"
