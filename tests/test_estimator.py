import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special

from treated import (
    Dataset,
    EstimandKind,
    MissingMu1Error,
    MissingSigmaError,
    NotBinaryOutcomeError,
    NuisanceConfig,
    NuisanceValues,
    OutcomeKind,
    ValidationError,
    compute_nuisances,
    confidence_interval,
    estimate_all,
    generate,
)
from treated import estimator
from treated.estimator import (_Columns, estimate_psi_hat, if_components, var_actt, var_catt,
                               var_fh_binary, var_matt, var_patt, var_satt, var_sigma_bound)

from conftest import STD_SPEC, make_worked_example, random_dataset_with_nuisances

# ---------------------------------------------------------------------------
# Exact-fraction oracle for the 4-row worked example. Recomputes everything
# from scratch in rational arithmetic; the frozen values below are its output.

def worked_example_oracle():
    a = [Fraction(v) for v in (1, 0, 1, 0)]
    y = [Fraction(v) for v in (3, 1, 2, 0)]
    mu0 = [Fraction(v) for v in (1, 1, 2, 1)]
    mu1 = [Fraction(v) for v in (2, 2, 3, 2)]
    pi = [Fraction(1, 2), Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)]
    s0 = [Fraction(1)] * 4
    s1 = [Fraction(v) for v in (2, 1, 2, 1)]
    n = 4
    abar = sum(a) / n

    terms = [(a[i] - pi[i]) * (y[i] - mu0[i]) / (abar * (1 - pi[i])) for i in range(n)]
    psi = sum(terms) / n

    def var(vals):
        mean = sum(vals) / n
        return sum((v - mean) ** 2 for v in vals) / n

    psi_dot = [terms[i] - a[i] * psi / abar for i in range(n)]
    psi_y = [(y[i] - (mu1[i] if a[i] else mu0[i]))
             * (a[i] - (1 - a[i]) * pi[i] / (1 - pi[i])) / abar for i in range(n)]
    psi_a = [(a[i] - pi[i]) * (mu1[i] - mu0[i] - psi) / abar for i in range(n)]
    psi_x = [pi[i] * (mu1[i] - mu0[i] - psi) / abar for i in range(n)]
    tau_y = [(y[i] - mu0[i]) * (1 - a[i]) * pi[i] / (abar * (1 - pi[i])) for i in range(n)]
    v_satt = sum(pi[i] * (1 - a[i]) / (1 - pi[i]) ** 2 * ((y[i] - mu0[i]) / abar) ** 2
                 for i in range(n)) / n
    v_sigma = sum(pi[i] ** 2 * (s1[i] - s0[i]) ** 2 for i in range(n)) / n / abar ** 2
    return {
        "psi": psi,
        "psi_dot": psi_dot,
        "psi_y": psi_y,
        "psi_a": psi_a,
        "psi_x": psi_x,
        "tau_y": tau_y,
        "v_patt": var(psi_dot),
        "v_actt": var([psi_y[i] + psi_a[i] for i in range(n)]),
        "v_catt": var(psi_y),
        "v_matt": var(tau_y),
        "v_satt": v_satt,
        "v_sigma": v_sigma,
    }


ORACLE = worked_example_oracle()


def test_worked_example_oracle_headline_values():
    # Fixed points of the rational-arithmetic oracle itself.
    assert ORACLE["psi"] == Fraction(7, 6)
    assert ORACLE["v_satt"] == Fraction(4, 9)
    assert ORACLE["v_patt"] == Fraction(13, 6)
    assert ORACLE["v_matt"] == Fraction(1, 12)
    assert ORACLE["tau_y"] == [0, 0, 0, Fraction(-2, 3)]


def test_psi_hat_worked_example():
    ds, nu = make_worked_example()
    assert estimate_psi_hat(_Columns.of(ds, nu)) == pytest.approx(float(ORACLE["psi"]), rel=1e-12)


def test_psi_hat_zero_residuals():
    ds, nu = make_worked_example()
    nu0 = NuisanceValues(pi_hat=nu.pi_hat, mu0_hat=ds.y, clip_eps=0.01)
    assert estimate_psi_hat(_Columns.of(ds, nu0)) == 0.0


def test_psi_hat_all_treated_reduction():
    # Unreachable through validate (no controls); exercised via the kernel
    # with the treated-share override. With a = 1 everywhere the weights
    # cancel and psi-hat reduces to mean(y - mu0).
    y = np.array([3.0, 1.0, 5.0])
    mu0 = np.array([1.0, 0.0, 2.0])
    out = _Columns(y, np.ones(3), np.full(3, 0.5), mu0, binary=False, a_bar=1.0).psi
    assert out == pytest.approx(np.mean(y - mu0), rel=1e-12)


def test_if_components_worked_example():
    ds, nu = make_worked_example()
    psi = estimate_psi_hat(_Columns.of(ds, nu))
    c = _Columns.of(ds, nu, psi)
    for name, values in zip(("psi_y", "psi_a", "psi_x", "tau_y"), (*if_components(c), c.tau_y)):
        expected = [float(v) for v in ORACLE[name]]
        assert values == pytest.approx(expected, rel=1e-12), name


def test_if_components_trivial_rows():
    ds, nu = make_worked_example()
    psi = estimate_psi_hat(_Columns.of(ds, nu))
    tau_y = _Columns.of(ds, nu, psi).tau_y
    # treated units have tau_y = 0
    assert tau_y[ds.a == 1] == pytest.approx([0.0, 0.0], abs=0.0)
    # a unit whose fitted contrast equals psi has zero assignment/covariate parts
    nu2 = NuisanceValues(pi_hat=nu.pi_hat, mu0_hat=nu.mu0_hat,
                         mu1_hat=nu.mu0_hat + psi, clip_eps=0.01)
    _, psi_a, psi_x = if_components(_Columns.of(ds, nu2, psi))
    assert psi_a == pytest.approx(np.zeros(4), abs=1e-15)
    assert psi_x == pytest.approx(np.zeros(4), abs=1e-15)


def test_if_components_requires_mu1():
    ds, nu = make_worked_example()
    bare = NuisanceValues(pi_hat=nu.pi_hat, mu0_hat=nu.mu0_hat, clip_eps=0.01)
    with pytest.raises(MissingMu1Error):
        if_components(_Columns.of(ds, bare, 0.0))


# ---------------------------------------------------------------------------
# Variance estimators on the worked example and degenerate inputs.

def test_var_patt_worked_example_and_no_mu1_needed():
    ds, nu = make_worked_example()
    psi = estimate_psi_hat(_Columns.of(ds, nu))
    bare = NuisanceValues(pi_hat=nu.pi_hat, mu0_hat=nu.mu0_hat, clip_eps=0.01)
    assert var_patt(_Columns.of(ds, bare, psi)) == pytest.approx(float(ORACLE["v_patt"]), rel=1e-12)


def test_var_patt_degenerate_zero():
    ds, nu = make_worked_example()
    nu0 = NuisanceValues(pi_hat=nu.pi_hat, mu0_hat=ds.y, clip_eps=0.01)
    assert var_patt(_Columns.of(ds, nu0, 0.0)) == 0.0


def test_var_actt_worked_example():
    ds, nu = make_worked_example()
    psi = estimate_psi_hat(_Columns.of(ds, nu))
    assert var_actt(_Columns.of(ds, nu, psi)) == pytest.approx(float(ORACLE["v_actt"]), rel=1e-12)


def test_var_actt_homogeneous_fitted_effect_reduces_to_var_psi_y():
    ds, nu = make_worked_example()
    psi = 1.0
    nu2 = NuisanceValues(pi_hat=nu.pi_hat, mu0_hat=nu.mu0_hat,
                         mu1_hat=nu.mu0_hat + psi, clip_eps=0.01)
    psi_y = if_components(_Columns.of(ds, nu2, psi))[0]
    assert var_actt(_Columns.of(ds, nu2, psi)) == pytest.approx(float(np.var(psi_y)), rel=1e-12)
    assert var_catt(_Columns.of(ds, nu2, psi)) == pytest.approx(
        var_actt(_Columns.of(ds, nu2, psi)), rel=1e-12)


def test_var_catt_matt_worked_example():
    ds, nu = make_worked_example()
    psi = estimate_psi_hat(_Columns.of(ds, nu))
    assert var_catt(_Columns.of(ds, nu, psi)) == pytest.approx(float(ORACLE["v_catt"]), rel=1e-12)
    assert var_matt(_Columns.of(ds, nu)) == pytest.approx(float(ORACLE["v_matt"]), rel=1e-12)


def test_var_matt_all_treated_kernel():
    # all-treated tau_y is identically zero; direct kernel check since the
    # validated Dataset type cannot represent this input
    tau = _Columns(np.array([1.0, 2.0]), np.ones(2), np.full(2, 0.5), np.zeros(2),
                   binary=False, a_bar=1.0).tau_y
    assert np.all(tau == 0.0)


def test_var_satt_worked_example_and_zero_residuals():
    ds, nu = make_worked_example()
    assert var_satt(_Columns.of(ds, nu)) == pytest.approx(float(ORACLE["v_satt"]), rel=1e-12)
    nu0 = NuisanceValues(pi_hat=nu.pi_hat, mu0_hat=ds.y, clip_eps=0.01)
    assert var_satt(_Columns.of(ds, nu0)) == 0.0


def test_var_sigma_bound():
    ds, nu = make_worked_example()
    assert var_sigma_bound(_Columns.of(ds, nu)) == pytest.approx(float(ORACLE["v_sigma"]),
                                                                 rel=1e-12)
    # single-row arithmetic: pi=0.5, s1=2, s0=1, abar=0.5 -> 4 * 0.25 * 1 = 1
    two = Dataset(y=[0.0, 0.0], a=[1, 0], x=np.empty((2, 0)))
    nu2 = NuisanceValues(pi_hat=[0.5, 0.5], mu0_hat=[0.0, 0.0],
                         sigma0_hat=[1.0, 1.0], sigma1_hat=[2.0, 2.0], clip_eps=0.01)
    assert var_sigma_bound(_Columns.of(two, nu2)) == pytest.approx(1.0, rel=1e-12)
    # equal sds -> 0
    nu3 = NuisanceValues(pi_hat=[0.5, 0.5], mu0_hat=[0.0, 0.0],
                         sigma0_hat=[1.5, 0.5], sigma1_hat=[1.5, 0.5], clip_eps=0.01)
    assert var_sigma_bound(_Columns.of(two, nu3)) == 0.0
    with pytest.raises(MissingSigmaError):
        var_sigma_bound(_Columns.of(two, NuisanceValues(pi_hat=[0.5, 0.5], mu0_hat=[0.0, 0.0])))


def test_var_fh_binary():
    two = Dataset(y=[1.0, 0.0], a=[1, 0], x=np.empty((2, 0)),
                  outcome_kind=OutcomeKind.BINARY)
    nu = NuisanceValues(pi_hat=[0.5, 0.5], mu0_hat=[0.4, 0.4], mu1_hat=[0.7, 0.7])
    # single-row arithmetic: 0.25 * (0.3 - 0.09) = 0.0525
    assert var_fh_binary(_Columns.of(two, nu)) == pytest.approx(0.0525, rel=1e-12)
    # mu1 == mu0 -> 0
    nu_eq = NuisanceValues(pi_hat=[0.5, 0.5], mu0_hat=[0.4, 0.4], mu1_hat=[0.4, 0.4])
    assert var_fh_binary(_Columns.of(two, nu_eq)) == 0.0
    # |delta| in {0, 1} -> 0
    nu_ends = NuisanceValues(pi_hat=[0.5, 0.5], mu0_hat=[0.0, 1.0], mu1_hat=[1.0, 1.0])
    assert var_fh_binary(_Columns.of(two, nu_ends)) == pytest.approx(0.0, abs=1e-15)
    # fitted means outside [0,1] are clamped first
    nu_out = NuisanceValues(pi_hat=[0.5, 0.5], mu0_hat=[-0.3, 0.0], mu1_hat=[1.4, 1.0])
    assert var_fh_binary(_Columns.of(two, nu_out)) == pytest.approx(0.0, abs=1e-15)
    cont = Dataset(y=[1.0, 0.0], a=[1, 0], x=np.empty((2, 0)))
    with pytest.raises(NotBinaryOutcomeError):
        var_fh_binary(_Columns.of(cont, nu))


def _swatt(ds, nu):
    report = estimate_all(ds, oracle=nu)
    return report.per_kind[EstimandKind.SWATT], report.diagnostics


# A binary 4-row example: sigma bound 0.00328125, FH bound 0.031875, Pn(a) = 0.5.
_BINARY_DS = Dataset(y=[1.0, 0.0, 1.0, 0.0], a=[1, 0, 1, 0], x=np.empty((4, 0)),
                     outcome_kind=OutcomeKind.BINARY)
_BINARY_NU = NuisanceValues(pi_hat=[0.5, 0.5, 0.25, 0.25], mu0_hat=[0.2, 0.4, 0.5, 0.3],
                            mu1_hat=[0.7, 0.6, 0.9, 0.5], sigma0_hat=[0.4, 0.5, 0.5, 0.45],
                            sigma1_hat=[0.45, 0.5, 0.3, 0.5])


def test_var_swatt_conservative_combinations():
    # Both variants: actt less the sigma bound, actt less Pn(a)^-2 times the FH bound.
    sw, diag = _swatt(_BINARY_DS, _BINARY_NU)
    v_actt = var_actt(_Columns.of(_BINARY_DS, _BINARY_NU,
                                  estimate_psi_hat(_Columns.of(_BINARY_DS, _BINARY_NU))))
    assert sw.conservative_simple == v_actt
    assert diag["v_sigma_bound"] == pytest.approx(0.00328125, rel=1e-12)
    assert diag["v_fh_bound"] == pytest.approx(0.031875, rel=1e-12)
    assert sw.conservative_sigma == pytest.approx(v_actt - 0.00328125, rel=1e-12)
    assert sw.conservative_fh == pytest.approx(v_actt - 0.031875 / 0.25, rel=1e-12)
    assert not diag["swatt_sigma_floored"] and not diag["swatt_fh_floored"]
    assert sw.variance_used == min(sw.conservative_simple, sw.conservative_sigma,
                                   sw.conservative_fh) == sw.conservative_fh
    # sigma bound of zero: conservative sigma equals simple
    ds, nu = make_worked_example()
    equal_sds = NuisanceValues(pi_hat=nu.pi_hat, mu0_hat=nu.mu0_hat, mu1_hat=nu.mu1_hat,
                               sigma0_hat=nu.sigma0_hat, sigma1_hat=nu.sigma0_hat)
    sw0, diag0 = _swatt(ds, equal_sds)
    assert diag0["v_sigma_bound"] == 0.0
    assert sw0.conservative_sigma == sw0.conservative_simple
    assert sw0.conservative_fh is None and "v_fh_bound" not in diag0
    # flooring at zero sets the flag: a sigma bound that exceeds v_actt
    wide = NuisanceValues(pi_hat=nu.pi_hat, mu0_hat=nu.mu0_hat, mu1_hat=nu.mu1_hat,
                          sigma0_hat=nu.sigma0_hat, sigma1_hat=nu.sigma1_hat + 10.0)
    floored, diag_floored = _swatt(ds, wide)
    assert diag_floored["v_sigma_bound"] > floored.conservative_simple
    assert floored.conservative_sigma == 0.0 and diag_floored["swatt_sigma_floored"]
    assert floored.variance_used == 0.0 and not diag_floored["swatt_fh_floored"]
    # Outcome means that fit every observed y exactly with a constant effect give
    # v_actt = 0, so any positive bound floors both variants.
    exact = NuisanceValues(pi_hat=[0.5, 0.5, 0.25, 0.25], mu0_hat=[0.5, 0.0, 0.5, 0.0],
                           mu1_hat=[1.0, 0.5, 1.0, 0.5], sigma0_hat=[0.5, 0.0, 0.5, 0.0],
                           sigma1_hat=[0.0, 0.5, 0.0, 0.5])
    both, diag_both = _swatt(_BINARY_DS, exact)
    assert both.conservative_simple == 0.0
    assert diag_both["v_sigma_bound"] > 0.0 and diag_both["v_fh_bound"] > 0.0
    assert both.conservative_sigma == both.conservative_fh == 0.0
    assert diag_both["swatt_sigma_floored"] and diag_both["swatt_fh_floored"]


def test_a_sigma_bound_equal_to_actt_is_no_floor(monkeypatch):
    # A bound exactly at v_actt leaves the sigma variant at zero unfloored: the
    # flag is raised only by a negative difference. _Columns calls the formula
    # by its module-level name.
    monkeypatch.setattr(estimator, "var_sigma_bound", lambda c: c.v_actt)
    fields, diagnostics = _Columns.of(_BINARY_DS, _BINARY_NU).swatt
    assert fields["conservative_sigma"] == 0.0
    assert diagnostics["swatt_sigma_floored"] is False


# ---------------------------------------------------------------------------
# Confidence intervals.

def test_quantile_against_erfinv_oracle():
    # At variance 1 and n = 1 the interval's half-width is the quantile itself.
    for level in (0.8, 0.9, 0.95, 0.99):
        expected = math.sqrt(2.0) * float(special.erfinv(level))
        assert abs(confidence_interval(0.0, 1.0, 1, level)[1] - expected) < 1e-9


def test_ci_halfwidth_095():
    lo, hi = confidence_interval(0.0, 1.0, 100, 0.95)
    assert hi == pytest.approx(1.959964 / 10, abs=1e-6)
    assert lo == pytest.approx(-hi, rel=1e-12)


def test_ci_degenerate_variance():
    lo, hi = confidence_interval(1.5, 0.0, 50, 0.95)
    assert lo == hi == 1.5


@pytest.mark.parametrize("level, variance", [(1.5, 1.0), (0.95, -1.0), (0.95, float("nan")),
                                             ("x", 1.0), (None, 1.0), (0.95, None), (0.95, "1")],
                         ids=["level", "negative", "nan", "level string", "level None",
                              "variance None", "variance string"])
def test_ci_rejects_bad_level_and_variance(level, variance):
    # A level or variance that is not a number was a bare TypeError.
    name = "variance" if level == 0.95 else "ci_level"
    with pytest.raises(ValidationError, match=f"^{name} must be "):
        confidence_interval(0.0, variance, 10, level)


@pytest.mark.parametrize("psi_hat", ["x", None, [0.5]])
def test_ci_rejects_a_non_number_estimate(psi_hat):
    # A string was numpy's UFuncTypeError, and None a bare TypeError.
    with pytest.raises(ValidationError) as raised:
        confidence_interval(psi_hat, 1.0, 10, 0.95)
    assert str(raised.value) == f"psi_hat must be a number, got {psi_hat!r}"


@pytest.mark.parametrize("n, message", [(0, "n must be >= 1"), (-4, "n must be >= 1"),
                                        (True, "n must be an int, got True"),
                                        (2.0, "n must be an int, got 2.0")])
def test_ci_rejects_a_bad_sample_size(n, message):
    # n = 0 divided by zero, and n = -4 gave (nan, nan).
    with pytest.raises(ValidationError, match=f"^{message}$"):
        confidence_interval(0.0, 1.0, n, 0.95)


# ---------------------------------------------------------------------------
# Property tests.

@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), n=st.integers(4, 60))
def test_decomposition_identity(seed, n):
    ds, nu = random_dataset_with_nuisances(seed, n=n)
    psi = estimate_psi_hat(_Columns.of(ds, nu))
    psi_y, psi_a, psi_x = if_components(_Columns.of(ds, nu, psi))
    a = ds.a.astype(float)
    abar = a.mean()
    closed = (a - nu.pi_hat) * (ds.y - nu.mu0_hat) / (abar * (1 - nu.pi_hat)) \
        - a * psi / abar
    scale = max(1.0, float(np.abs(closed).max()))
    assert np.abs(psi_y + psi_a + psi_x - closed).max() <= 1e-10 * scale


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), c=st.sampled_from([-3.0, -0.5, 0.25, 10.0]))
def test_scale_equivariance(seed, c):
    ds, nu = random_dataset_with_nuisances(seed)
    scaled_ds = Dataset(y=c * ds.y, a=ds.a, x=ds.x)
    scaled_nu = NuisanceValues(
        pi_hat=nu.pi_hat, mu0_hat=c * nu.mu0_hat, mu1_hat=c * nu.mu1_hat,
        sigma0_hat=abs(c) * nu.sigma0_hat, sigma1_hat=abs(c) * nu.sigma1_hat,
        clip_eps=nu.clip_eps,
    )
    psi = estimate_psi_hat(_Columns.of(ds, nu))
    psi_c = estimate_psi_hat(_Columns.of(scaled_ds, scaled_nu))
    assert psi_c == pytest.approx(c * psi, rel=1e-10, abs=1e-12)
    pairs = [
        (var_patt(_Columns.of(ds, nu, psi)), var_patt(_Columns.of(scaled_ds, scaled_nu, psi_c))),
        (var_actt(_Columns.of(ds, nu, psi)), var_actt(_Columns.of(scaled_ds, scaled_nu, psi_c))),
        (var_catt(_Columns.of(ds, nu, psi)), var_catt(_Columns.of(scaled_ds, scaled_nu, psi_c))),
        (var_matt(_Columns.of(ds, nu)), var_matt(_Columns.of(scaled_ds, scaled_nu))),
        (var_satt(_Columns.of(ds, nu)), var_satt(_Columns.of(scaled_ds, scaled_nu))),
        (var_sigma_bound(_Columns.of(ds, nu)), var_sigma_bound(_Columns.of(scaled_ds, scaled_nu))),
    ]
    for base, scaled in pairs:
        assert scaled == pytest.approx(c * c * base, rel=1e-9, abs=1e-12)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), shift=st.sampled_from([-7.0, 0.5, 3.25]))
def test_translation_invariance(seed, shift):
    ds, nu = random_dataset_with_nuisances(seed)
    shifted_ds = Dataset(y=ds.y + shift, a=ds.a, x=ds.x)
    shifted_nu = NuisanceValues(
        pi_hat=nu.pi_hat, mu0_hat=nu.mu0_hat + shift, mu1_hat=nu.mu1_hat + shift,
        sigma0_hat=nu.sigma0_hat, sigma1_hat=nu.sigma1_hat, clip_eps=nu.clip_eps,
    )
    psi = estimate_psi_hat(_Columns.of(ds, nu))
    psi_s = estimate_psi_hat(_Columns.of(shifted_ds, shifted_nu))
    assert psi_s == pytest.approx(psi, rel=1e-9, abs=1e-10)
    pairs = [
        (var_patt(_Columns.of(ds, nu, psi)), var_patt(_Columns.of(shifted_ds, shifted_nu, psi_s))),
        (var_actt(_Columns.of(ds, nu, psi)), var_actt(_Columns.of(shifted_ds, shifted_nu, psi_s))),
        (var_catt(_Columns.of(ds, nu, psi)), var_catt(_Columns.of(shifted_ds, shifted_nu, psi_s))),
        (var_matt(_Columns.of(ds, nu)), var_matt(_Columns.of(shifted_ds, shifted_nu))),
        (var_satt(_Columns.of(ds, nu)), var_satt(_Columns.of(shifted_ds, shifted_nu))),
        (var_sigma_bound(_Columns.of(ds, nu)),
         var_sigma_bound(_Columns.of(shifted_ds, shifted_nu))),
    ]
    for base, shifted in pairs:
        assert shifted == pytest.approx(base, rel=1e-9, abs=1e-10)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), binary=st.booleans())
def test_variance_nonnegativity(seed, binary):
    ds, nu = random_dataset_with_nuisances(seed, binary=binary)
    psi = estimate_psi_hat(_Columns.of(ds, nu))
    sw = estimate_all(ds, oracle=nu).per_kind[EstimandKind.SWATT]
    values = {
        "v_patt": var_patt(_Columns.of(ds, nu, psi)),
        "v_actt": var_actt(_Columns.of(ds, nu, psi)),
        "v_catt": var_catt(_Columns.of(ds, nu, psi)), "v_matt": var_matt(_Columns.of(ds, nu)),
        "v_satt": var_satt(_Columns.of(ds, nu)),
        "v_sigma_bound": var_sigma_bound(_Columns.of(ds, nu)),
        "swatt_conservative_simple": sw.conservative_simple,
        "swatt_conservative_sigma": sw.conservative_sigma,
    }
    if binary:
        values.update(v_fh_bound=var_fh_binary(_Columns.of(ds, nu)),
                      swatt_conservative_fh=sw.conservative_fh)
    for name, value in values.items():
        assert value is not None and value >= 0.0, name


# ---------------------------------------------------------------------------
# estimate_all assembly.

def test_estimate_all_worked_example():
    ds, nu = make_worked_example()
    report = estimate_all(ds, oracle=nu)
    assert report.psi_hat == pytest.approx(float(ORACLE["psi"]), rel=1e-12)
    assert report.p_n_a == 0.5
    assert report.per_kind[EstimandKind.PATT].variance == pytest.approx(
        float(ORACLE["v_patt"]), rel=1e-12)
    assert report.per_kind[EstimandKind.SATT].variance == pytest.approx(
        float(ORACLE["v_satt"]), rel=1e-12)
    sw = report.per_kind[EstimandKind.SWATT]
    assert sw.conservative_simple == pytest.approx(float(ORACLE["v_actt"]), rel=1e-12)
    expected_sigma = max(0.0, float(ORACLE["v_actt"] - ORACLE["v_sigma"]))
    assert sw.conservative_sigma == pytest.approx(expected_sigma, rel=1e-12)
    assert sw.variance_used == pytest.approx(min(sw.conservative_simple, sw.conservative_sigma))
    # every interval contains the point estimate
    for inf in report.per_kind.values():
        assert inf.ci_lower <= report.psi_hat <= inf.ci_upper


def test_estimate_all_zero_noise_oracle_dgp():
    # Heterogeneous deterministic outcomes: residual-driven variances vanish
    # exactly; contrast-driven variances stay positive.
    import dataclasses
    spec = dataclasses.replace(
        STD_SPEC, noise0_sd_coeffs=[0.0, 0.0, 0.0], noise1_sd_coeffs=[0.0, 0.0, 0.0],
        exact_noise=True)
    pd = generate(spec, 500, seed=4)
    report = estimate_all(pd.dataset, oracle=pd.true_nuisances)
    assert report.per_kind[EstimandKind.CATT].variance == pytest.approx(0.0, abs=1e-20)
    assert report.per_kind[EstimandKind.MATT].variance == pytest.approx(0.0, abs=1e-20)
    assert report.per_kind[EstimandKind.SATT].variance == pytest.approx(0.0, abs=1e-20)
    assert report.per_kind[EstimandKind.PATT].variance > 0.0
    assert report.per_kind[EstimandKind.ACTT].variance > 0.0


def test_estimate_all_estimand_subset_skips_mu1():
    rng = np.random.default_rng(0)
    n = 30
    ds = Dataset(y=rng.standard_normal(n), a=rng.permutation([1] * 10 + [0] * 20),
                 x=rng.standard_normal((n, 1)))
    report = estimate_all(ds, estimands=[EstimandKind.PATT, EstimandKind.MATT])
    assert set(report.per_kind) == {EstimandKind.PATT, EstimandKind.MATT}


def test_estimate_all_binary_reports_fh():
    rng = np.random.default_rng(5)
    n = 200
    x = rng.standard_normal((n, 1))
    a = rng.integers(0, 2, n)
    a[0], a[1] = 1, 0
    y = rng.integers(0, 2, n).astype(float)
    ds = Dataset(y=y, a=a, x=x, outcome_kind=OutcomeKind.BINARY)
    report = estimate_all(ds)
    sw = report.per_kind[EstimandKind.SWATT]
    assert sw.conservative_fh is not None
    assert report.diagnostics["v_fh_bound"] >= 0.0
    assert "swatt_conservative_fh_pn_inv" not in report.diagnostics


NOT_A_KIND = "estimands must be EstimandKind members"


@pytest.mark.parametrize("estimands, message", [
    ([], "no estimands requested"),
    (["patt"], NOT_A_KIND),
    ([EstimandKind.PATT, "matt"], NOT_A_KIND),
    ([["patt"]], NOT_A_KIND),
    (EstimandKind.PATT, "estimands must be a collection"),
], ids=["empty", "strings", "mixed", "nested", "bare_kind"])
def test_estimate_all_no_estimand_kind_is_validation_error(estimands, message):
    # An empty list names no estimand, and an entry that is not an
    # EstimandKind is refused, not dropped beside a valid one.
    ds, nu = make_worked_example()
    with pytest.raises(ValidationError, match=message):
        estimate_all(ds, oracle=nu, estimands=estimands)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(4, 200), d=st.integers(0, 3),
       binary=st.booleans())
def test_in_sample_matt_variance_at_most_satt(seed, n, d, binary):
    # v_satt - v_matt = Pn[tau_y^2 (1/pi - 1)] + (Pn tau_y)^2 >= 0 for every input,
    # so only rounding may put v_matt above v_satt.
    ds, nu = random_dataset_with_nuisances(seed, n=n, d=d, binary=binary)
    report = estimate_all(ds, oracle=nu, estimands=[EstimandKind.SATT, EstimandKind.MATT])
    v_satt = report.per_kind[EstimandKind.SATT].variance
    v_matt = report.per_kind[EstimandKind.MATT].variance
    assert v_matt <= v_satt * (1.0 + 1e-12)


@pytest.mark.parametrize("binary", [False, True], ids=["continuous", "binary"])
@pytest.mark.parametrize("fitted", [False, True], ids=["oracle", "fitted"])
def test_estimate_all_variances_equal_public_wrappers(binary, fitted):
    # estimate_all builds its score columns once and reads every variance off
    # them; the public wrappers rebuild them per call. The two agree bit for bit.
    ds, nu = random_dataset_with_nuisances(11, n=300, binary=binary)
    config = NuisanceConfig()
    report = estimate_all(ds, config, oracle=None if fitted else nu)
    nuis = compute_nuisances(ds, config, oracle=None if fitted else nu)
    psi = estimate_psi_hat(_Columns.of(ds, nuis))
    want = {
        EstimandKind.PATT: var_patt(_Columns.of(ds, nuis, psi)),
        EstimandKind.ACTT: var_actt(_Columns.of(ds, nuis, psi)),
        EstimandKind.CATT: var_catt(_Columns.of(ds, nuis, psi)),
        EstimandKind.SATT: var_satt(_Columns.of(ds, nuis)),
        EstimandKind.MATT: var_matt(_Columns.of(ds, nuis)),
    }
    assert report.psi_hat == psi
    for kind, variance in want.items():
        assert report.per_kind[kind].variance == variance, kind
    assert report.per_kind[EstimandKind.SWATT].conservative_simple == want[EstimandKind.ACTT]
    assert report.diagnostics["v_sigma_bound"] == var_sigma_bound(_Columns.of(ds, nuis))
    if binary:
        assert report.diagnostics["v_fh_bound"] == var_fh_binary(_Columns.of(ds, nuis))


def test_estimate_all_runs_each_formula_once_by_its_module_name(monkeypatch):
    # The table looks each formula up by its module-level name when it first
    # reads the quantity, so a patched name (the benchmark tracer's span) is
    # what estimate_all runs, once however many estimands read it.
    import treated.estimator as estimator
    names = ("estimate_psi_hat", "if_components", "var_patt", "var_actt", "var_catt",
             "var_matt", "var_satt", "var_sigma_bound", "var_fh_binary")
    calls = dict.fromkeys(names, 0)
    for name in names:
        def counted(c, name=name, formula=getattr(estimator, name)):
            calls[name] += 1
            return formula(c)
        monkeypatch.setattr(estimator, name, counted)
    estimate_all(_BINARY_DS, oracle=_BINARY_NU, estimands=list(EstimandKind))
    assert calls == dict.fromkeys(names, 1)


# ---------------------------------------------------------------------------
# End-to-end properties of estimate_all with fitted nuisances (folds=1).

_VARIANCE_FIELDS = ("variance", "conservative_simple", "conservative_sigma",
                    "conservative_fh", "variance_used")


def _fitted_dataset(seed, n, d):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, d))
    lin = 0.5 * x.sum(axis=1)
    a = (rng.random(n) < 1.0 / (1.0 + np.exp(-lin))).astype(int)
    a[:5], a[5:10] = 1, 0
    noise_sd = 1.0 + 0.2 * np.abs(x[:, 0]) if d else 1.0
    y = 1.0 + x.sum(axis=1) + a * (1.0 + lin) + noise_sd * rng.standard_normal(n)
    return Dataset(y=y, a=a, x=x)


def _outputs(report):
    """Every reported number, as (value, power of the outcome scale it carries)."""
    out = {"psi_hat": (report.psi_hat, 1),
           "v_sigma_bound": (report.diagnostics["v_sigma_bound"], 2)}
    for kind, inf in report.per_kind.items():
        out[f"{kind.value}.half_width"] = (0.5 * (inf.ci_upper - inf.ci_lower), 1)
        for name in _VARIANCE_FIELDS:
            if getattr(inf, name) is not None:
                out[f"{kind.value}.{name}"] = (getattr(inf, name), 2)
    return out


def _assert_outputs_match(got, want, y_scale, rel):
    assert got.keys() == want.keys()
    for key, (value, power) in want.items():
        assert got[key][0] == pytest.approx(
            value, rel=rel, abs=rel * y_scale ** power), key


# Maps of y leave the propensity fit untouched, so outputs agree to rounding.
# Maps of rows or x change the IRLS path at the rounding level; the fit stops
# only after a full Newton step taken at a negligible Newton decrement, so the
# coefficients, and the outputs with them, still agree to rounding.
_REL_Y_MAP = 1e-9
_REL_IRLS = 1e-9


_PROBLEMS = dict(seed=st.integers(0, 2**32 - 1), n=st.integers(60, 400),
                 d=st.integers(0, 3))


@settings(max_examples=40, deadline=None)
@given(**_PROBLEMS, c=st.floats(0.1, 10.0), negate=st.booleans(),
       b=st.floats(-10.0, 10.0))
def test_fitted_estimate_equivariant_under_outcome_affine_map(seed, n, d, c, negate, b):
    # y -> c*y + b: psi scales by c, variances by c^2, half-widths by |c|.
    c = -c if negate else c
    ds = _fitted_dataset(seed, n, d)
    moved = estimate_all(Dataset(y=c * ds.y + b, a=ds.a, x=ds.x))
    expected = {
        key: (value * (c if key == "psi_hat" else abs(c)) ** power, power)
        for key, (value, power) in _outputs(estimate_all(ds)).items()
    }
    _assert_outputs_match(_outputs(moved), expected, abs(c) * ds.y.std(), _REL_Y_MAP)


@settings(max_examples=40, deadline=None)
@given(**_PROBLEMS, perm_seed=st.integers(0, 2**32 - 1))
def test_fitted_estimate_invariant_to_row_order(seed, n, d, perm_seed):
    ds = _fitted_dataset(seed, n, d)
    perm = np.random.default_rng(perm_seed).permutation(n)
    shuffled = estimate_all(Dataset(y=ds.y[perm], a=ds.a[perm], x=ds.x[perm]))
    _assert_outputs_match(_outputs(shuffled), _outputs(estimate_all(ds)), ds.y.std(),
                          _REL_IRLS)


@settings(max_examples=40, deadline=None)
@given(**_PROBLEMS, affine_seed=st.integers(0, 2**32 - 1))
def test_fitted_estimate_invariant_to_covariate_affine_maps(seed, n, d, affine_seed):
    # x_j -> s_j*x_j + t_j with s_j != 0, column by column.
    ds = _fitted_dataset(seed, n, d)
    rng = np.random.default_rng(affine_seed)
    s = rng.uniform(0.1, 10.0, d) * rng.choice([-1.0, 1.0], d)
    t = rng.uniform(-10.0, 10.0, d)
    moved = estimate_all(Dataset(y=ds.y, a=ds.a, x=ds.x * s + t))
    _assert_outputs_match(_outputs(moved), _outputs(estimate_all(ds)), ds.y.std(),
                          _REL_IRLS)


# ---------------------------------------------------------------------------
# Large-sample consistency of each estimator against the brute-force oracle
# (single dataset at n = 20000, tolerance 2%).

@pytest.fixture(scope="module")
def big_run(std_oracle):
    pd = generate(STD_SPEC, 20_000, seed=111)
    report = estimate_all(pd.dataset, oracle=pd.true_nuisances)
    estimates = {f"v_{kind.value}": inf.variance for kind, inf in report.per_kind.items()}
    estimates["v_sigma_bound"] = report.diagnostics["v_sigma_bound"]
    return estimates, std_oracle


@pytest.mark.parametrize("attr,kind", [
    ("v_patt", "patt"),
    ("v_actt", "actt"),
    ("v_catt", "catt"),
    ("v_matt", "matt"),
    ("v_satt", "satt"),
])
def test_variance_estimators_consistent(big_run, attr, kind):
    estimates, oracle = big_run
    true_value = getattr(oracle, kind).value
    assert estimates[attr] == pytest.approx(true_value, rel=0.02)


def test_sigma_bound_consistent(big_run):
    estimates, oracle = big_run
    assert estimates["v_sigma_bound"] == pytest.approx(oracle.sigma_bound.value, rel=0.02)


def test_orthogonality_of_components_at_truth(std_oracle):
    # With true nuisances and the true effect, the empirical inner products of
    # the score components are within 3 MC standard errors of zero.
    pd = generate(STD_SPEC, 200_000, seed=57)
    c = _Columns.of(pd.dataset, pd.true_nuisances, std_oracle.psi_patt.value)
    psi_y, psi_a, psi_x = if_components(c)
    tau_y = c.tau_y
    for u, v in [(psi_y, psi_a), (psi_y, psi_x), (psi_a, psi_x)]:
        prod = u * v
        se = prod.std(ddof=1) / np.sqrt(prod.size)
        assert abs(prod.mean()) <= 3 * se
    # tau_y is supported on controls, so its product with any treated-only
    # term is identically zero.
    treated_term = pd.dataset.a * (pd.true_nuisances.mu0_hat - pd.y0)
    assert np.all(tau_y * treated_term == 0.0)
