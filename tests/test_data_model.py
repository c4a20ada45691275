import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treated import (
    Dataset,
    DegenerateTreatmentError,
    EstimandKind,
    IfComponents,
    LengthMismatchError,
    NonBinaryOutcomeError,
    NonFiniteError,
    NuisanceValues,
    OutcomeKind,
    Taxonomy,
    ValidationError,
    validate,
)


def test_validate_passes_and_is_identity():
    ds = Dataset(y=[1.0, 2.0, 3.0, 4.0], a=[1, 0, 1, 0], x=np.zeros((4, 1)))
    assert validate(ds) is ds


def test_validate_idempotent():
    ds = Dataset(y=[1.0, 2.0, 3.0, 4.0], a=[1, 0, 1, 0], x=np.zeros((4, 1)))
    assert validate(validate(ds)) is ds


def test_all_treated_rejected():
    with pytest.raises(DegenerateTreatmentError):
        Dataset(y=[1.0, 2.0, 3.0, 4.0], a=[1, 1, 1, 1], x=np.zeros((4, 1)))


def test_all_control_rejected():
    with pytest.raises(DegenerateTreatmentError):
        Dataset(y=[1.0, 2.0], a=[0, 0], x=np.zeros((2, 1)))


def test_non_finite_outcome_rejected():
    with pytest.raises(NonFiniteError):
        Dataset(y=[1.0, np.nan, 3.0], a=[1, 0, 1], x=np.zeros((3, 1)))


def test_non_finite_covariate_rejected():
    with pytest.raises(NonFiniteError):
        Dataset(y=[1.0, 2.0], a=[1, 0], x=[[np.inf], [0.0]])


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("name", ["pi_hat", "mu0_hat", "mu1_hat", "sigma0_hat", "sigma1_hat"])
def test_non_finite_nuisance_rejected(name, bad):
    values = {k: np.full(3, 0.5) for k in
              ("pi_hat", "mu0_hat", "mu1_hat", "sigma0_hat", "sigma1_hat")}
    values[name][1] = bad
    with pytest.raises(NonFiniteError, match=name):
        NuisanceValues(**values)


def test_length_mismatch_rejected():
    with pytest.raises(LengthMismatchError):
        Dataset(y=[1.0, 2.0, 3.0], a=[1, 0], x=np.zeros((3, 1)))


def test_non_binary_treatment_rejected():
    with pytest.raises(ValidationError):
        Dataset(y=[1.0, 2.0], a=[1, 2], x=np.zeros((2, 1)))


def test_binary_outcome_enforced_only_when_declared():
    Dataset(y=[0.5, 0.0], a=[1, 0], x=np.zeros((2, 0)))  # continuous: fine
    with pytest.raises(NonBinaryOutcomeError):
        Dataset(y=[0.5, 0.0], a=[1, 0], x=np.zeros((2, 0)),
                outcome_kind=OutcomeKind.BINARY)
    Dataset(y=[1.0, 0.0], a=[1, 0], x=np.zeros((2, 0)), outcome_kind=OutcomeKind.BINARY)


def test_zero_covariates_allowed():
    ds = Dataset(y=[1.0, 2.0], a=[1, 0], x=np.empty((2, 0)))
    assert ds.d == 0 and ds.n == 2


def test_arrays_are_immutable():
    ds = Dataset(y=[1.0, 2.0], a=[1, 0], x=np.zeros((2, 1)))
    with pytest.raises(ValueError):
        ds.y[0] = 5.0
    with pytest.raises(ValueError):
        ds.x[0, 0] = 5.0


def test_taxonomy_is_total():
    tags = {kind: kind.taxonomy for kind in EstimandKind}
    assert len(tags) == 6
    assert tags[EstimandKind.PATT] is Taxonomy.BOTH
    assert tags[EstimandKind.ACTT] is Taxonomy.FIGURATIVE
    assert tags[EstimandKind.SWATT] is Taxonomy.FIGURATIVE
    assert tags[EstimandKind.CATT] is Taxonomy.LITERAL
    assert tags[EstimandKind.SATT] is Taxonomy.LITERAL
    assert tags[EstimandKind.MATT] is Taxonomy.LITERAL


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), n=st.integers(2, 50), d=st.integers(0, 4))
def test_validate_idempotent_on_random_valid_data(seed, n, d):
    rng = np.random.default_rng(seed)
    a = rng.integers(0, 2, size=n)
    a[0], a[-1] = 1, 0
    ds = Dataset(y=rng.standard_normal(n), a=a, x=rng.standard_normal((n, d)))
    assert validate(validate(ds)) is ds


def test_nuisance_pi_bounds_enforced():
    NuisanceValues(pi_hat=[0.01, 0.99], mu0_hat=[0.0, 0.0], clip_eps=0.01)
    with pytest.raises(ValidationError):
        NuisanceValues(pi_hat=[0.005, 0.5], mu0_hat=[0.0, 0.0], clip_eps=0.01)
    with pytest.raises(ValidationError):
        NuisanceValues(pi_hat=[0.5, 0.5], mu0_hat=[0.0, 0.0], clip_eps=0.7)


def test_nuisance_negative_sigma_rejected():
    with pytest.raises(ValidationError):
        NuisanceValues(pi_hat=[0.5, 0.5], mu0_hat=[0.0, 0.0],
                       sigma0_hat=[-0.1, 0.0], sigma1_hat=[0.0, 0.0])


def test_nuisance_length_mismatch_rejected():
    with pytest.raises(LengthMismatchError):
        NuisanceValues(pi_hat=[0.5, 0.5], mu0_hat=[0.0, 0.0], mu1_hat=[0.0])


def test_if_components_share_length():
    with pytest.raises(LengthMismatchError):
        IfComponents(psi_y=[1.0, 2.0], psi_a=[1.0], psi_x=[0.0, 0.0], tau_y=[0.0, 0.0])
