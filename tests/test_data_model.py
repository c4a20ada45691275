import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treated import (
    Dataset,
    DegenerateTreatmentError,
    EstimandKind,
    KindInference,
    LengthMismatchError,
    NonBinaryOutcomeError,
    NonFiniteError,
    NuisanceConfig,
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



@pytest.mark.parametrize("name", ["y", "a", "x"])
def test_dataset_refuses_a_missing_array_by_name(name):
    arrays = {"y": [1.0, 2.0], "a": [1, 0], "x": np.zeros((2, 1)), name: None}
    with pytest.raises(ValidationError, match=f"^{name} is required, got None$"):
        Dataset(**arrays)


@pytest.mark.parametrize("name", ["pi_hat", "mu0_hat"])
def test_nuisance_values_refuse_a_missing_required_array_by_name(name):
    # Not read as one NaN: refused as missing.
    arrays = {"pi_hat": [0.5, 0.5], "mu0_hat": [0.0, 0.0], name: None}
    with pytest.raises(ValidationError, match=f"^{name} is required, got None$"):
        NuisanceValues(**arrays)


@pytest.mark.parametrize("fields, message", [
    ({"ci_lower": 0.0, "ci_upper": 1.0, "variance": "x"}, "^variance must be nonnegative, got x$"),
    ({"ci_lower": None, "ci_upper": 1.0, "variance": 1.0}, "^ci_lower must be a number, got None$"),
    ({"ci_lower": 0.0, "ci_upper": "1", "variance": 1.0}, "^ci_upper must be a number, got '1'$"),
    ({"ci_lower": 0.0, "ci_upper": 1.0, "variance_used": [1.0]},
     r"^variance_used must be nonnegative, got \[1.0\]$"),
], ids=["variance string", "lower None", "upper string", "variance_used list"])
def test_kind_inference_refuses_a_non_number_by_name(fields, message):
    # Each was a bare TypeError from a comparison.
    with pytest.raises(ValidationError, match=message):
        KindInference(**fields)


def test_two_column_outcome_is_refused_not_flattened():
    # 25 rows of 2 columns flattened to 50 would pass as n = 50 and mix units.
    rng = np.random.default_rng(0)
    a = np.tile([1, 0], 25)
    with pytest.raises(LengthMismatchError, match=r"^y must be a 1-d array, got shape \(25, 2\)$"):
        Dataset(y=rng.standard_normal((25, 2)), a=a, x=np.zeros((50, 1)))


def test_row_shaped_nuisance_is_refused_not_flattened():
    message = r"^mu0_hat must be a 1-d array, got shape \(1, 3\)$"
    with pytest.raises(LengthMismatchError, match=message):
        NuisanceValues(pi_hat=[0.5, 0.5, 0.5], mu0_hat=[[0.0, 0.0, 0.0]])


def test_scalar_outcome_is_refused():
    with pytest.raises(LengthMismatchError, match="y must be a 1-d array"):
        Dataset(y=1.0, a=[1], x=np.zeros((1, 0)))


def test_one_dimensional_x_is_one_covariate():
    ds = Dataset(y=[1.0, 2.0, 3.0], a=[1, 0, 1], x=[0.5, -1.0, 2.0])
    assert ds.x.shape == (3, 1) and ds.d == 1
    assert ds.x[:, 0].tolist() == [0.5, -1.0, 2.0]


def test_treatment_is_a_read_only_float_column():
    ds = Dataset(y=[1.0, 2.0, 3.0], a=np.array([True, False, True]), x=np.zeros((3, 1)))
    assert ds.a.dtype == np.float64 and ds.a.tolist() == [1.0, 0.0, 1.0]
    assert not ds.a.flags.writeable


@pytest.mark.parametrize("bad", [0.5, -1, np.nan, 1.0 + 2**-52])
def test_treatment_outside_zero_one_is_refused(bad):
    with pytest.raises(ValidationError, match="a must contain only 0 or 1"):
        Dataset(y=[1.0, 2.0, 3.0], a=[1, 0, bad], x=np.zeros((3, 1)))


@pytest.mark.parametrize("bad", [["a"] * 3, [object()] * 3, [[1.0], [2.0, 3.0], [4.0]]],
                         ids=["strings", "objects", "ragged"])
def test_an_array_of_non_numbers_is_refused_by_name(bad):
    # numpy's conversion raised a bare ValueError or TypeError.
    with pytest.raises(ValidationError, match="^y must be an array of numbers: "):
        Dataset(y=bad, a=[1, 0, 1], x=np.zeros((3, 1)))
    with pytest.raises(ValidationError, match="^sigma1_hat must be an array of numbers: "):
        NuisanceValues(pi_hat=[0.5] * 3, mu0_hat=[0.0] * 3, sigma1_hat=bad)


@pytest.mark.parametrize("clip_eps", [None, "0.1", [0.1], 0.0, 0.5, float("nan")])
def test_config_and_values_refuse_clip_eps_by_one_rule(clip_eps):
    # A clip_eps that is not a number was a bare TypeError.
    message = r"^clip_eps must be in \(0, 0\.5\), got "
    with pytest.raises(ValidationError, match=message):
        NuisanceConfig(clip_eps=clip_eps)
    with pytest.raises(ValidationError, match=message):
        NuisanceValues(pi_hat=[0.5], mu0_hat=[0.0], clip_eps=clip_eps)
