import numpy as np
import pytest
from hypothesis import settings

from treated import DgpSpec, ValidationError, oracle_asymptotic_variances

# Selected with --hypothesis-profile=ci: the same examples on every run, so CI
# results repeat exactly. Local runs keep the default profile and explore new
# random examples each time.
settings.register_profile("ci", derandomize=True)

# Workhorse DGP: d=2 standard-normal covariates, logit-linear propensity,
# heterogeneous linear effect, independent heteroskedastic noise. Chosen so
# every variance component (outcome, assignment, covariate) is nonzero.
STD_SPEC = DgpSpec(
    d=2,
    propensity_coeffs=[0.2, 0.4, -0.3],
    mu0_coeffs=[1.0, 1.0, 0.5],
    mu1_coeffs=[2.0, 1.5, 0.5],
    noise0_sd_coeffs=[1.0, 0.2, 0.0],
    noise1_sd_coeffs=[1.3, 0.0, -0.1],
)

ORACLE_DRAWS = 10_000_000
ORACLE_SEED = 3


@pytest.fixture(scope="session")
def std_spec():
    return STD_SPEC


@pytest.fixture(scope="session")
def std_oracle(std_spec):
    """Brute-force true asymptotic variances for the workhorse DGP."""
    return oracle_asymptotic_variances(std_spec, draws=ORACLE_DRAWS, seed=ORACLE_SEED)


def make_worked_example():
    """The 4-row oracle-nuisance dataset used across estimator tests."""
    from treated import Dataset, NuisanceValues

    dataset = Dataset(y=[3.0, 1.0, 2.0, 0.0], a=[1, 0, 1, 0], x=np.empty((4, 0)))
    nuis = NuisanceValues(
        pi_hat=[0.5, 0.5, 0.25, 0.25],
        mu0_hat=[1.0, 1.0, 2.0, 1.0],
        mu1_hat=[2.0, 2.0, 3.0, 2.0],
        sigma0_hat=[1.0, 1.0, 1.0, 1.0],
        sigma1_hat=[2.0, 1.0, 2.0, 1.0],
        clip_eps=0.01,
    )
    return dataset, nuis


def random_dataset_with_nuisances(seed, n=50, d=2, binary=False):
    """Arbitrary valid (dataset, nuisances) pair for property tests."""
    from treated import Dataset, NuisanceValues, OutcomeKind

    rng = np.random.default_rng(seed)
    a = rng.integers(0, 2, size=n)
    a[0], a[1] = 1, 0
    x = rng.standard_normal((n, d))
    if binary:
        y = rng.integers(0, 2, size=n).astype(float)
        mu0 = rng.random(n)
        mu1 = rng.random(n)
    else:
        y = rng.standard_normal(n) * 2.0 + 1.0
        mu0 = rng.standard_normal(n)
        mu1 = rng.standard_normal(n) + 1.0
    pi = rng.uniform(0.05, 0.95, size=n)
    sigma0 = rng.uniform(0.0, 2.0, size=n)
    sigma1 = rng.uniform(0.0, 2.0, size=n)
    dataset = Dataset(
        y=y, a=a, x=x,
        outcome_kind=OutcomeKind.BINARY if binary else OutcomeKind.CONTINUOUS,
    )
    nuis = NuisanceValues(pi_hat=pi, mu0_hat=mu0, mu1_hat=mu1,
                          sigma0_hat=sigma0, sigma1_hat=sigma1, clip_eps=0.01)
    return dataset, nuis


def fh_sharpness_oracle(p: float, q: float, grid: int = 4001) -> float:
    """Exhaustively maximize E[y1*y0] over joint Bernoulli pmfs with margins (p, q).

    The joint law is a one-parameter family indexed by the overlap cell p11;
    the oracle scans a dense inclusive grid of candidate overlaps and keeps
    the largest one with all four cells nonnegative. Certifies that the sharp
    upper bound min(p, q) is attained.
    """
    if not (0.0 <= p <= 1.0 and 0.0 <= q <= 1.0):
        raise ValidationError("margins must lie in [0, 1]")
    lo = max(0.0, p + q - 1.0)
    hi = min(p, q)
    best = -np.inf
    for p11 in np.linspace(lo, hi, grid):
        cells = (p11, p - p11, q - p11, 1.0 - p - q + p11)
        if all(c >= -1e-15 for c in cells):
            best = max(best, p11)
    return float(best)
