"""Estimation and Monte Carlo verification for treatment effects on the treated.

One doubly robust point estimate serves six estimands (population, sample,
and mixed variants, literal and propensity-weighted); the package computes
the matching variance estimator and Wald interval for each, and ships a
seeded simulation harness with brute-force oracles that checks the claimed
variance ordering, coverage, consistency and sharp bounds.
"""

from .data_model import (
    Dataset,
    EstimandKind,
    EstimateReport,
    IfComponents,
    KindInference,
    NuisanceValues,
    OutcomeKind,
    Taxonomy,
    validate,
)
from .errors import (
    DegenerateTreatmentError,
    FoldTooSmallError,
    InsufficientArmDataError,
    IrlsDivergedError,
    LengthMismatchError,
    MissingMu1Error,
    MissingOracleError,
    MissingSigmaError,
    NonBinaryOutcomeError,
    NonFiniteError,
    NonFiniteEstimateError,
    NotBinaryOutcomeError,
    NumericError,
    SingularSystemError,
    TreatedError,
    ValidationError,
)
from .estimator import (
    SwattConservative,
    confidence_interval,
    estimate_all,
    estimate_psi_hat,
    if_components,
    var_actt,
    var_catt,
    var_fh_binary,
    var_matt,
    var_patt,
    var_satt,
    var_sigma_bound,
    var_swatt_conservative,
)
from .nuisance import (
    NuisanceConfig,
    compute_nuisances,
    fit_conditional_sd,
    fit_outcome_mean,
    fit_propensity,
)
from .simulation import (
    Dependence,
    DgpSpec,
    McReport,
    McValue,
    OracleVariances,
    PotentialDataset,
    XDist,
    fh_sharpness_oracle,
    generate,
    oracle_asymptotic_variances,
    psi_patt_true,
    psi_tilde,
    run_monte_carlo,
    true_nuisance_values,
    true_sample_estimands,
)

__version__ = "0.1.0"
