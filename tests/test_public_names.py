"""The package's public names: what ``treated/__init__.py`` exports.

The surface changes only together with these lists and the README's library
section, which names the same two groups.
"""

import types

import treated
from treated import estimator

LIBRARY = {
    # data model and errors
    "Dataset", "EstimandKind", "EstimateReport", "KindInference", "NuisanceValues",
    "OutcomeKind", "Taxonomy", "validate",
    "DegenerateTreatmentError", "FoldTooSmallError", "InsufficientArmDataError",
    "IrlsDivergedError", "LengthMismatchError", "MissingMu1Error", "MissingOracleError",
    "MissingSigmaError", "NonBinaryOutcomeError", "NonFiniteError", "NonFiniteEstimateError",
    "NotBinaryOutcomeError", "NumericError", "SingularSystemError", "TreatedError",
    "ValidationError",
    # estimation
    "NuisanceConfig", "compute_nuisances", "confidence_interval", "estimate_all",
    # simulation and oracles
    "Dependence", "DgpSpec", "McReport", "McValue", "OracleVariances", "PotentialDataset",
    "XDist", "fh_sharpness_oracle", "generate", "oracle_asymptotic_variances",
    "psi_patt_true", "psi_tilde", "run_monte_carlo", "true_sample_estimands",
}

# Kept public because the benchmark's tracer and fitter timings call them by name.
HOOK_TARGETS = {
    "IfComponents", "estimate_psi_hat", "if_components", "var_patt", "var_actt", "var_catt",
    "var_matt", "var_satt", "var_sigma_bound", "var_fh_binary",
    "fit_propensity", "fit_outcome_mean", "fit_conditional_sd",
}


def test_package_exports_exactly_the_pinned_names():
    exported = {name for name, value in vars(treated).items()
                if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert exported == LIBRARY | HOOK_TARGETS


def test_estimator_all_names_its_exported_functions():
    assert set(estimator.__all__) == {name for name in LIBRARY | HOOK_TARGETS
                                      if getattr(treated, name).__module__ == estimator.__name__}
