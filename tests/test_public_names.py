"""The package's public names: what ``treated/__init__.py`` exports, and the
options of each exported function and config type.

The surface changes only together with these pins and the README's library
section, which names the same names.
"""

import dataclasses
import importlib
import inspect
import types

import treated

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
    "XDist", "generate", "oracle_asymptotic_variances", "psi_patt_true", "psi_tilde",
    "run_monte_carlo", "true_sample_estimands",
}

# Not exported, but module-level names where the benchmark's tracer and fitter
# timings look them up.
HOOK_TARGETS = {
    "treated.estimator": {"estimate_psi_hat", "if_components", "var_patt", "var_actt",
                          "var_catt", "var_matt", "var_satt", "var_sigma_bound",
                          "var_fh_binary"},
    "treated.nuisance": {"fit_propensity", "fit_outcome_mean", "fit_conditional_sd"},
}

# Parameter names of each exported function, and field names of the config
# types: adding or removing an option shows up here.
PARAMETERS = {
    "validate": ["dataset"],
    "compute_nuisances": ["dataset", "config", "oracle", "need_mu1", "need_sigma"],
    "confidence_interval": ["psi_hat", "variance", "n", "level"],
    "estimate_all": ["dataset", "config", "oracle", "estimands", "ci_level"],
    "generate": ["spec", "n", "seed"],
    "oracle_asymptotic_variances": ["spec", "draws", "seed"],
    "psi_patt_true": ["spec", "draws", "seed"],
    "psi_tilde": ["pd"],
    "run_monte_carlo": ["spec", "n", "reps", "seed", "nuisance_config", "ci_level", "psi_patt",
                        "patt_draws"],
    "true_sample_estimands": ["pd", "psi_patt_true"],
}
FIELDS = {
    "NuisanceConfig": ["folds", "clip_eps", "seed"],
    "DgpSpec": ["d", "propensity_coeffs", "mu0_coeffs", "mu1_coeffs", "noise0_sd_coeffs",
                "noise1_sd_coeffs", "x_dist", "dependence", "outcome_kind", "exact_noise"],
}


def test_package_exports_exactly_the_pinned_names():
    exported = {name for name, value in vars(treated).items()
                if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert exported == LIBRARY


def test_hook_targets_exist_in_their_modules():
    missing = [f"{module}.{name}" for module, names in HOOK_TARGETS.items()
               for name in sorted(names) if not hasattr(importlib.import_module(module), name)]
    assert missing == []


def test_exported_functions_take_the_pinned_parameters():
    functions = {name: list(inspect.signature(value).parameters)
                 for name in LIBRARY if inspect.isfunction(value := getattr(treated, name))}
    assert functions == PARAMETERS


def test_config_types_have_the_pinned_fields():
    assert {name: [f.name for f in dataclasses.fields(getattr(treated, name))]
            for name in FIELDS} == FIELDS
