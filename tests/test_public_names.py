"""The package's public names: what ``treated/__init__.py`` exports, and the
options of each exported function and config type.

The surface changes only together with these pins and the README's library
section, which names the same names.
"""

import dataclasses
import importlib
import inspect
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import treated
from treated import (DgpSpec, EstimandKind, McValue, NuisanceConfig, TreatedError, generate)

from conftest import with_workers

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


# ---------------------------------------------------------------------------
# The library contract: every exported function, called with each argument
# either valid or wrong, raises nothing but a TreatedError, and a call with a
# wrong argument never succeeds.

_SPEC = DgpSpec(d=1, propensity_coeffs=[0.3, 0.4], mu0_coeffs=[1.0, 1.0],
                mu1_coeffs=[2.0, 1.5], noise0_sd_coeffs=[1.0, 0.2],
                noise1_sd_coeffs=[0.8, 0.0])
_NAN = float("nan")
# Wrong in place of an int count, a seed, a number, a variance, a level in
# (0, 1) and a bool.
_NOT_A_COUNT = [None, True, 2.0, "3", -1, _NAN, [[2]], np.ones((2, 2)), NuisanceConfig()]
_NOT_A_SEED = [None, True, 1.5, "3", -1, _NAN, [[2]], [], np.ones((2, 2)), _SPEC]
_NOT_A_NUMBER = [None, "0.5", [[0.5]], np.full((2, 2), 0.5), _SPEC]
_NOT_A_VARIANCE = [*_NOT_A_NUMBER, _NAN, -0.5]
_NOT_A_LEVEL = [*_NOT_A_VARIANCE, 1.0]
_NOT_A_BOOL = [None, 1, 1.0, "true", np.zeros(2), [[True]]]


def _arguments(pd, other):
    """Per function, per parameter: a strategy of valid values, and the wrong
    ones. ``pd`` and ``other`` are small samples of the spec, of their own sizes."""
    ds, oracle = pd.dataset, pd.true_nuisances
    counts = st.integers(1, 60)
    seeds = st.one_of(st.integers(0, 2 ** 32), st.lists(st.integers(0, 99), min_size=1,
                                                        max_size=3))
    levels = st.floats(0.5, 0.99)
    configs = st.builds(NuisanceConfig, folds=st.integers(1, 3), clip_eps=st.floats(0.001, 0.1),
                        seed=st.integers(0, 9))
    oracles = st.sampled_from([None, oracle, other.true_nuisances])
    not_a_dataset = [None, "x", pd, [[1.0]], np.ones((2, 2)), oracle]
    not_an_oracle = ["x", ds, _NAN, [[0.5]], np.full((2, 2), 0.5)]
    not_a_spec = [None, "x", _SPEC.to_dict(), ds]
    not_a_sample = [None, "x", ds, oracle]
    kinds = st.one_of(st.none(), st.lists(st.sampled_from(list(EstimandKind)), max_size=6))
    return {
        "validate": {"dataset": (st.sampled_from([ds, other.dataset]), not_a_dataset)},
        "compute_nuisances": {
            "dataset": (st.just(ds), not_a_dataset),
            "config": (configs, [None, "x", _SPEC, 1]),
            "oracle": (oracles, not_an_oracle),
            "need_mu1": (st.booleans(), _NOT_A_BOOL),
            "need_sigma": (st.booleans(), _NOT_A_BOOL),
        },
        "confidence_interval": {
            "psi_hat": (st.floats(-1e6, 1e6), _NOT_A_NUMBER),
            "variance": (st.floats(0.0, 1e6), _NOT_A_VARIANCE),
            "n": (counts, _NOT_A_COUNT),
            "level": (levels, _NOT_A_LEVEL),
        },
        "estimate_all": {
            "dataset": (st.just(ds), not_a_dataset),
            "config": (st.one_of(st.none(), configs), ["x", _SPEC, 1]),
            "oracle": (oracles, not_an_oracle),
            "estimands": (kinds, ["x", [[1]], np.ones((2, 2)), 1.0, _NAN, EstimandKind.PATT,
                                  ["patt"]]),
            "ci_level": (levels, _NOT_A_LEVEL),
        },
        "generate": {"spec": (st.just(_SPEC), not_a_spec), "n": (counts, _NOT_A_COUNT),
                     "seed": (seeds, _NOT_A_SEED)},
        "oracle_asymptotic_variances": {"spec": (st.just(_SPEC), not_a_spec),
                                        "draws": (st.integers(1, 2000), _NOT_A_COUNT),
                                        "seed": (seeds, _NOT_A_SEED)},
        "psi_patt_true": {"spec": (st.just(_SPEC), not_a_spec),
                          "draws": (st.integers(1, 2000), _NOT_A_COUNT),
                          "seed": (seeds, _NOT_A_SEED)},
        "psi_tilde": {"pd": (st.sampled_from([pd, other]), not_a_sample)},
        "run_monte_carlo": {
            "spec": (st.just(_SPEC), not_a_spec),
            "n": (counts, _NOT_A_COUNT),
            "reps": (st.integers(1, 3), _NOT_A_COUNT),
            "seed": (seeds, _NOT_A_SEED),
            "nuisance_config": (st.one_of(st.none(), configs), ["x", _SPEC, 1]),
            "ci_level": (levels, _NOT_A_LEVEL),
            "psi_patt": (st.sampled_from([None, McValue(1.0, 0.0)]),
                         [1.0, "x", (1.0, 0.0), _NAN, ds]),
            "patt_draws": (st.integers(1, 2000), _NOT_A_COUNT),
        },
        "true_sample_estimands": {"pd": (st.sampled_from([pd, other]), not_a_sample),
                                  "psi_patt_true": (st.floats(-10.0, 10.0), _NOT_A_NUMBER)},
    }


# Valid samples of three sizes, each with both arms.
_SAMPLES = [generate(_SPEC, n, seed=n) for n in (12, 37, 60)]


@settings(max_examples=200, deadline=None)
@given(st.data(), st.permutations(_SAMPLES))
def test_exported_functions_refuse_wrong_arguments_by_a_package_error(data, samples):
    name = data.draw(st.sampled_from(sorted(PARAMETERS)), label="function")
    table = _arguments(*samples[:2])[name]
    assert list(table) == PARAMETERS[name]
    kwargs, wrong = {}, []
    for param, (valid, bad) in table.items():
        if data.draw(st.booleans(), label=f"{param} wrong"):
            kwargs[param] = bad[data.draw(st.integers(0, len(bad) - 1), label=param)]
            wrong.append(param)
        else:
            kwargs[param] = data.draw(valid, label=param)
    # Every pool runs its generator in this process: a pool re-raises its
    # worker's error as it is, so the contract is the same, and no fork is paid.
    with pytest.MonkeyPatch.context() as patch:
        with_workers(patch, 1)
        try:
            getattr(treated, name)(**kwargs)
        except TreatedError:
            return
    assert not wrong, f"{name} took the wrong {wrong}: {kwargs}"
