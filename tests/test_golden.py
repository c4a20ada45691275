"""Golden bytes: small fixed CLI runs whose stdout must not change.

Each case runs ``treated.cli.main`` on the committed inputs in
``tests/golden`` and compares its standard output with the committed
``<case>.json`` byte for byte. A change that moves any bit of an
``estimate``, ``simulate`` or ``oracle`` report fails here and must say why
it moved when it re-records the file.
"""

import fnmatch
import json
from pathlib import Path

import pytest

from treated import cli, mathutil, nuisance
from treated.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
README = GOLDEN.parent.parent / "README.md"
CONTINUOUS_CSV = str(GOLDEN / "continuous.csv")
BINARY_CSV = str(GOLDEN / "binary.csv")
ORACLE_CSV = str(GOLDEN / "oracle_columns.csv")
PI_MU0_CSV = str(GOLDEN / "oracle_pi_mu0.csv")
CONTINUOUS_SPEC = str(GOLDEN / "continuous_spec.json")
BINARY_SPEC = str(GOLDEN / "binary_spec.json")
ANTITONE_SPEC = str(GOLDEN / "antitone_spec.json")
EXACT_NOISE_SPEC = str(GOLDEN / "exact_noise_spec.json")

CASES = {
    "estimate_continuous_folds1": ["estimate", "--input", CONTINUOUS_CSV],
    "estimate_continuous_folds5": ["estimate", "--input", CONTINUOUS_CSV,
                                   "--folds", "5", "--seed", "7"],
    "estimate_binary": ["estimate", "--input", BINARY_CSV, "--binary-outcome"],
    "estimate_oracle_columns": ["estimate", "--input", ORACLE_CSV],
    "estimate_oracle_columns_fitted": ["estimate", "--input", ORACLE_CSV,
                                       "--nuisance", "fitted"],
    "estimate_oracle_pi_mu0": ["estimate", "--input", PI_MU0_CSV,
                               "--estimands", "patt,satt,matt"],
    "simulate_oracle": ["simulate", "--spec", CONTINUOUS_SPEC, "--n", "400",
                        "--reps", "20", "--seed", "5", "--oracle-nuisances",
                        "--patt-draws", "40000"],
    "simulate_oracle_binary": ["simulate", "--spec", BINARY_SPEC, "--n", "400",
                               "--reps", "20", "--seed", "5", "--oracle-nuisances",
                               "--patt-draws", "40000"],
    "simulate_oracle_antitone": ["simulate", "--spec", ANTITONE_SPEC, "--n", "400",
                                 "--reps", "20", "--seed", "5", "--oracle-nuisances",
                                 "--patt-draws", "40000"],
    "simulate_fitted": ["simulate", "--spec", BINARY_SPEC, "--n", "300",
                        "--reps", "10", "--seed", "2", "--folds", "2",
                        "--patt-draws", "40000"],
    "oracle_continuous": ["oracle", "--spec", CONTINUOUS_SPEC, "--draws", "64000",
                          "--seed", "3"],
    "oracle_binary": ["oracle", "--spec", BINARY_SPEC, "--draws", "64000",
                      "--seed", "3"],
    "oracle_exact_noise": ["oracle", "--spec", EXACT_NOISE_SPEC, "--draws", "64000",
                           "--seed", "3"],
}


def _assert_golden(case, capsys):
    assert main(CASES[case]) == 0
    expected = (GOLDEN / f"{case}.json").read_text(encoding="utf-8")
    assert capsys.readouterr().out == expected


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_bytes(case, capsys):
    _assert_golden(case, capsys)


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("case", sorted(c for c in CASES if c.startswith("simulate_")))
def test_simulate_golden_bytes_for_worker_count(case, workers, capsys, monkeypatch):
    # Replications run in a pool of forked workers; the report must not depend
    # on how many, so each count reproduces the same committed bytes.
    monkeypatch.setattr(mathutil, "_worker_count", lambda reps: workers)
    _assert_golden(case, capsys)


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("case", sorted(c for c in CASES if c.startswith("oracle_")))
def test_oracle_golden_bytes_for_worker_count(case, workers, capsys, monkeypatch):
    # The oracle's joint pass runs its batches in the same pool; batch k draws
    # from its own stream, so each count reproduces the same committed bytes.
    monkeypatch.setattr(mathutil, "_worker_count", lambda count: workers)
    _assert_golden(case, capsys)


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("case", sorted(c for c in CASES if c.startswith("estimate_")))
def test_estimate_golden_bytes_for_worker_count(case, workers, capsys, monkeypatch):
    # Cross-fitting runs its fits, and the reader its byte ranges, in the same
    # pool from a size threshold on; with both thresholds at 0 every case
    # takes the pool paths, and each count reproduces the same committed bytes.
    monkeypatch.setattr(nuisance, "FOLD_POOL_ROWS", 0)
    monkeypatch.setattr(cli, "INGEST_POOL_BYTES", 0)
    monkeypatch.setattr(mathutil, "_worker_count", lambda count: workers)
    _assert_golden(case, capsys)


# The paths at which a success report may carry null in place of a number,
# as README's CLI section lists them (dotted, ``*`` for any estimand).
DOCUMENTED_NULLS = (
    "psi_patt.se", "asymptotic_variances.*.se", "sigma_bound.se", "fh_bound.se",
    "extras.psi_patt_se", "per_kind.*.empirical_var_scaled_se",
    "per_kind.swatt.conservative_fh", "per_kind.swatt.conservative_sigma", "fh_bound",
    "extras.mean_swatt_conservative_fh", "extras.mean_swatt_conservative_sigma",
    "extras.satt_vs_patt",
)


def _null_paths(obj, path=()):
    if obj is None:
        yield ".".join(path)
    elif isinstance(obj, dict):
        for key, value in obj.items():
            yield from _null_paths(value, path + (key,))
    elif isinstance(obj, list):
        for i, value in enumerate(obj):
            yield from _null_paths(value, path + (str(i),))


def undocumented_nulls(report) -> list:
    """The paths at which ``report`` carries a null that DOCUMENTED_NULLS does
    not allow."""
    return [path for path in _null_paths(report)
            if not any(fnmatch.fnmatchcase(path, p) for p in DOCUMENTED_NULLS)]


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_nulls_are_documented(case):
    report = json.loads((GOLDEN / f"{case}.json").read_text(encoding="utf-8"))
    assert undocumented_nulls(report) == []


def test_documented_nulls_are_in_readme():
    readme = README.read_text(encoding="utf-8")
    assert [p for p in DOCUMENTED_NULLS if f"`{p}`" not in readme] == []
