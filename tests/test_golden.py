"""Golden bytes: small fixed CLI runs whose stdout must not change.

Each case runs ``treated.cli.main`` on the committed inputs in
``tests/golden`` and compares its standard output with the committed
``<case>.json`` byte for byte. A change that moves any bit of an
``estimate``, ``simulate`` or ``oracle`` report fails here and must say why
it moved when it re-records the file.
"""

from pathlib import Path

import pytest

from treated import simulation
from treated.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
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
    monkeypatch.setattr(simulation, "_worker_count", lambda reps: workers)
    _assert_golden(case, capsys)
