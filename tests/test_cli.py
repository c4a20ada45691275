import dataclasses
import json
import subprocess
import sys

import numpy as np
import pytest

from treated.cli import dumps_canonical, main, report_to_dict
from treated import IrlsDivergedError, NonFiniteEstimateError, estimate_all

from conftest import make_worked_example

WORKED_CSV = """y,a,x1,pi,mu0,mu1,sigma0,sigma1
3,1,0.1,0.5,1,2,1,2
1,0,0.2,0.5,1,2,1,1
2,1,0.3,0.25,2,3,1,2
0,0,0.4,0.25,1,2,1,1
"""


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def _spec_json():
    return {
        "schema_version": 1,
        "d": 1,
        "x_dist": "std_normal",
        "propensity_coeffs": [0.3, 0.4],
        "mu0_coeffs": [1.0, 1.0],
        "mu1_coeffs": [2.0, 1.5],
        "noise0_sd_coeffs": [1.0, 0.0],
        "noise1_sd_coeffs": [0.8, 0.0],
        "dependence": "independent",
        "outcome_kind": "continuous",
        "exact_noise": False,
    }


# ---------------------------------------------------------------------------
# estimate.

def test_estimate_worked_example(tmp_path, capsys):
    csv_path = _write(tmp_path, "data.csv", WORKED_CSV)
    code = main(["estimate", "--input", csv_path])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert out["psi_hat"] == 7 / 6
    assert out["n"] == 4
    assert out["p_n_a"] == 0.5
    assert out["per_kind"]["satt"]["variance"] == pytest.approx(4 / 9, rel=1e-15)
    assert set(out["per_kind"]) == {"patt", "actt", "swatt", "catt", "satt", "matt"}
    for entry in out["per_kind"].values():
        assert entry["ci_lower"] <= out["psi_hat"] <= entry["ci_upper"]


def test_estimate_json_roundtrips_bit_exactly(tmp_path):
    ds, nu = make_worked_example()
    report = estimate_all(ds, oracle=nu)
    emitted = dumps_canonical(report_to_dict(report))
    parsed = json.loads(emitted)
    assert parsed["psi_hat"] == report.psi_hat
    for kind, inf in report.per_kind.items():
        entry = parsed["per_kind"][kind.value]
        assert entry["ci_lower"] == inf.ci_lower
        assert entry["ci_upper"] == inf.ci_upper
        if inf.variance is not None:
            assert entry["variance"] == inf.variance
        else:
            assert entry["variance_used"] == inf.variance_used


def test_estimate_missing_column_exit1(tmp_path, capsys):
    csv_path = _write(tmp_path, "bad.csv", "y,x1\n1,2\n3,4\n")
    code = main(["estimate", "--input", csv_path])
    assert code == 1
    err = capsys.readouterr().err.strip()
    payload = json.loads(err)
    assert payload["error_code"] == "ParseError"
    assert "'a'" in payload["message"]


def test_estimate_unknown_column_exit1(tmp_path):
    csv_path = _write(tmp_path, "bad.csv", "y,a,x1,zz\n1,1,2,3\n3,0,4,5\n")
    assert main(["estimate", "--input", csv_path]) == 1


def test_estimate_malformed_number_exit1(tmp_path):
    csv_path = _write(tmp_path, "bad.csv", "y,a,x1\n1,1,2\noops,0,4\n")
    assert main(["estimate", "--input", csv_path]) == 1


def test_estimate_validation_error_exit2(tmp_path, capsys):
    csv_path = _write(tmp_path, "degenerate.csv", "y,a\n1,1\n2,1\n")
    code = main(["estimate", "--input", csv_path])
    assert code == 2
    payload = json.loads(capsys.readouterr().err.strip())
    assert payload["error_code"] == "DegenerateTreatment"


def test_estimate_numeric_error_exit3(tmp_path, capsys, monkeypatch):
    csv_path = _write(tmp_path, "data.csv", WORKED_CSV)
    import treated.cli as cli_mod

    def boom(*args, **kwargs):
        raise IrlsDivergedError("synthetic divergence")

    monkeypatch.setattr(cli_mod, "estimate_all", boom)
    code = main(["estimate", "--input", csv_path])
    assert code == 3
    payload = json.loads(capsys.readouterr().err.strip())
    assert payload["error_code"] == "IrlsDiverged"


@pytest.mark.parametrize("estimands", ["patt", "matt", "all"])
def test_estimate_overflowing_scores_exit3(tmp_path, capsys, estimands):
    # Finite outcomes near 1e200 overflow every squared score to inf/nan;
    # that is a numeric failure, never a success report with nulls.
    rng = np.random.default_rng(1)
    n = 400
    x = rng.standard_normal(n)
    a = (rng.random(n) < 0.5).astype(int)
    y = (1 + x + a + rng.standard_normal(n)) * 1e200
    rows = "\n".join(f"{float(y[i])!r},{a[i]},{float(x[i])!r}" for i in range(n))
    csv_path = _write(tmp_path, "huge.csv", "y,a,x1\n" + rows + "\n")
    with np.errstate(all="ignore"):
        code = main(["estimate", "--input", csv_path, "--estimands", estimands])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert json.loads(captured.err.strip().splitlines()[-1])["error_code"] == "NonFiniteEstimate"


def test_estimate_estimand_subset(tmp_path, capsys):
    csv_path = _write(tmp_path, "data.csv", WORKED_CSV)
    assert main(["estimate", "--input", csv_path, "--estimands", "patt,matt"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert set(out["per_kind"]) == {"patt", "matt"}


def test_estimate_fitted_nuisances(tmp_path, capsys):
    rng = np.random.default_rng(0)
    n = 2000
    x = rng.standard_normal(n)
    a = (rng.random(n) < 0.5).astype(int)
    y = 1 + x + a + rng.standard_normal(n)
    rows = "\n".join(f"{y[i]},{a[i]},{x[i]}" for i in range(n))
    csv_path = _write(tmp_path, "fit.csv", "y,a,x1\n" + rows + "\n")
    code = main(["estimate", "--input", csv_path, "--nuisance", "fitted",
                 "--folds", "2", "--seed", "7"])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert out["diagnostics"]["folds"] == 2
    assert abs(out["psi_hat"] - 1.0) < 0.2


@pytest.mark.parametrize("command", ["estimate", "simulate"])
@pytest.mark.parametrize("level", ["1.5", "1.0", "0.0", "nan"])
def test_out_of_range_ci_level_exit2(tmp_path, capsys, command, level):
    if command == "estimate":
        args = ["estimate", "--input", _write(tmp_path, "data.csv", WORKED_CSV)]
    else:
        spec_path = _write(tmp_path, "spec.json", json.dumps(_spec_json()))
        args = ["simulate", "--spec", spec_path, "--n", "200", "--reps", "3",
                "--patt-draws", "50000"]
    code = main(args + ["--ci-level", level])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert json.loads(captured.err.strip())["error_code"] == "Validation"


# ---------------------------------------------------------------------------
# simulate.

def test_simulate_byte_identical_outputs(tmp_path):
    spec_path = _write(tmp_path, "spec.json", json.dumps(_spec_json()))
    args = ["simulate", "--spec", spec_path, "--n", "200", "--reps", "8",
            "--seed", "5", "--oracle-nuisances", "--patt-draws", "50000"]
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    assert main(args + ["--output", str(out1)]) == 0
    assert main(args + ["--output", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    payload = json.loads(out1.read_text())
    assert payload["reps"] == 8
    assert set(payload["per_kind"]) == {"patt", "actt", "swatt", "catt", "satt", "matt"}


@pytest.mark.parametrize("n", ["-5", "0"])
def test_simulate_nonpositive_n_exit2(tmp_path, capsys, n):
    spec_path = _write(tmp_path, "spec.json", json.dumps(_spec_json()))
    code = main(["simulate", "--spec", spec_path, "--n", n, "--reps", "3"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    payload = json.loads(captured.err.strip())
    assert payload == {"error_code": "Validation", "message": "n must be >= 1"}


def test_simulate_single_rep(tmp_path, capsys):
    spec_path = _write(tmp_path, "spec.json", json.dumps(_spec_json()))
    code = main(["simulate", "--spec", spec_path, "--n", "200", "--reps", "1",
                 "--seed", "5", "--oracle-nuisances", "--patt-draws", "50000"])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert out["reps"] == 1
    assert out["extras"]["ordering"] == []
    # One replication has no Monte Carlo error: the se is null, not NaN.
    assert all(row["empirical_var_scaled_se"] is None for row in out["per_kind"].values())


def test_simulate_prints_ordering_verdict_line(tmp_path, capsys):
    spec_path = _write(tmp_path, "spec.json", json.dumps(_spec_json()))
    out_path = tmp_path / "mc.json"
    assert main(["simulate", "--spec", spec_path, "--n", "300", "--reps", "12",
                 "--seed", "5", "--oracle-nuisances", "--patt-draws", "50000",
                 "--output", str(out_path)]) == 0
    err = capsys.readouterr().err
    assert "ordering verdicts:" in err


def test_simulate_bad_schema_version_exit1(tmp_path):
    bad = _spec_json()
    bad["schema_version"] = 2
    spec_path = _write(tmp_path, "spec.json", json.dumps(bad))
    assert main(["simulate", "--spec", spec_path, "--n", "100", "--reps", "2"]) == 1


def test_simulate_malformed_json_exit1(tmp_path):
    spec_path = _write(tmp_path, "spec.json", "{not json")
    assert main(["simulate", "--spec", spec_path, "--n", "100", "--reps", "2"]) == 1


# ---------------------------------------------------------------------------
# oracle.

def test_oracle_command(tmp_path, capsys):
    spec_path = _write(tmp_path, "spec.json", json.dumps(_spec_json()))
    code = main(["oracle", "--spec", spec_path, "--draws", "100000", "--seed", "3"])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    table = out["asymptotic_variances"]
    assert set(table) == {"patt", "actt", "swatt", "catt", "satt", "matt"}
    for row in table.values():
        assert row["value"] >= 0.0 and row["se"] >= 0.0
    # delta(x) = 1 + 0.5 x, propensity increasing in x: psi slightly above 1
    assert out["psi_patt"]["value"] == pytest.approx(1.08, abs=0.1)


def test_oracle_zero_draws_exit1(tmp_path, capsys):
    spec_path = _write(tmp_path, "spec.json", json.dumps(_spec_json()))
    assert main(["oracle", "--spec", spec_path, "--draws", "0"]) == 1
    payload = json.loads(capsys.readouterr().err.strip())
    assert payload["error_code"] == "ParseError"


def test_oracle_single_draw_prints_null_se(tmp_path, capsys):
    spec_path = _write(tmp_path, "spec.json", json.dumps(_spec_json()))
    assert main(["oracle", "--spec", spec_path, "--draws", "1"]) == 0
    text = capsys.readouterr().out
    out = json.loads(text)
    rows = [out["psi_patt"], out["sigma_bound"], *out["asymptotic_variances"].values()]
    assert all(row["se"] is None for row in rows)
    assert text.count('"se": null') == len(rows)


def test_oracle_non_finite_value_exit3(tmp_path, capsys, monkeypatch):
    import treated.cli as cli_mod

    real = cli_mod.oracle_asymptotic_variances

    def nan_patt(*args, **kwargs):
        orc = real(*args, **kwargs)
        return dataclasses.replace(orc, patt=orc.patt._replace(value=float("nan")))

    monkeypatch.setattr(cli_mod, "oracle_asymptotic_variances", nan_patt)
    spec_path = _write(tmp_path, "spec.json", json.dumps(_spec_json()))
    assert main(["oracle", "--spec", spec_path, "--draws", "1000"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err.strip())["error_code"] == "NonFiniteEstimate"


def test_oracle_homogeneous_effect_psi_equals_constant(tmp_path, capsys):
    spec = _spec_json()
    spec["mu1_coeffs"] = [3.5, 1.0]  # mu1 - mu0 = 2.5 everywhere
    spec_path = _write(tmp_path, "spec.json", json.dumps(spec))
    assert main(["oracle", "--spec", spec_path, "--draws", "50000"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["psi_patt"]["value"] == pytest.approx(2.5, rel=1e-12)


# ---------------------------------------------------------------------------
# module execution and canonical JSON.

def test_module_entrypoint_runs():
    proc = subprocess.run([sys.executable, "-m", "treated", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "estimate" in proc.stdout


def test_cli_import_leaves_the_pool_modules_unloaded():
    # The worker pool imports them only when it starts, so every command's
    # start-up stays free of their import time.
    code = ("import sys, treated.cli; "
            "print(sorted({'concurrent.futures', 'multiprocessing'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_bad_flags_emit_error_code(capsys):
    code = main(["simulate", "--reps", "3"])  # --spec and --n missing
    assert code == 1
    err_lines = [l for l in capsys.readouterr().err.splitlines() if l.strip()]
    payload = json.loads(err_lines[-1])
    assert payload["error_code"] == "ParseError"


def test_canonical_json_float_format():
    text = dumps_canonical({"x": 7 / 6, "i": 3, "flag": True, "none": None})
    assert '"x": 1.1666666666666667' in text
    assert '"i": 3' in text
    parsed = json.loads(text)
    assert parsed["x"] == 7 / 6  # 17 significant digits round-trip losslessly


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -np.inf, np.float64("nan")])
def test_canonical_json_refuses_non_finite_floats(value):
    with pytest.raises(NonFiniteEstimateError):
        dumps_canonical({"ok": 1.0, "nested": [{"bad": value}]})
