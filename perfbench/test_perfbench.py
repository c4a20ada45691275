"""Self-checks of the benchmark. Run from the repository root:

    python3 -m pytest perfbench -q

The workload tests use ``--smoke`` sizes, so the whole file runs in seconds.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import checks
import reference
import run
import tracer

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_smoke_workload_reports_every_metric(workload, trace):
    proc = _bench("--workload", workload, "--seed", "3", "--seconds", "0",
                  "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    *_, record_line, result_line = proc.stdout.strip().splitlines()
    result = json.loads(result_line)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], json.loads(record_line)["record"]["failures"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    listed = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in listed]
    for m in listed:
        value = result["metrics"][m["name"]]
        assert value["unit"] == m["unit"] and math.isfinite(value["value"])
    record = json.loads(record_line)["record"]
    assert record["seed"] == 3 and record["environment"]["nproc"] >= 1
    assert not record.get("absent_hooks")


def test_benchmark_json_is_well_formed():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "simulate_oracle", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0 and proc.stdout == ""


def test_quadrature_matches_monte_carlo():
    consts = reference.population_constants()
    y, a, x = reference.draw_units(1_000_000, seed=0)
    pi = reference.propensity(x)
    delta = reference._affine("mu1_coeffs", x) - reference._affine("mu0_coeffs", x)
    assert abs(pi.mean() - consts["p_a"]) < 5 * math.sqrt(consts["var_pi"] / pi.size)
    assert abs(pi.var() - consts["var_pi"]) < 1e-3
    att = (pi * delta).sum() / pi.sum()
    assert abs(att - consts["att"]) < 5e-3
    assert abs(a.mean() - consts["p_a"]) < 3e-3


def test_csv_is_a_pure_function_of_the_seed(tmp_path):
    h1 = reference.write_csv(tmp_path / "a.csv", 500, seed=9)
    h2 = reference.write_csv(tmp_path / "b.csv", 500, seed=9)
    h3 = reference.write_csv(tmp_path / "c.csv", 500, seed=10)
    assert h1 == h2 != h3
    data = np.loadtxt(tmp_path / "a.csv", delimiter=",", skiprows=1)
    y, a, x = reference.draw_units(500, seed=9)
    assert np.array_equal(data[:, 0], y) and np.array_equal(data[:, 2:], x)


def test_checks_reject_wrong_reports():
    consts = reference.population_constants()
    good = {"draws": 100, "p_a": consts["p_a"],
            "psi_patt": {"value": consts["att"], "se": 1e-3},
            "asymptotic_variances": {k: {"value": v} for k, v in
                                     zip(("matt", "catt", "actt", "patt"), (1, 2, 3, 4))}}
    assert checks.check_oracle(good, consts, 100) == []
    shifted = dict(good, psi_patt={"value": consts["att"] + 0.1, "se": 1e-3})
    assert checks.check_oracle(shifted, consts, 100)
    swapped = dict(good, asymptotic_variances={**good["asymptotic_variances"],
                                               "matt": {"value": 5}})
    assert checks.check_oracle(swapped, consts, 100)
    estimate = {"n": 1000, "psi_hat": consts["att"],
                "per_kind": {k: {"variance": 1.0, "ci_lower": 0.0, "ci_upper": 2.0}
                             for k in checks.POINT_IDENTIFIED + ("swatt",)}}
    assert checks.check_estimate(estimate, consts, 1000) == []
    estimate["per_kind"]["satt"]["variance"] = None
    assert checks.check_estimate(estimate, consts, 1000)


def test_tracer_restores_originals_and_reports_absent_targets():
    sys.path.insert(0, str(ROOT / "src"))
    import treated.cli
    import treated.simulation
    before = (treated.cli.read_csv_dataset, treated.simulation.DgpSpec.propensity)
    t = tracer.Tracer()
    tracer.install_package_hooks(t)
    t.hook("treated.cli", "no_such_name", "cli.none")
    assert treated.cli.read_csv_dataset is not before[0]
    assert t.absent == ["treated.cli.no_such_name"]
    t.uninstall()
    assert (treated.cli.read_csv_dataset, treated.simulation.DgpSpec.propensity) == before
