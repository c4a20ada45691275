"""Benchmark of the ``treated`` command line: three workloads, end-to-end
metrics from untraced runs and per-layer metrics from a traced run.

Usage (from the repository root)::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Each operation is one fresh child process running ``treated.cli.main`` on
inputs made from ``--seed``. Children are started one after another (a closed
loop with one client) until ``--seconds`` have passed, and every metric is
the median over the children of the run. With ``--trace 0`` the children run
untraced and the end-to-end metrics of ``BENCHMARK.json`` are reported. With
``--trace 1`` untraced and traced children alternate, and the per-layer
metrics are reported. Every report is checked for correctness and every
child of a run must write the same bytes. The second-to-last line of
standard output records the environment, inputs and per-child samples; the
last line is the result. ``--smoke`` shrinks every workload to a size that
runs in about a second.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import sys
import threading
import time
from collections import Counter
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

import checks
import reference
import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD = HERE / "child.py"
WORK = ROOT / ".perfbench_work"
# The whole run must end well inside the 180 s a run is allowed.
HARD_LIMIT_S = 150.0


@dataclass(frozen=True)
class Workload:
    command: str  # estimate | simulate | oracle
    n: int = 0
    reps: int = 0
    folds: int = 1
    draws: int = 0
    oracle_nuisances: bool = False

    @property
    def items(self) -> int:
        """Work done by one run: input rows, replications or oracle draws."""
        return {"estimate": self.n, "simulate": self.reps, "oracle": self.draws}[self.command]

    @property
    def fits_nuisances(self) -> bool:
        return self.command != "oracle" and not self.oracle_nuisances


WORKLOADS = {
    "estimate_crossfit": Workload("estimate", n=200_000, folds=5),
    "simulate_oracle": Workload("simulate", n=20_000, reps=300, oracle_nuisances=True),
    "oracle_bruteforce": Workload("oracle", draws=10_000_000),
}
SMOKE = {
    "estimate_crossfit": {"n": 2_000},
    "simulate_oracle": {"n": 2_000, "reps": 40},
    "oracle_bruteforce": {"draws": 200_000},
}

LABELS = {
    "nuisance.fit_propensity_s": "derived: direct fit_propensity time on one fold "
                                 "complement times the number of fits",
    "nuisance.fit_outcome_mean_s": "derived: as fit_propensity_s, both arms",
    "nuisance.fit_conditional_sd_s": "derived: as fit_propensity_s, both arms",
    "nuisance.irls_iters": "len(ll_trace) - 1 of the direct fit_propensity call",
    "nuisance.fold_overhead_s": "derived: compute_s minus the three fit totals",
    "estimator.kernel_bytes_computed": "computed from the sizes of the arrays "
                                       "each kernel call reads, not measured",
    "trace.overhead_s": "median traced wall_s minus median untraced wall_s",
    "trace.unattributed_s": "command time not covered by any top-level span",
}


# ---------------------------------------------------------------------------
# Child processes.

@dataclass
class ChildRun:
    rc: int
    wall_s: float
    cpu_s: float
    rss_mib: float
    result: dict
    spawn_ns: int
    stderr: str
    output: bytes = b""

    def mark_s(self, name: str) -> float:
        return (self.result["marks"][name] - self.spawn_ns) / 1e9

    @property
    def setup_s(self) -> float:
        return self.mark_s("parsed")


def _run(argv: list, timeout: float, file_actions=()):
    """Run ``argv`` to completion, killing it past ``timeout``.

    Returns the wait status, the child's rusage, the monotonic spawn time in
    ns and the wall time in seconds."""
    spawn_ns = time.monotonic_ns()
    pid = os.posix_spawn(sys.executable, argv, os.environ, file_actions=list(file_actions))
    killer = threading.Timer(max(timeout, 1.0), os.kill, (pid, signal.SIGKILL))
    killer.start()
    try:
        _, status, usage = os.wait4(pid, 0)
    finally:
        killer.cancel()
    return status, usage, spawn_ns, (time.monotonic_ns() - spawn_ns) / 1e9


def spawn(argv: list, work: Path, timeout: float) -> ChildRun:
    """Run one ``child.py`` to completion and collect what it recorded."""
    result_path, err_path = work / "child.json", work / "child.stderr"
    result_path.unlink(missing_ok=True)
    actions = [
        (os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0),
        (os.POSIX_SPAWN_OPEN, 2, str(err_path), os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
    ]
    full = [sys.executable, str(CHILD), str(result_path), str(SRC), *argv]
    status, usage, spawn_ns, wall = _run(full, timeout, actions)
    try:
        result = json.loads(result_path.read_text())
    except (OSError, ValueError):
        result = {}
    return ChildRun(
        rc=os.waitstatus_to_exitcode(status),
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        rss_mib=usage.ru_maxrss / 1024.0,
        result=result,
        spawn_ns=spawn_ns,
        stderr=err_path.read_text(errors="replace")[-2000:],
    )


# A fixed program that exercises what the CLI's run time depends on:
# interpreter start, imports, numpy kernels and interpreted loops. It never
# imports the package, so no change to the package can move its time.
PROBE_CODE = """\
import argparse, csv, json
import numpy as np
a = np.linspace(-3.0, 3.0, 200_000)
for _ in range(10):
    a = np.sort(np.exp(np.sin(a)))
b = np.linspace(-3.0, 3.0, 2000)
for _ in range(600):
    b = np.exp(np.sin(b)) * 0.5
s = 0
for i in range(200_000):
    s += i * i
"""
# Median time of the probe on the reference machine (see README.md).
PROBE_REF_S = 0.3


def probe(timeout: float) -> float:
    """Wall time of one run of PROBE_CODE in a fresh interpreter."""
    return _run([sys.executable, "-c", PROBE_CODE], timeout)[3]


def repeat(run_one, seconds: float, min_runs: int, started: float):
    """Call ``run_one(time_left)``, which returns its duration, back to back
    for ``seconds`` (at least ``min_runs`` times), never starting a call that
    would likely end past the hard limit."""
    durations, t0 = [], time.monotonic()
    while True:
        now = time.monotonic()
        if durations and now - t0 >= seconds and len(durations) >= min_runs:
            return
        remaining = HARD_LIMIT_S - (now - started)
        if durations and max(durations) > remaining:
            return
        durations.append(run_one(remaining))


# ---------------------------------------------------------------------------
# Inputs, operations and checks.

class Bench:
    def __init__(self, name: str, workload: Workload, seed: int, work: Path):
        self.w, self.seed, self.work = workload, seed, work
        self.consts = reference.population_constants()
        self.record = {"seed": seed, "workload": name, "settings": workload.__dict__}
        spec_path = work / "continuous_d2.json"
        spec_path.write_text(json.dumps(reference.SPEC, indent=2))
        self.out_path = work / "report.json"
        w = workload
        if w.command == "estimate":
            csv_path = work / "input.csv"
            self.record["input_csv_sha256"] = reference.write_csv(csv_path, w.n, seed)
            args = ["estimate", "--input", str(csv_path), "--nuisance", "fitted",
                    "--folds", str(w.folds), "--estimands", "all"]
        elif w.command == "simulate":
            args = ["simulate", "--spec", str(spec_path), "--n", str(w.n), "--reps", str(w.reps)]
            args += ["--oracle-nuisances"] if w.oracle_nuisances else ["--folds", str(w.folds)]
        else:
            args = ["oracle", "--spec", str(spec_path), "--draws", str(w.draws)]
        self.cli_args = args + ["--seed", str(seed), "--output", str(self.out_path)]
        self.record["cli_args"] = self.cli_args
        self.hashes = Counter()
        self.failures = []
        self.attempted = self.failed = 0

    def run_cli(self, timeout: float, trace: bool = False) -> ChildRun:
        self.out_path.unlink(missing_ok=True)
        flag = "--trace" if trace else "--no-trace"
        child = spawn(["cli", flag, "--", *self.cli_args], self.work, timeout)
        if self.out_path.exists():
            child.output = self.out_path.read_bytes()
        self._account(child)
        return child

    def _account(self, child: ChildRun):
        """Check one child's report and count its operations."""
        w = self.w
        attempted = w.reps if w.command == "simulate" else 1
        problems = []
        report = None
        if child.rc != 0:
            problems.append(f"exit code {child.rc}: {child.stderr.strip()[-500:]}")
        elif "marks" not in child.result:
            problems.append("child wrote no timing marks")
        else:
            try:
                report = json.loads(child.output)
            except ValueError:
                problems.append("report is not JSON")
        if report is not None:
            if w.command == "estimate":
                problems += checks.check_estimate(report, self.consts, w.n)
            elif w.command == "simulate":
                problems += checks.check_simulate(report, self.consts, w.reps)
            else:
                problems += checks.check_oracle(report, self.consts, w.draws)
            digest = hashlib.sha256(child.output).hexdigest()
            self.hashes[digest] += 1
            first = next(iter(self.hashes))
            if digest != first:
                problems.append(f"output sha256 {digest} differs from the run's first {first}")
        self.attempted += attempted
        if problems:
            self.failed += attempted
            self.failures.extend(problems)
        elif w.command == "simulate":
            self.failed += int(report.get("failed_reps", 0))

    def run_fitters(self, timeout: float) -> dict:
        n_complement = self.w.n - self.w.n // self.w.folds if self.w.folds > 1 else self.w.n
        repeats = min(100, max(3, 1_000_000 // n_complement))
        child = spawn(["fitters", str(n_complement), str(self.seed), str(repeats)],
                      self.work, timeout)
        if child.rc != 0 or not child.result:
            self.failures.append(f"fitter timing failed: {child.stderr.strip()[-500:]}")
            return {}
        return child.result


# ---------------------------------------------------------------------------
# Metrics.

def median(values):
    return statistics.median(values) if values else 0.0


def end_to_end(bench: Bench, runs: list, slowdown: float) -> dict:
    """Medians over the run's children, with times divided by ``slowdown``."""
    items = bench.w.items
    return {
        "wall_s": median([r.wall_s for r in runs]) / slowdown,
        "setup_s": median([r.setup_s for r in runs if r.result]) / slowdown,
        "items_per_s": slowdown * median([items / (r.wall_s - r.setup_s)
                                       for r in runs if r.result]),
        "peak_rss_mib": median([r.rss_mib for r in runs]),
        "ok_share": 1.0 - bench.failed / bench.attempted,
    }


def _has_ancestor(spans, i, names) -> bool:
    p = spans[i][3]
    while p >= 0:
        if spans[p][0] in names:
            return True
        p = spans[p][3]
    return False


def span_metrics(bench: Bench, child: ChildRun) -> dict:
    """Per-layer metrics of one traced child, in seconds and counts."""
    spans = child.result.get("spans", [])
    dur = [(end - start) / 1e9 for _, start, end, _ in spans]
    below = [0.0] * len(spans)
    for i, span in enumerate(spans):
        if span[3] >= 0:
            below[span[3]] += dur[i]
    incl, own, calls = Counter(), Counter(), Counter()
    for i, span in enumerate(spans):
        incl[span[0]] += dur[i]
        own[span[0]] += dur[i] - below[i]
        calls[span[0]] += 1
    kernels = {"estimator." + k for k in tracer.KERNELS}
    kernel_s = sum(dur[i] for i, s in enumerate(spans)
                   if s[0] in kernels and not _has_ancestor(spans, i, kernels))
    gen = {"simulation.generate"}
    props_in_generate = sum(1 for i, s in enumerate(spans)
                            if s[0] == "simulation.DgpSpec.propensity"
                            and _has_ancestor(spans, i, gen))
    root_s = sum(dur[i] for i, s in enumerate(spans) if s[3] < 0)
    marks = child.result["marks"]
    command_s = (marks["main_end"] - marks["parsed"]) / 1e9

    def per(a, b):
        return a / b if b else 0.0

    report = json.loads(child.output) if child.output else {}
    read_s = incl["cli.read_csv_dataset"]
    oracle_s = incl["simulation.oracle_asymptotic_variances"]
    compute = "nuisance.compute_nuisances"
    estimates = calls["estimator.estimate_all"]
    return {
        "cli.read_csv_s": read_s,
        "cli.read_csv_rows_per_s": per(bench.w.n, read_s),
        "cli.dumps_s": incl["cli.dumps_canonical"],
        "cli.output_bytes": len(child.output),
        "data_model.dataset_s": incl["data_model.Dataset"],
        "data_model.nuisance_values_s": incl["data_model.NuisanceValues"],
        "nuisance.compute_s": incl[compute],
        "nuisance.compute_calls": calls[compute],
        "nuisance.compute_ms_per_call": 1e3 * per(incl[compute], calls[compute]),
        "estimator.self_s": incl["estimator.estimate_all"] - incl[compute],
        "estimator.kernel_s": kernel_s,
        "estimator.kernel_bytes_computed": sum(
            v for k, v in child.result.get("counts", {}).items() if k.endswith(".bytes")),
        "estimator.var_actt_per_estimate": per(calls["estimator.var_actt"], estimates),
        "estimator.if_components_per_estimate": per(calls["estimator.if_components"], estimates),
        "simulation.generate_s": incl["simulation.generate"],
        "simulation.propensity_evals_per_generate": per(props_in_generate,
                                                        calls["simulation.generate"]),
        "simulation.truths_s": incl["simulation.true_sample_estimands"]
                               + incl["simulation.psi_tilde"],
        "simulation.psi_patt_true_s": incl["simulation.psi_patt_true"],
        "simulation.mc_overhead_s": own["simulation.run_monte_carlo"],
        "simulation.reps_attempted": report.get("reps", 0),
        "simulation.reps_failed": report.get("failed_reps", 0),
        "simulation.oracle_s": oracle_s,
        "simulation.oracle_draws_per_s": per(bench.w.draws, oracle_s),
        "mathutil.expit_s": incl["mathutil.expit"],
        "mathutil.expit_calls": calls["mathutil.expit"],
        "trace.unattributed_s": command_s - root_s,
        "trace.spans": len(spans),
    }


def fitter_metrics(bench: Bench, compute_s: float, compute_calls: float, fit: dict) -> dict:
    fits = compute_calls * bench.w.folds
    out = {
        "nuisance.fit_propensity_s": fits * fit.get("propensity", 0.0),
        "nuisance.fit_outcome_mean_s": fits * fit.get("outcome_mean", 0.0),
        "nuisance.fit_conditional_sd_s": fits * fit.get("conditional_sd", 0.0),
        "nuisance.irls_iters": fit.get("irls_iters", 0),
    }
    fit_total = sum(v for k, v in out.items() if k.endswith("_s"))
    out["nuisance.fold_overhead_s"] = compute_s - fit_total if "propensity" in fit else 0.0
    return out


def per_layer(bench: Bench, plain: list, traced: list, fit: dict) -> dict:
    samples = [span_metrics(bench, c) for c in traced if c.result.get("spans") is not None]
    layer = {k: median([s[k] for s in samples]) for k in (samples[0] if samples else {})}
    layer.update(fitter_metrics(bench, layer.get("nuisance.compute_s", 0.0),
                                layer.get("nuisance.compute_calls", 0.0), fit))
    ok_plain = [r for r in plain if r.result]
    wall = median([r.wall_s for r in ok_plain])
    layer.update({
        "process.cpu_s": median([r.cpu_s for r in ok_plain]),
        "process.cpu_per_wall": median([r.cpu_s / r.wall_s for r in ok_plain]),
        "process.import_s": median([(r.result["marks"]["import_end"]
                                     - r.result["marks"]["import_begin"]) / 1e9
                                    for r in ok_plain]),
        "process.interp_s": median([r.mark_s("start") for r in ok_plain]),
        "trace.overhead_s": median([r.wall_s for r in traced]) - wall,
    })
    return layer


# ---------------------------------------------------------------------------
# Environment record.

def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):
        blas = {"name": "unknown", "version": "unknown"}
    try:
        l3 = Path("/sys/devices/system/cpu/cpu0/cache/index3/size").read_text().strip()
    except OSError:
        l3 = "unknown"
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "l3_cache": l3,
        "machine": platform.machine(),
    }


def emit(metrics: dict, specs: list, correct: bool, attempted: int, failed: int) -> dict:
    missing = [m["name"] for m in specs if m["name"] not in metrics]
    if missing and correct:
        raise SystemExit(f"metrics listed in BENCHMARK.json but not measured: {missing}")
    # A run whose children all failed has no samples; it reports zeros.
    metrics = {**dict.fromkeys(missing, 0.0), **metrics}
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": float(metrics[m["name"]]), "unit": m["unit"]}
                    for m in specs},
    }


def main(argv=None) -> int:
    started = time.monotonic()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, one child each")
    args = parser.parse_args(argv)

    if not (SRC / "treated" / "cli.py").is_file():
        print(f"perfbench: no package source at {SRC}", file=sys.stderr)
        return 2
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        print(f"perfbench: cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    if args.smoke:
        workload = replace(workload, **SMOKE[args.workload])
    min_runs = 1 if args.smoke else 3
    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    bench = Bench(args.workload, workload, args.seed, work)
    # One untimed child, so bytecode caches exist before timing.
    spawn(["cli", "--no-trace", "--", "--help"], work, HARD_LIMIT_S)
    plain, traced, probes = [], [], []
    if args.trace == 0:
        def run_one(remaining):
            probes.append(probe(remaining))
            plain.append(bench.run_cli(remaining))
            return probes[-1] + plain[-1].wall_s

        repeat(run_one, args.seconds, min_runs, started)
        # How much slower the machine runs than the reference: other tenants of
        # a shared host slow every process alike for minutes at a time.
        slowdown = median(probes) / PROBE_REF_S
        bench.record["slowdown"] = slowdown
        metrics = end_to_end(bench, plain, slowdown)
        specs = spec["end_to_end"]
    else:
        def run_pair(remaining):
            plain.append(bench.run_cli(remaining / 2))
            traced.append(bench.run_cli(remaining / 2, trace=True))
            return plain[-1].wall_s + traced[-1].wall_s

        repeat(run_pair, args.seconds, max(1, min_runs - 1), started)
        fit = {}
        if workload.fits_nuisances:
            fit = bench.run_fitters(HARD_LIMIT_S - (time.monotonic() - started))
        metrics = per_layer(bench, plain, traced, fit)
        specs = spec["per_layer"]
        absent = {a for c in traced for a in c.result.get("absent", [])}
        bench.record["absent_hooks"] = sorted(absent | set(fit.get("absent", [])))
        if traced and traced[-1].result.get("spans") is not None:
            (work / "spans.json").write_text(json.dumps(
                {"request": f"{args.workload}-{args.seed}", "spans": traced[-1].result["spans"]}))

    bench.record.update(
        environment=environment(),
        samples={"wall_s": [r.wall_s for r in plain],
                 "setup_s": [r.setup_s for r in plain if r.result],
                 "traced_wall_s": [r.wall_s for r in traced],
                 "probe_s": probes},
        output_sha256=dict(bench.hashes),
        failures=bench.failures[:20],
        labels=LABELS if args.trace else {},
    )
    print(json.dumps({"record": bench.record}))
    result = emit(metrics, specs, correct=not bench.failures,
                  attempted=bench.attempted, failed=bench.failed)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
