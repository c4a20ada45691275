"""Child process of the benchmark: one run of ``treated.cli.main``.

Usage::

    python3 perfbench/child.py RESULT_JSON SRC_DIR cli [--trace] -- CLI_ARGS...
    python3 perfbench/child.py RESULT_JSON SRC_DIR fitters N SEED REPEATS

``cli`` runs the command line once and records monotonic-clock marks: the
child's first statement, the import of ``treated.cli``, the return of
argument parsing (the moment the command starts its work) and the return of
``main``. With ``--trace`` it also wraps the package's public names in
spans (see ``tracer.py``) and removes them when the command ends.

``fitters`` times the public nuisance fitters directly on N rows drawn by the
benchmark's own generator, the size of one fold complement.

The result goes to RESULT_JSON; the exit code is the command's exit code.
"""

import time

T_START = time.monotonic_ns()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402


def _mark_parse_return(marks):
    """Record when argument parsing returns; the last return wins."""
    original = argparse.ArgumentParser.parse_args

    def parse_args(self, *args, **kwargs):
        try:
            return original(self, *args, **kwargs)
        finally:
            marks["parsed"] = time.monotonic_ns()

    argparse.ArgumentParser.parse_args = parse_args


def _import_package(src_dir):
    sys.path.insert(0, src_dir)
    t0 = time.monotonic_ns()
    import treated.cli
    t1 = time.monotonic_ns()
    where = os.path.dirname(os.path.realpath(treated.cli.__file__))
    if os.path.dirname(where) != os.path.realpath(src_dir):
        raise SystemExit(f"treated was imported from {where}, not from {src_dir}")
    return treated.cli, t0, t1


def run_cli(src_dir, trace, argv):
    marks = {"start": T_START}
    _mark_parse_return(marks)
    cli, marks["import_begin"], marks["import_end"] = _import_package(src_dir)
    result = {"marks": marks}
    tracer = None
    if trace:
        import tracer as tracing
        tracer = tracing.Tracer()
        tracing.install_package_hooks(tracer)
    marks["main_begin"] = time.monotonic_ns()
    try:
        rc = cli.main(argv)
    finally:
        marks["main_end"] = time.monotonic_ns()
        if tracer is not None:
            tracer.uninstall()
            result["spans"] = tracer.spans
            result["counts"] = dict(tracer.counts)
            result["absent"] = tracer.absent
    marks.setdefault("parsed", marks["main_begin"])
    return rc, result


def run_fitters(src_dir, n, seed, repeats):
    """Median time of each public fitter on one fold-complement-sized sample."""
    import reference
    _import_package(src_dir)
    from treated import nuisance
    from treated.data_model import Dataset

    names = ("fit_propensity", "fit_outcome_mean", "fit_conditional_sd")
    absent = [f"treated.nuisance.{name}" for name in names if not hasattr(nuisance, name)]
    if absent:
        return 0, {"absent": absent}
    y, a, x = reference.draw_units(n, seed)
    dataset = Dataset(y=y, a=a, x=x)
    config = nuisance.NuisanceConfig()
    samples = {"propensity": [], "outcome_mean": [], "conditional_sd": []}
    iters = 0
    for _ in range(repeats):
        t0 = time.perf_counter()
        model = nuisance.fit_propensity(dataset, config)
        t1 = time.perf_counter()
        means = [nuisance.fit_outcome_mean(dataset, arm, config) for arm in (0, 1)]
        t2 = time.perf_counter()
        for arm in (0, 1):
            nuisance.fit_conditional_sd(dataset, arm, means[arm], config)
        t3 = time.perf_counter()
        samples["propensity"].append(t1 - t0)
        samples["outcome_mean"].append(t2 - t1)
        samples["conditional_sd"].append(t3 - t2)
        iters = len(model.ll_trace) - 1
    result = {name: statistics.median(v) for name, v in samples.items()}
    result.update(irls_iters=iters, absent=[])
    return 0, result


def main(argv):
    out_path, src_dir, mode, *rest = argv
    if mode == "cli":
        trace = rest[0] == "--trace"
        cli_args = rest[rest.index("--") + 1:]
        rc, result = run_cli(src_dir, trace, cli_args)
    elif mode == "fitters":
        rc, result = run_fitters(src_dir, *(int(v) for v in rest))
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
