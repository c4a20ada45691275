"""Command-line front end: estimate from CSV, run simulations, run oracles.

Exit codes: 0 success, 1 parse error, 2 validation error, 3 numeric failure.
Every error path writes a single JSON line with an ``error_code`` field to
stderr. Reports are emitted as JSON with stable key ordering and floats
serialized to 17 significant digits so values round-trip bit-exactly; output
is a pure function of the input bytes and flags.

CSV input schema (UTF-8, comma-separated, ``.`` decimal): required columns
``y`` and ``a``, covariates ``x1..xd``, optional oracle-nuisance columns
``pi, mu0, mu1, sigma0, sigma1``.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import mmap
import os
import sys
import warnings
from typing import Optional

import numpy as np

from .data_model import Dataset, EstimandKind, EstimateReport, NuisanceValues, OutcomeKind, KIND_ORDER
from .errors import NonFiniteEstimateError, NumericError, TreatedError, ValidationError
from .mathutil import _chunked, shared_empty
from .nuisance import NuisanceConfig
from .estimator import estimate_all
from .simulation import (
    DgpSpec,
    McReport,
    OracleVariances,
    OrderingVerdict,
    oracle_asymptotic_variances,
    run_monte_carlo,
)

REPORT_SCHEMA_VERSION = 1


class CliParseError(Exception):
    """Unreadable input: malformed CSV/JSON, unknown columns, bad flag values."""


# ---------------------------------------------------------------------------
# Canonical JSON: ordered keys, two-space indent, 17-significant-digit floats.

def _format_float(x: float) -> str:
    if not math.isfinite(x):
        raise NonFiniteEstimateError(f"cannot serialize the non-finite float {x}")
    s = format(x, ".17g")
    # Normalize bare integers so the token stays a JSON number with float type.
    if "e" not in s and "E" not in s and "." not in s:
        s += ".0"
    return s


def dumps_canonical(obj) -> str:
    out = io.StringIO()

    def emit(o, depth):
        pad = "  " * depth
        if o is None:
            out.write("null")
        elif isinstance(o, (bool, np.bool_)):
            out.write("true" if o else "false")
        elif isinstance(o, (int, np.integer)):
            out.write(str(int(o)))
        elif isinstance(o, (float, np.floating)):
            out.write(_format_float(float(o)))
        elif isinstance(o, str):
            out.write(json.dumps(o))
        elif isinstance(o, dict):
            if not o:
                out.write("{}")
                return
            out.write("{\n")
            items = list(o.items())
            for i, (k, v) in enumerate(items):
                out.write(pad + "  " + json.dumps(str(k)) + ": ")
                emit(v, depth + 1)
                out.write(",\n" if i < len(items) - 1 else "\n")
            out.write(pad + "}")
        elif isinstance(o, (list, tuple)):
            seq = list(o)
            if not seq:
                out.write("[]")
                return
            out.write("[\n")
            for i, v in enumerate(seq):
                out.write(pad + "  ")
                emit(v, depth + 1)
                out.write(",\n" if i < len(seq) - 1 else "\n")
            out.write(pad + "]")
        else:
            raise TypeError(f"cannot serialize {type(o)!r}")

    emit(obj, 0)
    out.write("\n")
    return out.getvalue()


# ---------------------------------------------------------------------------
# CSV ingestion.

_ORACLE_COLUMNS = ("pi", "mu0", "mu1", "sigma0", "sigma1")


def read_csv_dataset(path: str, outcome_kind: OutcomeKind):
    """Parse the CSV schema into a Dataset plus any oracle nuisance columns."""
    try:
        with open(path, "rb") as fh:
            buffer = _read_buffer(fh)
        try:
            columns = _loadtxt_columns(buffer)
            if columns is None:
                columns = _scan_columns(str(buffer, "utf-8-sig"))
        finally:
            if not isinstance(buffer, bytes):
                buffer.close()  # unmap the file
    except OSError as exc:
        raise CliParseError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise CliParseError(f"cannot read {path}: not UTF-8 ({exc})") from exc
    except csv.Error as exc:
        raise CliParseError(f"cannot parse {path}: {exc}") from exc
    y = columns.pop("y")
    a = columns.pop("a")
    x_names = [name for name in columns if name.startswith("x")]
    x = (np.column_stack([columns.pop(name) for name in x_names]) if x_names
         else np.empty((len(y), 0)))
    dataset = Dataset(y=y, a=a, x=x, outcome_kind=outcome_kind)
    return dataset, columns


def _read_buffer(fh):
    """The open file's bytes: a read-only mapping of the file, or where it
    cannot be mapped (a pipe, an empty file) everything read from it once."""
    try:
        return mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
    except (OSError, ValueError):
        return fh.read()


def _check_header(header: list) -> list:
    """Reject a malformed header; return its column names in reading order."""
    for required in ("y", "a"):
        if required not in header:
            raise CliParseError(f"missing required column '{required}'")
    if len(set(header)) != len(header):
        raise CliParseError("duplicate column names")
    x_names = sorted((h for h in header if h.startswith("x")),
                     key=lambda s: (len(s), s))
    d = len(x_names)
    expected_x = [f"x{i}" for i in range(1, d + 1)]
    if x_names != expected_x:
        raise CliParseError(
            f"covariate columns must be named x1..x{d}; got {x_names}"
        )
    known = {"y", "a", *expected_x, *_ORACLE_COLUMNS}
    unknown = [h for h in header if h not in known]
    if unknown:
        raise CliParseError(f"unknown columns {unknown}")
    return ["y", "a", *expected_x, *(name for name in _ORACLE_COLUMNS if name in header)]


def _read_header(buffer) -> tuple:
    """The header line's names, the column names in reading order and the
    offset where the body starts; raises ValueError on a header the scan must
    see."""
    line = next(_lines(buffer, 0, len(buffer)), "")
    # A quoted header may span lines; an empty file has no header line.
    if not line or '"' in line:
        raise ValueError("no plain header line")
    header = [h.strip() for h in next(csv.reader([line.removeprefix("\ufeff").rstrip("\r\n")]))]
    return header, _check_header(header), len(line.encode())


def _lines(buffer, lo: int, hi: int):
    """The lines of ``buffer[lo:hi]``, split at ``\n``, ``\r\n`` or ``\r``,
    decoded a block at a time; each block ends at the first line end at
    least csv's field limit past its start. A line over that limit raises
    ValueError."""
    limit = csv.field_size_limit()
    while lo < hi:
        # After a "\r" a "\n" would have been found first: no "\r\n" is split.
        cut = (buffer.find(b"\n", lo + limit, hi) + 1 or buffer.find(b"\r", lo + limit, hi) + 1
               or hi)
        lines = io.StringIO(str(buffer[lo:cut], "utf-8"), newline="").readlines()
        if max(map(len, lines)) > limit:
            raise ValueError("line over the csv field limit")
        yield from lines
        lo = cut


def _loadtxt(buffer, lo: int, hi: int) -> np.ndarray:
    """The cells of ``buffer[lo:hi]`` as a 2-d float table, in one np.loadtxt
    call.

    loadtxt refuses every cell that float() would read differently (digit
    separators, non-ASCII digits, a stray quote, ...), so a range it accepts
    gives the scan's numbers bit for bit.
    """
    with warnings.catch_warnings():
        # On a range with no data loadtxt warns instead of raising.
        warnings.simplefilter("ignore", UserWarning)
        return np.loadtxt(_lines(buffer, lo, hi), dtype=float, delimiter=",", comments=None,
                          quotechar='"', ndmin=2)


# Buffers of at least this many bytes are parsed in byte ranges on the pool
# (see _loadtxt_columns); below it a pool's start costs about what it saves.
# On d = 2 files (2 vCPUs, medians of 10 alternating pairs), `treated estimate
# --nuisance fitted --folds 5` took 444 ms whole-file against 430 ms ranged on
# 2.0 MB (33,000 rows), and 508 against 472 ms on 4.0 MB (66,000 rows).
INGEST_POOL_BYTES = 4_000_000
# Byte ranges of a pooled parse. Their ends do not depend on the worker count.
_INGEST_RANGES = 8


def _loadtxt_columns(buffer) -> Optional[dict]:
    """Parse the body with np.loadtxt in byte ranges; None leaves the file to
    the scan.

    A buffer of at least ``INGEST_POOL_BYTES`` whose body holds no ``"`` is
    cut into ``_INGEST_RANGES`` ranges, parsed on the pool; any other body is
    one range, parsed here, since a quoted cell may hold a line break that a
    cut would split. Workers inherit the buffer, write their rows into a
    ``shared_empty`` table and send back row counts. A row of ``width`` cells
    takes at least ``2 * width`` bytes with its line end, which bounds each
    range's slot of the table; pages no row reaches stay untouched. Each
    range's rows then move down over the gap before it, and the columns are
    views of the table.

    A refused range, a table that cannot be made and a body without rows are
    left to the scan, as is anything else the scan would word as an error, a
    bad header or a line over csv's field limit included. So is a decoding
    error: decoding the whole file reports it at its offset in the file, not
    in a line.
    """
    try:
        header, names, body = _read_header(buffer)
    except (ValueError, CliParseError, csv.Error):
        return None
    width = len(header)
    pooled = len(buffer) >= INGEST_POOL_BYTES and buffer.find(b'"', body) < 0
    cuts = _cut_points(buffer, body, _INGEST_RANGES if pooled else 1)
    slots = [0]
    for lo, hi in zip(cuts, cuts[1:]):
        slots.append(slots[-1] + (hi - lo + 1) // (2 * width))
    try:
        table = shared_empty((slots[-1], width))
    except MemoryError:
        return None
    counts = _chunked(_parse_ranges, (buffer, cuts, slots, table), len(cuts) - 1, pooled=pooled)
    if None in counts or sum(counts) == 0:
        return None
    rows = 0
    for slot, count in zip(slots, counts):
        table[rows:rows + count] = table[slot:slot + count]
        rows += count
    return {name: table[:rows, header.index(name)] for name in names}


def _cut_points(buffer, start: int, ranges: int) -> list:
    """Offsets [start, ..., len(buffer)] splitting ``buffer[start:]`` into at
    most ``ranges`` ranges of whole lines: each inner cut falls just after a
    ``\n``, the first at or after its even share of the buffer."""
    size = len(buffer)
    cuts = [start]
    for i in range(1, ranges):
        end = buffer.find(b"\n", max(size * i // ranges, cuts[-1]))
        if end < 0:
            break  # no line end after this point: the last range runs to the end
        cuts.append(end + 1)
    if cuts[-1] != size:
        cuts.append(size)
    return cuts


def _parse_ranges(buffer, cuts, slots, table, lo, hi):
    """For each byte range [cuts[i], cuts[i+1]) of ``buffer`` with i in
    [lo, hi), write its rows to ``table`` from row ``slots[i]`` on and yield
    their count; yield None for a range that np.loadtxt refuses, that has the
    wrong width or more rows than its slot, and then stop."""
    for i in range(lo, hi):
        try:
            part = _loadtxt(buffer, cuts[i], cuts[i + 1])
        except ValueError:
            yield None
            return
        rows = part.shape[0]
        if rows and (part.shape[1] != table.shape[1] or rows > slots[i + 1] - slots[i]):
            yield None
            return
        table[slots[i]:slots[i] + rows] = part
        yield rows


def _scan_columns(text: str) -> dict:
    """Read the file cell by cell with float(); words the error for a bad cell."""
    rows = list(csv.reader(io.StringIO(text, newline="")))
    if not rows:
        raise CliParseError("empty CSV file")
    header = [h.strip() for h in rows[0]]
    names = _check_header(header)
    # Rows are numbered by record, blank ones included, with the header as row 1.
    body = [(number, r) for number, r in enumerate(rows[1:], start=2)
            if r and any(cell.strip() for cell in r)]
    if not body:
        raise CliParseError("CSV has a header but no data rows")

    def column(name):
        col = np.empty(len(body))
        j = header.index(name)
        for i, (number, row) in enumerate(body):
            if len(row) != len(header):
                raise CliParseError(f"row {number} has {len(row)} cells, expected {len(header)}")
            cell = row[j].strip()
            try:
                col[i] = float(cell)
            except ValueError as exc:
                raise CliParseError(f"row {number}, column '{name}': bad number {cell!r}") from exc
        return col

    return {name: column(name) for name in names}


def _oracle_values(dataset: Dataset, cols: dict, clip_eps: float) -> Optional[NuisanceValues]:
    if not cols:
        return None
    if "pi" not in cols or "mu0" not in cols:
        raise ValidationError("oracle nuisances need at least the 'pi' and 'mu0' columns")
    # A lone sd column is carried but unused: the sigma variant needs both.
    return NuisanceValues(
        pi_hat=np.clip(cols["pi"], clip_eps, 1.0 - clip_eps),
        mu0_hat=cols["mu0"],
        mu1_hat=cols.get("mu1"),
        sigma0_hat=cols.get("sigma0"),
        sigma1_hat=cols.get("sigma1"),
        clip_eps=clip_eps,
    )


# ---------------------------------------------------------------------------
# Report serialization.

def _se(value: float) -> Optional[float]:
    """A Monte Carlo standard error; NaN (one batch or one replication) is null."""
    return None if math.isnan(value) else value


def report_to_dict(report: EstimateReport) -> dict:
    per_kind = {}
    for kind in KIND_ORDER:
        if kind not in report.per_kind:
            continue
        inf = report.per_kind[kind]
        if inf.variance is not None:
            entry = {"variance": inf.variance}
        else:
            entry = {
                "conservative_simple": inf.conservative_simple,
                "conservative_sigma": inf.conservative_sigma,
                "conservative_fh": inf.conservative_fh,
                "variance_used": inf.variance_used,
            }
        entry["ci_lower"] = inf.ci_lower
        entry["ci_upper"] = inf.ci_upper
        per_kind[kind.value] = entry
    return {
        "schema_version": REPORT_SCHEMA_VERSION,
        "psi_hat": report.psi_hat,
        "n": report.n,
        "p_n_a": report.p_n_a,
        "ci_level": report.ci_level,
        "per_kind": per_kind,
        "diagnostics": dict(report.diagnostics),
    }


def _verdict_to_dict(v: OrderingVerdict) -> dict:
    return {
        "pair": f"{v.kind_small.value}<={v.kind_large.value}",
        "scaled_diff": v.scaled_diff,
        "scaled_se": v.scaled_se,
        "holds": v.holds,
    }


def mc_report_to_dict(report: McReport) -> dict:
    per_kind = {}
    for kind in KIND_ORDER:
        st = report.per_kind[kind]
        per_kind[kind.value] = {
            "empirical_var_scaled": st.empirical_var_scaled,
            "empirical_var_scaled_se": _se(st.empirical_var_scaled_se),
            "mean_variance_estimate": st.mean_variance_estimate,
            "coverage": st.coverage,
            "ci_level": st.ci_level,
        }
    extras = {}
    for key, value in report.extras.items():
        if key == "ordering":
            extras[key] = [_verdict_to_dict(v) for v in value]
        elif key == "satt_vs_patt":
            extras[key] = _verdict_to_dict(value) if value is not None else None
        elif key == "psi_patt_se":
            extras[key] = _se(value)
        else:
            extras[key] = value
    return {
        "schema_version": REPORT_SCHEMA_VERSION,
        "n": report.n,
        "reps": report.reps,
        "seed": report.seed,
        "ci_level": report.ci_level,
        "failed_reps": report.failed_reps,
        "failure_messages": list(report.failure_messages),
        "per_kind": per_kind,
        "extras": extras,
    }


def oracle_to_dict(oracle: OracleVariances, seed: int) -> dict:
    def mc(v):
        return None if v is None else {"value": v.value, "se": _se(v.se)}

    return {
        "schema_version": REPORT_SCHEMA_VERSION,
        "draws": oracle.draws,
        "seed": seed,
        "p_a": oracle.p_a,
        "psi_patt": mc(oracle.psi_patt),
        "tau": oracle.tau.value,
        "asymptotic_variances": {kind.value: mc(v) for kind, v in oracle.by_kind().items()},
        "sigma_bound": mc(oracle.sigma_bound),
        "fh_bound": mc(oracle.fh_bound),
    }


# ---------------------------------------------------------------------------
# Commands.

def _write_output(text: str, output: Optional[str]):
    if output is None or output == "-":
        try:
            sys.stdout.write(text)
            sys.stdout.flush()
        except OSError as exc:
            # Python's flush at exit would fail again and print a second error.
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            raise CliParseError(f"cannot write standard output: {exc}") from exc
    else:
        try:
            with open(output, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(text)
        except OSError as exc:
            raise CliParseError(f"cannot write {output}: {exc}") from exc


def _parse_estimands(value: str):
    if value.strip().lower() == "all":
        return None
    kinds = []
    for token in value.split(","):
        token = token.strip().lower()
        try:
            kinds.append(EstimandKind(token))
        except ValueError as exc:
            raise CliParseError(f"unknown estimand {token!r}") from exc
    if not kinds:
        raise CliParseError("empty estimand list")
    return kinds


def _load_spec(path: str) -> DgpSpec:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise CliParseError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise CliParseError(f"malformed JSON in {path}: {exc}") from exc
    try:
        return DgpSpec.from_dict(data)
    except ValidationError as exc:
        # A spec file that does not match the schema is unreadable input.
        raise CliParseError(str(exc)) from exc


def cmd_estimate(args) -> int:
    config = NuisanceConfig(folds=args.folds, clip_eps=args.clip_eps, seed=args.seed)
    outcome_kind = OutcomeKind.BINARY if args.binary_outcome else OutcomeKind.CONTINUOUS
    dataset, oracle_cols = read_csv_dataset(args.input, outcome_kind)
    estimands = _parse_estimands(args.estimands)
    oracle = None
    if args.nuisance == "oracle" or (args.nuisance == "auto" and oracle_cols):
        oracle = _oracle_values(dataset, oracle_cols, args.clip_eps)
        if oracle is None:
            raise ValidationError("--nuisance oracle requires 'pi' and 'mu0' CSV columns")
    report = estimate_all(dataset, config, oracle=oracle,
                          estimands=estimands, ci_level=args.ci_level)
    _write_output(dumps_canonical(report_to_dict(report)), args.output)
    return 0


def cmd_simulate(args) -> int:
    spec = _load_spec(args.spec)
    config = NuisanceConfig(folds=args.folds, clip_eps=args.clip_eps, seed=args.seed)
    report = run_monte_carlo(
        spec, n=args.n, reps=args.reps, seed=args.seed,
        nuisance_config=None if args.oracle_nuisances else config,
        ci_level=args.ci_level,
        patt_draws=args.patt_draws,
    )
    _write_output(dumps_canonical(mc_report_to_dict(report)), args.output)
    verdicts = report.extras.get("ordering", [])
    summary = "; ".join(
        f"{v.kind_small.value}<={v.kind_large.value}:{'ok' if v.holds else 'VIOLATED'}"
        for v in verdicts
    ) or "n/a (single replication)"
    print(f"ordering verdicts: {summary}", file=sys.stderr)
    return 0


def cmd_oracle(args) -> int:
    if args.draws < 1:
        raise CliParseError("--draws must be >= 1")
    spec = _load_spec(args.spec)
    oracle = oracle_asymptotic_variances(spec, draws=args.draws, seed=args.seed)
    _write_output(dumps_canonical(oracle_to_dict(oracle, args.seed)), args.output)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="treated",
        description="Treatment-effect-on-the-treated estimation and simulation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    est = sub.add_parser("estimate", help="estimate from a CSV file")
    est.add_argument("--input", required=True, help="CSV with columns y,a,x1..xd")
    est.add_argument("--output", default=None, help="output path (default stdout)")
    est.add_argument("--estimands", default="all",
                     help="comma-separated subset of patt,actt,swatt,catt,satt,matt")
    est.add_argument("--ci-level", type=float, default=0.95)
    est.add_argument("--nuisance", choices=("auto", "fitted", "oracle"), default="auto",
                     help="auto uses oracle CSV columns when present")
    est.add_argument("--folds", type=int, default=1)
    est.add_argument("--clip-eps", type=float, default=0.01)
    est.add_argument("--seed", type=int, default=0)
    est.add_argument("--binary-outcome", action="store_true",
                     help="declare the outcome binary (enables the sharp swatt bound)")
    est.set_defaults(func=cmd_estimate)

    sim = sub.add_parser("simulate", help="run a seeded replication study")
    sim.add_argument("--spec", required=True, help="DGP spec JSON")
    sim.add_argument("--output", default=None)
    sim.add_argument("--n", type=int, required=True)
    sim.add_argument("--reps", type=int, required=True)
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--oracle-nuisances", action="store_true")
    sim.add_argument("--ci-level", type=float, default=0.95)
    sim.add_argument("--folds", type=int, default=1)
    sim.add_argument("--clip-eps", type=float, default=0.01)
    sim.add_argument("--patt-draws", type=int, default=2_000_000)
    sim.set_defaults(func=cmd_simulate)

    orc = sub.add_parser("oracle", help="brute-force true variances for a DGP spec")
    orc.add_argument("--spec", required=True)
    orc.add_argument("--output", default=None)
    orc.add_argument("--draws", type=int, default=10_000_000)
    orc.add_argument("--seed", type=int, default=0)
    orc.set_defaults(func=cmd_oracle)
    return parser


def _emit_error(code: str, message: str):
    line = json.dumps({"error_code": code, "message": message})
    print(line, file=sys.stderr)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse already printed its message; map usage errors to parse errors
        if exc.code in (0, None):
            return 0
        _emit_error("ParseError", "invalid command line arguments")
        return 1
    try:
        # Overflow surfaces as a checked non-finite value; numpy's warnings would
        # only add stderr lines. Forked pool workers inherit this state.
        with np.errstate(all="ignore"):
            return args.func(args)
    except CliParseError as exc:
        _emit_error("ParseError", str(exc))
        return 1
    except ValidationError as exc:
        _emit_error(type(exc).__name__.removesuffix("Error"), str(exc))
        return 2
    except NumericError as exc:
        _emit_error(type(exc).__name__.removesuffix("Error"), str(exc))
        return 3
    except TreatedError as exc:
        _emit_error(type(exc).__name__.removesuffix("Error"), str(exc))
        return 2


if __name__ == "__main__":
    sys.exit(main())
