import contextlib
import csv
import dataclasses
import errno
import io
import json
import os
import pathlib
import pickle
import signal
import subprocess
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

import treated.cli
import treated.errors
import treated.mathutil
import treated.nuisance
import treated.simulation
from treated.cli import CliParseError, dumps_canonical, main, read_csv_dataset, report_to_dict
from treated import (Dataset, IrlsDivergedError, NonFiniteEstimateError, OutcomeKind,
                     TreatedError, estimate_all)

from conftest import make_worked_example
from test_golden import undocumented_nulls

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


def _parse_error(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    payload = json.loads(captured.err.strip())
    assert payload["error_code"] == "ParseError"
    return payload["message"]


def _csv_parse_error(tmp_path, capsys, text):
    return _parse_error(capsys, ["estimate", "--input", _write(tmp_path, "bad.csv", text)])


@pytest.mark.parametrize("text, message", [
    # The bad cell is on line 5; the blank line 3 still counts.
    ("y,a,x1\n1,1,0.5\n\n2,0,0.1\n3,0,bad\n", "row 5, column 'x1': bad number 'bad'"),
    ("y,a,x1\r\n1,1,0.5\r\n  ,  \r\n2,0\r\n", "row 4 has 2 cells, expected 3"),
    # A '#' is not a comment marker.
    ("y,a,x1\n1,1,3 # note\n", "row 2, column 'x1': bad number '3 # note'"),
    ("y,a,x1\n \n\t\n", "CSV has a header but no data rows"),
    ("y,a,x1\r\n", "CSV has a header but no data rows"),
    ("", "empty CSV file"),
])
def test_parse_errors_number_rows_by_record(tmp_path, capsys, text, message):
    assert _csv_parse_error(tmp_path, capsys, text) == message


def test_duplicate_covariate_names_are_reported_as_duplicates(tmp_path, capsys):
    assert _csv_parse_error(tmp_path, capsys, "y,a,x1,x1\n1,1,0,0\n") == "duplicate column names"


def test_non_utf8_input_exit1(tmp_path, capsys):
    path = tmp_path / "latin1.csv"
    path.write_bytes("y,a\n1,0\ncaf\u00e9,1\n".encode("latin-1"))
    message = _parse_error(capsys, ["estimate", "--input", str(path)])
    assert message.startswith(f"cannot read {path}: not UTF-8")


def test_cell_over_the_csv_field_limit_exit1(tmp_path, capsys):
    path = _write(tmp_path, "wide.csv", "y,a,x1\n1,1," + "z" * (csv.field_size_limit() + 1) + "\n")
    message = _parse_error(capsys, ["estimate", "--input", path])
    assert message.startswith(f"cannot parse {path}: field larger than field limit")


def test_long_numeric_cell_is_over_the_field_limit_exit1(tmp_path, capsys):
    # A cell that float() would read as 0.1 is still over the limit.
    path = _write(tmp_path, "wide.csv", WORKED_CSV.replace("0.1,", "0.1" + " " * 140_000 + ","))
    message = _parse_error(capsys, ["estimate", "--input", path])
    assert message.startswith(f"cannot parse {path}: field larger than field limit")


@pytest.mark.parametrize("target", ["missing/out.json", "."])
def test_unwritable_output_exit1(tmp_path, capsys, target):
    output = str(tmp_path / target)
    argv = ["estimate", "--input", _write(tmp_path, "data.csv", WORKED_CSV), "--output", output]
    assert _parse_error(capsys, argv).startswith(f"cannot write {output}: ")


# ---------------------------------------------------------------------------
# The CSV reader against the cell-by-cell scan it replaced.

_ORACLE_COLUMNS = ("pi", "mu0", "mu1", "sigma0", "sigma1")


def _reference_read_csv(path, outcome_kind):
    """The reader before the loadtxt fast path: csv.reader plus float() per cell."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise CliParseError("empty CSV file")
    header = [h.strip() for h in rows[0]]
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

    idx = {name: header.index(name) for name in header}
    body = [(number, r) for number, r in enumerate(rows[1:], start=2)
            if r and any(cell.strip() for cell in r)]
    if not body:
        raise CliParseError("CSV has a header but no data rows")

    def column(name):
        col = np.empty(len(body))
        for i, (number, row) in enumerate(body):
            if len(row) != len(header):
                raise CliParseError(f"row {number} has {len(row)} cells, expected {len(header)}")
            cell = row[idx[name]].strip()
            try:
                col[i] = float(cell)
            except ValueError as exc:
                raise CliParseError(f"row {number}, column '{name}': bad number {cell!r}") from exc
        return col

    y = column("y")
    a = column("a")
    x = np.column_stack([column(name) for name in expected_x]) if d else np.empty((len(body), 0))
    oracle_cols = {name: column(name) for name in _ORACLE_COLUMNS if name in idx}
    dataset = Dataset(y=y, a=a, x=x, outcome_kind=outcome_kind)
    return dataset, oracle_cols


def _read_outcome(read, path):
    """Exact bits of every array read, or the error's type and message."""
    try:
        dataset, cols = read(path, OutcomeKind.CONTINUOUS)
    except (CliParseError, TreatedError) as exc:
        return type(exc), str(exc)
    arrays = {"y": dataset.y, "a": dataset.a, "x": dataset.x, **cols}
    return {name: (v.dtype.str, v.shape, v.tobytes()) for name, v in arrays.items()}


_FINITE = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-10 ** 20, 10 ** 20).map(str),
    st.sampled_from(["-0", "5.", ".5", "+1.5E-3", "0.1000000000000000055511151231257827"]),
)
_NUMBER = st.one_of(_FINITE, st.floats().map(repr),
                    st.sampled_from(["nan", "-nan", "NaN", "inf", "-Infinity", "1e400"]))
# Tokens float() reads differently from loadtxt, or that neither reads.
_ODD_TOKENS = ["1_0", "\u0661", "\u0663.\u0665", "\uff11", "0x10", "nan(1)", "1d5", '"1"5', '1"5',
               "\xa01.5", "1 # note", "#1", "", "bad", "1 5", "1e", "."]
_ODD = st.sampled_from(_ODD_TOKENS)


@st.composite
def _csv_text(draw):
    # A clean file has the layout the loadtxt path accepts; a messy one adds
    # layouts that send it to the scan, or to an error. Either may hold a
    # token that loadtxt must refuse.
    messy = draw(st.booleans())

    def pick(clean, extra):
        return draw(st.sampled_from(clean + extra if messy else clean))

    d = draw(st.integers(0, 2))
    names = ["y", "a", *(f"x{i}" for i in range(1, d + 1))]
    names += draw(st.lists(st.sampled_from(_ORACLE_COLUMNS), unique=True, max_size=3))
    if messy and draw(st.integers(0, 9)) == 0:
        names.append(draw(st.sampled_from(["x1", "zz", "x9"])))
    names = draw(st.permutations(names))
    header = [pick(["{}", " {} "], ['"{}"']).format(name) for name in names]
    lines = [",".join(header)]
    for _ in range(draw(st.integers(0, 6))):
        kind = pick(["row"] * 5 + ["blank"], ["ragged", "trailing comma", "whitespace"])
        if kind in ("blank", "whitespace"):
            lines.append("" if kind == "blank" else draw(st.sampled_from([" ", "\t ", " , "])))
            continue
        cells = []
        for name in names:
            if draw(st.integers(0, 14)) == 0:
                token = draw(_ODD)
            elif name == "a":
                token = pick(["0", "1", "1.0", "-0", "0e0"], ["\u0661"])
            else:
                token = draw(_NUMBER if messy or name in _ORACLE_COLUMNS else _FINITE)
            cells.append(pick(["{}", " {} ", "\t{}", '"{}"', '" {} "'], [' "{}"']).format(token))
        if kind == "ragged":
            cells = cells[:-1] if draw(st.booleans()) else cells + ["1"]
        elif kind == "trailing comma":
            cells.append("")
        lines.append(",".join(cells))
    ends = [pick(["\n", "\r\n"], ["\r"]) for _ in lines]
    if not draw(st.booleans()):
        ends[-1] = ""
    return "".join(line + end for line, end in zip(lines, ends))


@pytest.fixture(scope="module")
def csv_path(tmp_path_factory):
    return tmp_path_factory.mktemp("reader") / "data.csv"


@settings(max_examples=300, deadline=None)
@given(text=_csv_text())
def test_reader_matches_the_cell_by_cell_scan(csv_path, text):
    csv_path.write_text(text, encoding="utf-8", newline="")
    expected = _read_outcome(_reference_read_csv, csv_path)
    assert _read_outcome(read_csv_dataset, csv_path) == expected


@pytest.mark.parametrize("token", _ODD_TOKENS)
def test_reader_matches_the_scan_on_one_odd_cell(tmp_path, token):
    path = _write(tmp_path, "odd.csv", f"y,a,x1\n1,0,0.5\n2,1,{token}\n")
    assert _read_outcome(read_csv_dataset, path) == _read_outcome(_reference_read_csv, path)


def test_quoted_line_break_reads_like_the_scan(tmp_path):
    path = _write(tmp_path, "quoted.csv", 'y,a,x1\n"1\n",0,0.5\n2,1,"0.25"\n3,0,1\n')
    assert _read_outcome(read_csv_dataset, path) == _read_outcome(_reference_read_csv, path)


def test_byte_order_mark_reads_like_the_plain_file(tmp_path):
    plain = pathlib.Path(__file__).parent / "golden" / "continuous.csv"
    marked = tmp_path / "marked.csv"
    marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    assert _read_outcome(read_csv_dataset, marked) == _read_outcome(read_csv_dataset, plain)


def test_reader_peak_memory_is_a_few_tables(tmp_path):
    # loadtxt is fed a block of lines at a time from the file's memory map,
    # which tracemalloc does not count, so the reader holds the parsed table
    # and its columns, never a copy of the text.
    n = 50_000
    rng = np.random.default_rng(3)
    table = np.column_stack([rng.standard_normal(n), rng.integers(0, 2, n),
                             rng.standard_normal((n, 2))])
    path = tmp_path / "big.csv"
    np.savetxt(path, table, fmt=["%.17g", "%d", "%.17g", "%.17g"], delimiter=",",
               header="y,a,x1,x2", comments="")
    tracemalloc.start()
    try:
        read_csv_dataset(str(path), OutcomeKind.CONTINUOUS)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * table.nbytes


def _no_scan(text):
    raise AssertionError("the cell-by-cell scan ran")


def test_golden_csvs_take_the_loadtxt_path(monkeypatch):
    golden = pathlib.Path(__file__).parent / "golden"
    names = ["binary.csv", "continuous.csv", "oracle_columns.csv", "oracle_pi_mu0.csv"]
    expected = [_read_outcome(_reference_read_csv, golden / name) for name in names]
    monkeypatch.setattr(treated.cli, "_scan_columns", _no_scan)
    assert [_read_outcome(read_csv_dataset, golden / name) for name in names] == expected


# ---------------------------------------------------------------------------
# The byte-range reader: the tests above again, with every file sent through
# it, in this process and on a pool of two workers.

@contextlib.contextmanager
def _ranged_reader(workers):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(treated.cli, "INGEST_POOL_BYTES", 0)
        patch.setattr(treated.mathutil, "_worker_count", lambda count: workers)
        yield


@pytest.fixture(params=[1, 2], ids=["1 worker", "2 workers"])
def ranged_reader(request):
    with _ranged_reader(request.param):
        yield


@pytest.mark.parametrize("workers", [1, 2])
@settings(max_examples=60, deadline=None)
@given(text=_csv_text())
def test_ranged_reader_matches_the_cell_by_cell_scan(csv_path, workers, text):
    csv_path.write_text(text, encoding="utf-8", newline="")
    expected = _read_outcome(_reference_read_csv, csv_path)
    with _ranged_reader(workers):
        assert _read_outcome(read_csv_dataset, csv_path) == expected


@pytest.mark.parametrize("token", _ODD_TOKENS)
def test_ranged_reader_matches_the_scan_on_one_odd_cell(ranged_reader, tmp_path, token):
    test_reader_matches_the_scan_on_one_odd_cell(tmp_path, token)


def test_ranged_reader_reads_a_quoted_line_break_like_the_scan(ranged_reader, tmp_path):
    test_quoted_line_break_reads_like_the_scan(tmp_path)


def test_ranged_reader_reads_a_byte_order_mark_like_the_plain_file(ranged_reader, tmp_path):
    test_byte_order_mark_reads_like_the_plain_file(tmp_path)


def test_ranged_reader_peak_memory_is_a_few_tables(ranged_reader, tmp_path):
    test_reader_peak_memory_is_a_few_tables(tmp_path)


def _ranged_file(tmp_path, rows=400, end="\n"):
    """A d = 1 CSV whose rows all take 13 bytes, and its cut points."""
    lines = ["y,a,x1"] + [f"{1000 + i % 9000},{i % 2},0.{i % 1000:03d}" for i in range(rows)]
    path = tmp_path / "ranged.csv"
    path.write_bytes(end.join(lines).encode() + end.encode())
    return path, treated.cli._cut_points(path.read_bytes(), 0, treated.cli._INGEST_RANGES)


def _whole_file_outcome(path):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(treated.cli, "INGEST_POOL_BYTES", float("inf"))
        return _read_outcome(read_csv_dataset, path)


def test_ranged_reader_cuts_after_line_ends(tmp_path):
    path, cuts = _ranged_file(tmp_path)
    data = path.read_bytes()
    assert len(cuts) == treated.cli._INGEST_RANGES + 1
    assert cuts[0] == 0 and cuts[-1] == len(data)
    assert all(data[cut - 1:cut] == b"\n" for cut in cuts[1:])


def _recorded_loadtxt(monkeypatch):
    """The byte ranges ``cli._loadtxt`` is called on in this process, as a
    list of (lo, hi) pairs that grows as the calls come."""
    loadtxt = treated.cli._loadtxt
    calls = []

    def record(buffer, lo, hi):
        calls.append((lo, hi))
        return loadtxt(buffer, lo, hi)

    monkeypatch.setattr(treated.cli, "_loadtxt", record)
    return calls


def test_ranged_reader_parses_clean_files_itself(ranged_reader, tmp_path, monkeypatch):
    chunked = treated.cli._chunked
    ranges = []

    def counted(generator, args, count, *, pooled):
        ranges.append(count)
        return chunked(generator, args, count, pooled=pooled)

    golden = pathlib.Path(__file__).parent / "golden"
    paths = [golden / name for name in
             ("binary.csv", "continuous.csv", "oracle_columns.csv", "oracle_pi_mu0.csv")]
    paths.append(_ranged_file(tmp_path)[0])
    expected = [_read_outcome(_reference_read_csv, path) for path in paths]
    monkeypatch.setattr(treated.cli, "_chunked", counted)
    monkeypatch.setattr(treated.cli, "_scan_columns", _no_scan)
    assert [_read_outcome(read_csv_dataset, path) for path in paths] == expected
    assert ranges == [treated.cli._INGEST_RANGES] * len(paths)


def test_ranged_reader_reads_a_quoted_body_as_one_range(tmp_path, monkeypatch):
    # A quoted cell may hold a line break, so a body with a quote is not cut.
    monkeypatch.setattr(treated.cli, "INGEST_POOL_BYTES", 0)
    path, _ = _ranged_file(tmp_path)
    data = path.read_bytes().replace(b",0.399\n", b',"1.5"\n')
    path.write_bytes(data)
    expected = _read_outcome(_reference_read_csv, path)
    calls = _recorded_loadtxt(monkeypatch)
    monkeypatch.setattr(treated.cli, "_scan_columns", _no_scan)
    assert _read_outcome(read_csv_dataset, path) == expected
    assert isinstance(expected, dict), expected
    assert calls == [(data.index(b"\n") + 1, len(data))]


def test_ranged_reader_sends_a_refused_range_to_the_scan(tmp_path, monkeypatch):
    path, _ = _ranged_file(tmp_path)
    data = path.read_bytes().replace(b"0.399\n", b"0.3x9\n")
    path.write_bytes(data)
    expected = _read_outcome(_reference_read_csv, path)
    cuts = treated.cli._cut_points(data, data.index(b"\n") + 1, treated.cli._INGEST_RANGES)
    with _ranged_reader(1):
        calls = _recorded_loadtxt(monkeypatch)
        outcome = _read_outcome(read_csv_dataset, path)
    # Every range is parsed once, the last refuses, and the body is not
    # parsed again as one range before the scan words the error.
    assert calls == list(zip(cuts, cuts[1:]))
    assert outcome == expected == (CliParseError, "row 401, column 'x1': bad number '0.3x9'")


def test_ranged_reader_reads_like_the_scan_when_no_mapping_can_be_made(ranged_reader, tmp_path,
                                                                      monkeypatch):
    def no_memory(*args, **kwargs):
        raise OSError(12, "Cannot allocate memory")

    scan = treated.cli._scan_columns
    scanned = []

    def recorded_scan(text):
        scanned.append(len(text))
        return scan(text)

    path, _ = _ranged_file(tmp_path)
    expected = _read_outcome(_reference_read_csv, path)
    monkeypatch.setattr(treated.cli.mmap, "mmap", no_memory)
    monkeypatch.setattr(treated.cli, "_scan_columns", recorded_scan)
    assert _read_outcome(read_csv_dataset, path) == expected
    assert scanned == [path.stat().st_size]


def test_ranged_reader_reads_a_byte_order_mark_after_a_cut_like_the_scan(ranged_reader,
                                                                          tmp_path):
    path, cuts = _ranged_file(tmp_path)
    data = bytearray(path.read_bytes())
    # "\ufeff1" takes the 4 bytes of the cell "1xyz" it replaces: no cut moves.
    data[cuts[3]:cuts[3] + 4] = "\ufeff1".encode()
    path.write_bytes(bytes(data))
    outcome = _read_outcome(read_csv_dataset, path)
    assert outcome == _read_outcome(_reference_read_csv, path) == _whole_file_outcome(path)
    assert outcome[1].endswith(f"column 'y': bad number {chr(0xFEFF) + '1'!r}")


def test_ranged_reader_numbers_a_bad_cell_in_the_last_range_like_the_scan(ranged_reader,
                                                                          tmp_path):
    path, _ = _ranged_file(tmp_path)
    path.write_bytes(path.read_bytes().replace(b"0.399\n", b"0.3x9\n"))
    outcome = _read_outcome(read_csv_dataset, path)
    assert outcome == _read_outcome(_reference_read_csv, path)
    assert outcome == (CliParseError, "row 401, column 'x1': bad number '0.3x9'")


def test_ranged_reader_words_a_long_line_in_a_later_range_like_the_whole_file(ranged_reader,
                                                                              tmp_path):
    path, _ = _ranged_file(tmp_path)
    wide = b"0." + b"1" * (csv.field_size_limit() + 1) + b"\n"
    path.write_bytes(path.read_bytes().replace(b"0.399\n", wide))
    outcome = _read_outcome(read_csv_dataset, path)
    assert outcome == _whole_file_outcome(path)
    assert outcome == (CliParseError, f"cannot parse {path}: field larger than field limit "
                                      f"({csv.field_size_limit()})")


def test_ranged_reader_reads_carriage_return_line_ends_like_the_scan(ranged_reader, tmp_path):
    path, cuts = _ranged_file(tmp_path, end="\r")
    assert cuts == [0, path.stat().st_size]
    outcome = _read_outcome(read_csv_dataset, path)
    assert outcome == _read_outcome(_reference_read_csv, path)
    assert outcome["y"] == (np.dtype(float).str, (400,), np.arange(1000.0, 1400.0).tobytes())


def test_ranged_reader_words_a_wider_range_like_the_scan(ranged_reader, tmp_path):
    path, cuts = _ranged_file(tmp_path)
    data = path.read_bytes()
    # "0,123" takes the bytes of the cell "0.123": every row of range 5 gets
    # a fourth cell and no cut moves, so loadtxt reads that range as a
    # 4-column table.
    wide = data[cuts[5]:cuts[6]].replace(b",0.", b",0,")
    path.write_bytes(data[:cuts[5]] + wide + data[cuts[6]:])
    assert treated.cli._cut_points(path.read_bytes(), 0, treated.cli._INGEST_RANGES) == cuts
    outcome = _read_outcome(read_csv_dataset, path)
    first_row = data[:cuts[5]].count(b"\n") + 1
    assert outcome == _read_outcome(_reference_read_csv, path)
    assert outcome == (CliParseError, f"row {first_row} has 4 cells, expected 3")


# ---------------------------------------------------------------------------
# Piped input: the reader takes a pipe's bytes once, so a file it must read
# again (here through the cell-by-cell scan) reads like the same bytes on disk.

_PIPED = {"clean": WORKED_CSV,
          "digit separator": WORKED_CSV.replace("3,0.25", "3,1_0"),
          "bad cell": WORKED_CSV.replace(",0.2,", ",bad,")}
_DEV_FD = pytest.mark.skipif(not pathlib.Path("/dev/fd").is_dir(), reason="no /dev/fd")


def _piped(data: bytes, read):
    """``read`` of a /dev/fd path whose reads come from a pipe fed by a thread."""
    r, w = os.pipe()

    def write():
        with open(w, "wb") as fh, contextlib.suppress(BrokenPipeError):
            fh.write(data)

    writer = threading.Thread(target=write)
    writer.start()
    try:
        return read(f"/dev/fd/{r}")
    finally:
        os.close(r)
        writer.join()


@_DEV_FD
@pytest.mark.parametrize("name", _PIPED)
@pytest.mark.parametrize("workers", [None, 2], ids=["one range", "ranged, 2 workers"])
def test_piped_input_reads_like_a_regular_file(tmp_path, name, workers):
    path = _write(tmp_path, "data.csv", _PIPED[name])
    with (_ranged_reader(workers) if workers else contextlib.nullcontext()):
        piped = _piped(pathlib.Path(path).read_bytes(),
                       lambda fd_path: _read_outcome(read_csv_dataset, fd_path))
        assert piped == _read_outcome(read_csv_dataset, path)
    assert isinstance(piped, tuple) == (name == "bad cell")


@_DEV_FD
@pytest.mark.parametrize("name", _PIPED)
def test_estimate_reads_a_csv_on_stdin_like_a_regular_file(tmp_path, name):
    path = _write(tmp_path, "data.csv", _PIPED[name])

    def estimate(source, **stdin):
        proc = subprocess.run([sys.executable, "-m", "treated", "estimate", "--input", source],
                              capture_output=True, **stdin)
        return proc.returncode, proc.stdout, proc.stderr

    regular = estimate(path, stdin=subprocess.DEVNULL)
    assert estimate("/dev/stdin", input=pathlib.Path(path).read_bytes()) == regular
    assert regular[0] == (1 if name == "bad cell" else 0)


# ---------------------------------------------------------------------------
# estimate, continued: validation and numeric errors, and the options.

def test_estimate_validation_error_exit2(tmp_path, capsys):
    csv_path = _write(tmp_path, "degenerate.csv", "y,a\n1,1\n2,1\n")
    code = main(["estimate", "--input", csv_path])
    assert code == 2
    payload = json.loads(capsys.readouterr().err.strip())
    assert payload["error_code"] == "DegenerateTreatment"


def test_estimate_lone_sd_column_is_checked_then_unused(tmp_path, capsys):
    # The sigma variant needs both sds: one sd column skips it, like none.
    lone = "\n".join(line.rsplit(",", 1)[0] for line in WORKED_CSV.splitlines()) + "\n"
    assert main(["estimate", "--input", _write(tmp_path, "lone.csv", lone)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["per_kind"]["swatt"]["conservative_sigma"] is None
    assert out["diagnostics"]["nuisance_method"].endswith("sd=skip")
    assert "v_sigma_bound" not in out["diagnostics"]
    # A lone sd column is still validated like the others.
    negative = lone.replace("0.2,0.5,1,2,1\n", "0.2,0.5,1,2,-1\n")
    assert main(["estimate", "--input", _write(tmp_path, "neg.csv", negative)]) == 2
    assert json.loads(capsys.readouterr().err.strip())["error_code"] == "Validation"


_NO_ORACLE = {"error_code": "Validation",
              "message": "oracle nuisances need at least the 'pi' and 'mu0' columns"}


@pytest.mark.parametrize("columns, estimands, code, error", [
    (3, "all", 2, _NO_ORACLE),
    (4, "all", 2, _NO_ORACLE),
    (5, "actt", 2, {"error_code": "MissingOracle",
                    "message": "oracle mu1_hat required but not supplied"}),
    (5, "patt,matt", 0, None),
], ids=["no oracle columns", "pi alone", "actt without mu1", "patt,matt"])
def test_estimate_oracle_nuisances(tmp_path, capsys, columns, estimands, code, error):
    # The worked example cut to its first columns: y,a,x1, then pi, then mu0.
    text = "".join(",".join(line.split(",")[:columns]) + "\n" for line in WORKED_CSV.splitlines())
    assert main(["estimate", "--input", _write(tmp_path, "cut.csv", text), "--nuisance", "oracle",
                 "--estimands", estimands]) == code
    out, err = capsys.readouterr()
    if error is not None:
        assert out == "" and json.loads(err) == error
    else:
        report = json.loads(out)
        assert list(report["per_kind"]) == ["patt", "matt"]
        assert report["diagnostics"]["nuisance_method"] == \
            "propensity=oracle,outcome=oracle,sd=skip"


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
@pytest.mark.parametrize("level", ["1.5", "1.0", "0.0", "nan", "0.9999999999999999"])
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


@pytest.mark.parametrize("command", ["estimate", "simulate", "oracle"])
def test_negative_seed_exit2(tmp_path, capsys, monkeypatch, command):
    # numpy refuses a negative seed with a bare ValueError; the CLI must turn it
    # into a validation error before reading data or drawing anything.
    def no_work(*args, **kwargs):
        raise AssertionError("work started before the seed was checked")

    monkeypatch.setattr(treated.cli, "read_csv_dataset", no_work)
    monkeypatch.setattr(treated.simulation, "_draw_x", no_work)
    spec_path = _write(tmp_path, "spec.json", json.dumps(_spec_json()))
    args = {
        "estimate": ["estimate", "--input", "data.csv", "--folds", "2"],
        "simulate": ["simulate", "--spec", spec_path, "--n", "200", "--reps", "3"],
        "oracle": ["oracle", "--spec", spec_path, "--draws", "1000"],
    }[command]
    code = main(args + ["--seed", "-1"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    payload = json.loads(captured.err.strip())
    assert payload == {"error_code": "Validation", "message": "seed must be >= 0, got -1"}


# A CSV whose covariate near 1e154 overflows the actt variance.
_OVERFLOW_ROWS = ["0,1,0"] * 9 + ["2,1,1"] + ["0,0,0"] * 3 + ["1,0,0",
                                                           "0,0,1.3878399718096036e+154"]


@pytest.mark.parametrize("fails", [False, True], ids=["report", "error"])
def test_warning_is_shown_only_with_a_report(tmp_path, capsys, fails):
    # One outcome far from the others leaves heavy treated residuals, which the
    # report's diagnostics name. A covariate near 1e154 then overflows the actt
    # variance: the command fails, and its error line is the only thing on stderr.
    if fails:
        rows = _OVERFLOW_ROWS
    else:
        rows = [f"{1e4 if i == 3 else (i * 7 % 5 - 2) * 0.3},{i % 2},{(i * 3 % 7 - 3) * 0.4}"
                for i in range(40)]
    path = _write(tmp_path, "heavy.csv", "y,a,x1\n" + "\n".join(rows) + "\n")
    with warnings.catch_warnings(record=True) as shown:
        warnings.simplefilter("always")
        code = main(["estimate", "--input", path, "--nuisance", "fitted"])
    out, err = capsys.readouterr()
    assert shown == []
    if fails:
        assert (code, out) == (3, "")
        assert json.loads(err) == {"error_code": "NonFiniteEstimate",
                                   "message": "actt: non-finite variance=inf"}
    else:
        assert (code, err) == (0, "")
        assert json.loads(out)["diagnostics"]["heavy_residual_arms"] == [1]


@pytest.mark.parametrize("argv", [["--nuisance", "fitted", "--folds", "2"],
                                  ["--nuisance", "oracle"]], ids=["fitted", "oracle"])
def test_negative_zero_treatment_writes_the_bytes_of_zero(tmp_path, capsys, argv):
    # a is stored as read: every control's -0.0 must score as 0.0 does.
    rng = np.random.default_rng(4)
    x = rng.standard_normal(60)
    pi = 1.0 / (1.0 + np.exp(-0.5 * x))
    a = np.arange(60) % 3 == 0
    y = 1.0 + x + a + rng.standard_normal(60)
    reports = []
    for zero in ("0", "-0"):
        rows = [f"{y[i]:.17g},{'1' if a[i] else zero},{x[i]:.17g},{pi[i]:.17g},{x[i]:.17g},"
                f"{x[i] + 1:.17g},1,1" for i in range(60)]
        text = "y,a,x1,pi,mu0,mu1,sigma0,sigma1\n" + "\n".join(rows) + "\n"
        assert main(["estimate", "--input", _write(tmp_path, "d.csv", text), *argv]) == 0
        reports.append(capsys.readouterr().out)
    assert reports[0] == reports[1]


_HEAVY_SD_SPEC = {"schema_version": 1, "d": 1, "propensity_coeffs": [0.0, 0.5],
                  "mu0_coeffs": [0.0, 1.0], "mu1_coeffs": [1.0, 1.0],
                  "noise0_sd_coeffs": [0.05, 3.0], "noise1_sd_coeffs": [0.05, 3.0]}


@pytest.mark.parametrize("workers, reps, verdicts", [
    (1, 4, "matt<=catt:ok; catt<=actt:ok; actt<=patt:ok; swatt<=actt:ok"),
    (2, 4, "matt<=catt:ok; catt<=actt:ok; actt<=patt:ok; swatt<=actt:ok"),
    (None, 1, "n/a (single replication)"),
], ids=["1 worker", "2 workers", "one replication"])
def test_simulate_stderr_does_not_depend_on_the_worker_count(tmp_path, capsys, monkeypatch,
                                                             workers, reps, verdicts):
    # The sds grow steeply in x, so fitted replications see heavy residuals.
    # Wherever a replication runs, in this process or in a pool worker, stderr
    # is the verdict line alone.
    if workers is not None:
        monkeypatch.setattr(treated.mathutil, "_worker_count", lambda count: workers)
    spec_path = _write(tmp_path, "spec.json", json.dumps(_HEAVY_SD_SPEC))
    with warnings.catch_warnings(record=True) as shown:
        warnings.simplefilter("always")
        code = main(["simulate", "--spec", spec_path, "--n", "400", "--reps", str(reps),
                     "--seed", "1", "--patt-draws", "1000"])
    out, err = capsys.readouterr()
    assert code == 0 and json.loads(out)
    assert (err, shown) == (f"ordering verdicts: {verdicts}\n", [])


@pytest.mark.parametrize("command, code, stderr", [
    (["estimate", "--nuisance", "fitted"], 0, ""),
    (["estimate", "--nuisance", "fitted", "overflow"], 3,
     '{"error_code": "NonFiniteEstimate", "message": "actt: non-finite variance=inf"}\n'),
    (["simulate", "--n", "200", "--reps", "4", "--folds", "2"], 0,
     "ordering verdicts: matt<=catt:ok; catt<=actt:ok; actt<=patt:ok; swatt<=actt:ok\n"),
    (["simulate", "--n", "40", "--reps", "4", "--folds", "50"], 2,
     '{"error_code": "Validation", "message": "every replication failed; nothing to aggregate '
     '(first: rep 0: 50 folds exceed the smaller arm (18 treated, 22 controls))"}\n'),
], ids=["estimate report", "estimate error", "simulate report", "simulate error"])
def test_a_stage_warning_leaves_stderr_to_the_command(tmp_path, command, code, stderr):
    # The nuisance stage of every estimate, each replication's included, issues
    # a UserWarning before it fits. Neither the command's own process nor a
    # forked pool worker shows it: stderr is empty on an estimate, the verdict
    # line on a study, and the error line on a failure. A child process, so
    # that workers write to its stderr.
    if command[0] == "estimate":
        rows = (_OVERFLOW_ROWS if command[-1] == "overflow" else
                [f"{(i * 7 % 5 - 2) * 0.3},{i % 2},{(i * 3 % 7 - 3) * 0.4}" for i in range(40)])
        command = [*command[:3], "--input",
                   _write(tmp_path, "data.csv", "y,a,x1\n" + "\n".join(rows) + "\n")]
    else:
        command = [*command, "--spec", _write(tmp_path, "spec.json", json.dumps(_spec_json())),
                   "--seed", "1", "--patt-draws", "1000"]
    run = ("import sys, warnings, treated.cli, treated.estimator, treated.mathutil; "
           "stage = treated.estimator.compute_nuisances; "
           "treated.estimator.compute_nuisances = "
           "lambda *args, **kwargs: warnings.warn('stage warning') or stage(*args, **kwargs); "
           "treated.mathutil._worker_count = lambda count: 2; "
           "sys.exit(treated.cli.main(sys.argv[1:]))")
    proc = subprocess.run([sys.executable, "-c", run, *command], capture_output=True, text=True)
    assert (proc.returncode, proc.stderr) == (code, stderr)
    assert bool(proc.stdout) == (code == 0)


# ---------------------------------------------------------------------------
# estimate: the exit-code contract as a property.

# Cells by column kind: in range, then any float, and for a the values near 0
# and 1 that the checks must meet.
_CELLS = {
    "y": st.floats(-1e3, 1e3),
    "x": st.floats(-10, 10),
    "pi": st.floats(0.05, 0.95),
    "mu": st.floats(-10, 10),
    "sigma": st.floats(0, 5),
}
_ESTIMANDS = ["patt", "actt", "swatt", "catt", "satt", "matt"]
# The ends of (0, 0.5) and (0, 1), on them and just inside.
_CLIP_EPS = ["0", "5e-324", "0.49999999999999994", "0.5"]
_CI_LEVEL = ["0", "5e-324", "0.9999999999999999", "1"]


def _now_and_then(draw):
    return draw(st.sampled_from([False] * 7 + [True]))


@st.composite
def _estimate_run(draw):
    """A small CSV for ``estimate`` and the flags after ``--input``.

    The CSV has d = 0..2 covariates and any of the oracle columns; rows of
    both arms or of one, constant columns, a 0/1 outcome, blank lines, a byte
    order mark, quoted cells, and now and then edge cells or a bad cell. The
    flags cover estimand subsets, 1-6 folds, each nuisance mode,
    ``--binary-outcome``, and now and then ``--clip-eps`` or ``--ci-level``
    at an edge of its range."""
    binary = draw(st.booleans())
    nuisance = draw(st.sampled_from(["auto", "fitted", "oracle"]))
    d = draw(st.integers(0, 2))
    oracle = set(draw(st.lists(st.sampled_from(_ORACLE_COLUMNS), unique=True)))
    if (oracle or nuisance == "oracle") and not _now_and_then(draw):
        oracle |= {"pi", "mu0"}
    names = draw(st.permutations(["y", "a", *(f"x{i}" for i in range(1, d + 1)),
                                  *sorted(oracle)]))
    n = draw(st.integers(2, 20))
    columns = {}
    for name in names:
        if name == "a":
            treated = draw(st.integers(1, n - 1))
            column = draw(st.permutations(["1"] * treated + ["0"] * (n - treated)))
            edges = st.sampled_from(["1.0", "-0", "2", "0.5"])
        else:
            inside = _CELLS[name.rstrip("0123456789")].map(repr)
            if name == "y" and binary and not _now_and_then(draw):
                inside = st.sampled_from(["0", "1"])
            column = draw(st.lists(inside, min_size=n, max_size=n))
            edges = st.floats().map(repr)
        if _now_and_then(draw):
            for i in draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=3)):
                column[i] = draw(edges)
        if _now_and_then(draw):  # a constant column; for a, rows of one arm
            column = column[:1] * n
        columns[name] = column
    rows = [[columns[name][i] for name in names] for i in range(n)]
    if _now_and_then(draw):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, len(names) - 1))
        rows[i][j] = draw(st.sampled_from(["bad", "", "1e", "0x10"]))
    quoted = draw(st.sampled_from([None, *range(len(names))]))  # a column in quotes
    lines = [",".join(names), *(",".join(f'"{c}"' if j == quoted else c for j, c in enumerate(row))
                                for row in rows)]
    if _now_and_then(draw):
        lines.insert(draw(st.integers(1, n)), "")
    text = ("\ufeff" if draw(st.booleans()) else "") + "\n".join(lines) + "\n"
    estimands = draw(st.one_of(st.just("all"), st.lists(st.sampled_from(_ESTIMANDS), min_size=1,
                                                        unique=True).map(",".join)))
    flags = ["--estimands", estimands,
             "--folds", str(draw(st.one_of(st.just(1), st.integers(1, 6)))),
             "--nuisance", nuisance,
             "--clip-eps", draw(st.sampled_from(_CLIP_EPS)) if _now_and_then(draw) else "0.01",
             "--ci-level", draw(st.sampled_from(_CI_LEVEL)) if _now_and_then(draw) else "0.95",
             *(["--binary-outcome"] if binary else [])]
    return text, flags


_NUMERIC_CODES = {cls.__name__.removesuffix("Error") for cls in vars(treated.errors).values()
                  if isinstance(cls, type) and issubclass(cls, treated.errors.NumericError)}


def _run_keeping_the_contract(argv):
    """Run ``main(argv)`` in this process and check the exit-code contract:
    an exit code in 0..3 and no exception; a failure writes nothing to stdout
    and one JSON line with an error_code to stderr, with 3 exactly for a
    numeric error; a success writes JSON with a null only at a path that
    README documents. The command shows no warning, whether it fails or
    succeeds, so none reaches the caller. Returns the exit code, stdout and
    stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(argv)
    assert code in (0, 1, 2, 3)
    event(f"exit {code}")
    assert caught == [], [str(w.message) for w in caught]
    if code == 0:
        assert undocumented_nulls(json.loads(out.getvalue())) == []
        return code, out.getvalue(), err.getvalue()
    assert out.getvalue() == ""
    lines = err.getvalue().splitlines()
    assert len(lines) == 1, err.getvalue()
    payload = json.loads(lines[0])
    assert (code == 3) == (payload["error_code"] in _NUMERIC_CODES), payload
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=100, deadline=None)
@given(run=_estimate_run())
def test_estimate_keeps_the_exit_code_contract(csv_path, run):
    # Whatever the file and flags, the command keeps the contract. The same
    # flags give the same exit code, stdout and stderr when run again, and on
    # 2 workers with the reader's ranges and the fold fits on the pool.
    text, flags = run
    csv_path.write_text(text, encoding="utf-8", newline="")
    argv = ["estimate", "--input", str(csv_path), *flags]
    first = _run_keeping_the_contract(argv)
    assert _run_keeping_the_contract(argv) == first
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(treated.cli, "INGEST_POOL_BYTES", 0)
        patch.setattr(treated.nuisance, "FOLD_POOL_ROWS", 0)
        patch.setattr(treated.mathutil, "_worker_count", lambda count: 2)
        assert _run_keeping_the_contract(argv) == first


# ---------------------------------------------------------------------------
# simulate and oracle: the exit-code contract as a property.

_COEFF_FIELDS = treated.simulation._COEFF_FIELDS
# Coefficients that overflow an affine map, or a difference of two.
_OVERFLOWING = [1e308, -1e308, 1.7976931348623157e308]
# Fields of a JSON type that the spec format refuses.
_BAD_FIELDS = [("d", None), ("d", 1.0), ("d", True), ("exact_noise", "false"),
               ("exact_noise", 0), ("mu0_coeffs", "1"), ("mu1_coeffs", [[1.0]]),
               ("propensity_coeffs", [10 ** 400]), ("schema_version", True)]


@st.composite
def _spec_run(draw):
    """A small DGP spec and a ``simulate`` or ``oracle`` command with the flags
    after ``--spec``.

    The spec has d = 0..2 covariates, either x law, any dependence regime and
    outcome kind, and ``exact_noise`` or not; now and then a coefficient
    overflows, and one spec in four has a field of a refused type.
    ``simulate`` runs 1-4 replications of 1-60 units on oracle nuisances or
    1-3 folds of fitted ones, and each command takes at most 2,000 draws."""
    d = draw(st.integers(0, 2))
    spec = {"schema_version": 1, "d": d,
            "x_dist": draw(st.sampled_from(["std_normal", "uniform01"])),
            "dependence": draw(st.sampled_from(["independent", "comonotone", "antitone"])),
            "outcome_kind": draw(st.sampled_from(["continuous", "binary"])),
            "exact_noise": draw(st.booleans())}
    for name in _COEFF_FIELDS:
        spec[name] = draw(st.lists(st.floats(-3, 3), min_size=d + 1, max_size=d + 1))
    if _now_and_then(draw):
        spec[draw(st.sampled_from(_COEFF_FIELDS))][draw(st.integers(0, d))] = draw(
            st.sampled_from(_OVERFLOWING))
    if draw(st.integers(0, 3)) == 0:  # one spec in four; it costs no run
        name, value = draw(st.sampled_from(_BAD_FIELDS))
        spec[name] = value
    draws = str(draw(st.integers(1, 2000)))
    if draw(st.booleans()):
        return spec, ["oracle", "--draws", draws, "--seed", str(draw(st.integers(0, 3)))]
    nuisances = (["--oracle-nuisances"] if draw(st.booleans())
                 else ["--folds", str(draw(st.integers(1, 3)))])
    return spec, ["simulate", "--n", str(draw(st.integers(1, 60))),
                  "--reps", str(draw(st.integers(1, 4))), "--patt-draws", draws,
                  "--seed", str(draw(st.integers(0, 3))), *nuisances]


@settings(max_examples=80, deadline=None)
@given(run=_spec_run())
def test_simulate_and_oracle_keep_the_exit_code_contract(csv_path, run):
    # Whatever the spec and flags, each command keeps the contract.
    spec, (command, *flags) = run
    spec_path = csv_path.with_name("spec.json")
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    _run_keeping_the_contract([command, "--spec", str(spec_path), *flags])


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


def test_simulate_every_replication_failed_names_the_first_cause(tmp_path, capsys):
    spec_path = _write(tmp_path, "spec.json", json.dumps(_spec_json()))
    code = main(["simulate", "--spec", spec_path, "--n", "1", "--reps", "4",
                 "--oracle-nuisances", "--patt-draws", "1000"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    payload = json.loads(captured.err.strip())
    assert payload["error_code"] == "Validation"
    assert payload["message"].startswith(
        "every replication failed; nothing to aggregate (first: rep 0: no ")


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


@pytest.mark.parametrize("field, value, message", [
    ("d", 1.7, "d must be an integer"),
    ("d", None, "d must be an integer"),
    ("exact_noise", "false", "exact_noise must be true or false"),
    ("mu1_coeffs", ["1", "2"], "mu1_coeffs must be a list of numbers"),
    ("mu0_coeffs", [10 ** 400, 1.0], "int too large to convert to float"),
])
def test_spec_field_of_another_type_exit1(tmp_path, capsys, field, value, message):
    # simulate and oracle read the spec alike: a field of the wrong JSON type
    # is one ParseError line, exit 1, before any work.
    spec = _spec_json()
    spec[field] = value
    spec_path = _write(tmp_path, "spec.json", json.dumps(spec))
    for argv in (["simulate", "--spec", spec_path, "--n", "50", "--reps", "2",
                  "--patt-draws", "100"],
                 ["oracle", "--spec", spec_path, "--draws", "100"]):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [json.dumps(
            {"error_code": "ParseError", "message": f"bad DGP spec field: {message}"})]


def test_spec_unknown_field_exit1(tmp_path, capsys):
    # A misspelt field is not ignored: the spec it meant would read differently
    # (here without its 0.05 sd floor), so simulate and oracle refuse it
    # with one ParseError line that names every unknown key.
    spec = _spec_json()
    del spec["exact_noise"]
    spec["exact_nosie"] = True
    spec["comment"] = "d = 1"
    spec_path = _write(tmp_path, "spec.json", json.dumps(spec))
    for argv in (["simulate", "--spec", spec_path, "--n", "50", "--reps", "2",
                  "--patt-draws", "100"],
                 ["oracle", "--spec", spec_path, "--draws", "100"]):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [json.dumps(
            {"error_code": "ParseError",
             "message": "unknown DGP spec fields ['exact_nosie', 'comment']"})]


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


def test_oracle_zero_draws_exit2(tmp_path, capsys, monkeypatch):
    # oracle --draws and simulate --patt-draws share one rule, checked before
    # any pool starts: exit 2 with the same Validation line.
    import treated.simulation as simulation
    monkeypatch.setattr(simulation, "_chunked", lambda *args, **kwargs: pytest.fail("pooled"))
    spec_path = _write(tmp_path, "spec.json", json.dumps(_spec_json()))
    for argv in (["oracle", "--spec", spec_path, "--draws", "0"],
                 ["simulate", "--spec", spec_path, "--n", "10", "--reps", "3",
                  "--patt-draws", "0"]):
        assert main(argv) == 2
        payload = json.loads(capsys.readouterr().err.strip())
        assert payload == {"error_code": "Validation", "message": "draws must be >= 1"}


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


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("command, code, error_code, message", [
    (["oracle", "--draws", "1000"], 3, "NonFiniteEstimate",
     "oracle pass 1: non-finite psi_patt=nan, tau=nan"),
    (["simulate", "--n", "200", "--reps", "3", "--patt-draws", "1000"], 2, "Validation",
     "every replication failed; nothing to aggregate (first: rep 0: mu0_hat must be finite)"),
], ids=["oracle", "simulate"])
def test_overflowing_spec_writes_one_stderr_line(tmp_path, workers, command, code, error_code,
                                                  message):
    # The control mean overflows to inf above x = 0.8. Whatever numpy meets on
    # the way, in this process or in a forked worker, stderr carries only the
    # JSON error line. A child process, so that workers write to its stderr.
    spec = _spec_json()
    spec["mu0_coeffs"] = [1e308, 1e308]
    spec_path = _write(tmp_path, "spec.json", json.dumps(spec))
    run = ("import sys, treated.cli, treated.mathutil; "
           f"treated.mathutil._worker_count = lambda count: {workers}; "
           "sys.exit(treated.cli.main(sys.argv[1:]))")
    proc = subprocess.run([sys.executable, "-c", run, command[0], "--spec", spec_path,
                           *command[1:]], capture_output=True, text=True)
    assert (proc.returncode, proc.stdout) == (code, "")
    lines = proc.stderr.splitlines()
    assert len(lines) == 1, proc.stderr
    assert json.loads(lines[0]) == {"error_code": error_code, "message": message}


def test_killed_study_worker_writes_one_stderr_line(tmp_path, monkeypatch, capsys):
    # A study worker killed before it sends its replications, as the
    # out-of-memory killer would kill it, ends the command with one JSON line
    # and the validation exit code, not a traceback.
    real_generate = treated.simulation.generate

    def killing_generate(spec, n, seed):
        if treated.mathutil._in_worker:
            os.kill(os.getpid(), signal.SIGKILL)
        return real_generate(spec, n, seed)

    monkeypatch.setattr(treated.simulation, "generate", killing_generate)
    monkeypatch.setattr(treated.mathutil, "_worker_count", lambda count: 2)
    spec_path = _write(tmp_path, "spec.json", json.dumps(_spec_json()))
    code = main(["simulate", "--spec", spec_path, "--n", "200", "--reps", "4",
                 "--oracle-nuisances", "--patt-draws", "1000"])
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1 and "Traceback" not in err, err
    assert json.loads(err) == {
        "error_code": "Resource",
        "message": "the pool worker from index 0 exited without a result (killed by signal 9)"}


_NO_MEMORY = ("Unable to allocate 14.6 TiB for an array with shape (1000000000000, 2) and data "
              "type float64")
_EAGAIN = os.strerror(errno.EAGAIN)


@pytest.mark.parametrize("failure, workers, message", [
    ("memory", 1, f"out of memory: {_NO_MEMORY}"),
    ("memory", 2, f"out of memory: {_NO_MEMORY}"),
    ("fork", 2, f"cannot start a pool worker: [Errno {errno.EAGAIN}] {_EAGAIN}"),
], ids=["memory here", "memory in a worker", "failed fork"])
def test_machine_limit_writes_one_stderr_line(tmp_path, monkeypatch, capsys, failure, workers,
                                              message):
    # An allocation that fails, in this process or in a study worker whose error
    # comes back pickled, and a fork that fails, as it does when the machine is
    # out of processes, end the command with one Resource line and the
    # validation exit code, not a traceback. Nothing is really allocated.
    def failing_draw_x(spec, n, rng):
        assert treated.mathutil._in_worker == (workers > 1)
        raise MemoryError(_NO_MEMORY)

    def failing_fork():
        raise BlockingIOError(errno.EAGAIN, _EAGAIN)

    if failure == "memory":
        monkeypatch.setattr(treated.simulation, "_draw_x", failing_draw_x)
    else:
        monkeypatch.setattr(os, "fork", failing_fork)
    monkeypatch.setattr(treated.mathutil, "_worker_count", lambda count: workers)
    spec_path = _write(tmp_path, "spec.json", json.dumps(_spec_json()))
    code = main(["simulate", "--spec", spec_path, "--n", "200", "--reps", "4",
                 "--oracle-nuisances", "--patt-draws", "1000"])
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1 and "Traceback" not in err, err
    assert json.loads(err) == {"error_code": "Resource", "message": message}


def test_closed_stdout_writes_one_stderr_line():
    # The report goes into a pipe whose read end is closed. The write fails with
    # EPIPE; the command must end with the one ParseError line, and the flush at
    # interpreter exit must print nothing more.
    spec = pathlib.Path(__file__).parent / "golden" / "continuous_spec.json"
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run([sys.executable, "-m", "treated", "oracle", "--spec", str(spec),
                               "--draws", "1000"], stdout=write, stderr=subprocess.PIPE,
                              text=True)
    finally:
        os.close(write)
    assert proc.returncode == 1, proc.stderr
    assert "Traceback" not in proc.stderr and "Exception ignored" not in proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1, proc.stderr
    payload = json.loads(lines[0])
    assert payload["error_code"] == "ParseError"
    assert payload["message"].startswith("cannot write standard output: "), payload


def test_oracle_homogeneous_effect_psi_equals_constant(tmp_path, capsys):
    spec = _spec_json()
    spec["mu1_coeffs"] = [3.5, 1.0]  # mu1 - mu0 = 2.5 everywhere
    spec_path = _write(tmp_path, "spec.json", json.dumps(spec))
    assert main(["oracle", "--spec", spec_path, "--draws", "50000"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["psi_patt"]["value"] == pytest.approx(2.5, rel=1e-12)


# ---------------------------------------------------------------------------
# Pool items: a worker hands arrays back by writing into shared arrays, so
# what it sends through the pool stays small.

_POOL_ITEM_BYTES = 4096
_run_chunk = treated.mathutil._run_chunk


def _run_small_chunk(generator, args, lo, hi):
    """``mathutil._run_chunk``, failing the chunk in the worker when one of its
    items pickles to more than ``_POOL_ITEM_BYTES``."""
    data = _run_chunk(generator, args, lo, hi)
    ok, items = pickle.loads(data)
    sizes = [len(pickle.dumps(item)) for item in items] if ok else []
    if max(sizes, default=0) > _POOL_ITEM_BYTES:
        return pickle.dumps((False, AssertionError(f"pool items of {sizes} bytes")))
    return data


def test_pool_workers_send_back_only_small_items(tmp_path, monkeypatch):
    pools = []
    monkeypatch.setattr(treated.mathutil, "_worker_count",
                        lambda count: pools.append(count) or 2)
    monkeypatch.setattr(treated.mathutil, "_run_chunk", _run_small_chunk)
    monkeypatch.setattr(treated.cli, "INGEST_POOL_BYTES", 0)
    monkeypatch.setattr(treated.nuisance, "FOLD_POOL_ROWS", 0)
    monkeypatch.setattr(treated.simulation, "X_POOL_DRAWS", 0)
    rng = np.random.default_rng(5)
    n = 2000
    a = rng.integers(0, 2, n)
    x = rng.standard_normal((n, 2))
    path = tmp_path / "pooled.csv"
    np.savetxt(path, np.column_stack([x.sum(axis=1) + a, a, x]), fmt="%.17g", delimiter=",",
               header="y,a,x1,x2", comments="")
    spec_path = _write(tmp_path, "spec.json", json.dumps(_spec_json()))
    # The ranged reader's 8 ranges, then the 3 fits of one fold.
    assert main(["estimate", "--input", str(path), "--nuisance", "fitted"]) == 0
    assert pools == [8, 3]
    # Two pools for the study: the 16 x-only batches of its PATT truth, then its
    # 4 replications.
    assert main(["simulate", "--spec", spec_path, "--n", "200", "--reps", "4",
                 "--oracle-nuisances", "--patt-draws", "100000"]) == 0
    assert pools[2:] == [16, 4]
    # The oracle's two passes.
    assert main(["oracle", "--spec", spec_path, "--draws", "100000"]) == 0
    assert pools[4:] == [16, 16]


# ---------------------------------------------------------------------------
# module execution and canonical JSON.

def test_module_entrypoint_runs(capsys):
    proc = subprocess.run([sys.executable, "-m", "treated", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "estimate" in proc.stdout
    # --help from main returns 0 after printing the text, for a subcommand too.
    assert main(["estimate", "--help"]) == 0
    out, err = capsys.readouterr()
    assert "--input" in out and err == ""


def test_cli_import_leaves_the_pool_modules_unloaded(tmp_path):
    # The worker pool is os.fork and a pipe per worker: no command imports
    # concurrent.futures or multiprocessing, pooled or not, so start-up and
    # every forked worker stay free of their import time and memory.
    code = ("import sys, treated.cli; "
            "print(sorted({'concurrent.futures', 'multiprocessing'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
    # The estimate runs once as it stands, in-process below every pool threshold,
    # so an import made by the parse or the fits shows here. Then the estimate and
    # the oracle run with every pool threshold at 0 and 2 workers, so each pools
    # what it can; the sizes of the pools such a run started are printed too.
    code = ("import sys, treated.cli; pools = []; {}"
            "code = treated.cli.main(sys.argv[1:]); "
            "print(code, pools, sorted({{'concurrent.futures', 'multiprocessing'}} & set(sys.modules)))")
    pooled = ("treated.mathutil._worker_count = lambda count: pools.append(count) or 2; "
              "treated.cli.INGEST_POOL_BYTES = treated.nuisance.FOLD_POOL_ROWS = 0; "
              "treated.simulation.X_POOL_DRAWS = 0; ")
    golden = pathlib.Path(__file__).parent / "golden"
    estimate = ["estimate", "--input", str(golden / "continuous.csv"), "--folds", "5"]
    for patch, args, pools in [
            ("", estimate, []),
            (pooled, estimate, [8, 15]),
            (pooled, ["oracle", "--spec", str(golden / "continuous_spec.json"), "--draws", "200000"],
             [16, 16])]:
        proc = subprocess.run([sys.executable, "-c", code.format(patch), *args, "--output",
                               str(tmp_path / "report.json")], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == f"0 {pools} []"


def test_bad_flags_emit_error_code(capsys):
    # A bad command line writes one stderr line, no usage text, and the line
    # carries argparse's reason.
    for argv, reason in [
            (["simulate", "--reps", "3"], "the following arguments are required: --spec, --n"),
            (["estimate", "--input", "in.csv", "--folds", "x"],
             "argument --folds: invalid int value: 'x'"),
            (["oracle", "--spec", "spec.json", "--bogus"], "unrecognized arguments: --bogus"),
            ([], "the following arguments are required: command")]:
        code = main(argv)
        assert code == 1
        err_lines = capsys.readouterr().err.splitlines()
        assert len(err_lines) == 1, err_lines
        payload = json.loads(err_lines[-1])
        assert payload["error_code"] == "ParseError"
        assert payload["message"] == reason


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
