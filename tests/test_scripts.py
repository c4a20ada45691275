"""Smoke runs of the experiment scripts on a small study.

Each script's ``main()`` runs on a ready-made spec with tiny sizes; the run
must finish and print exactly one result line per estimand.
"""

import importlib.util
import re
import sys
from pathlib import Path

import pytest

from treated.data_model import KIND_ORDER

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
SPEC = str(SCRIPTS / "specs" / "continuous_d2.json")

CASES = {
    # script: (extra arguments, pattern of one estimand's result line)
    "run_ordering_study": (["--n", "300", "--reps", "6", "--oracle-draws", "4000"],
                           r"\s*{kind} +-?\d"),
    "run_coverage_study": (["--n", "300", "--reps", "6", "--fitted"],
                           r"\s*{kind}: coverage \d"),
}


def _load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", sorted(CASES))
def test_script_prints_one_line_per_estimand(name, monkeypatch, capsys):
    extra, pattern = CASES[name]
    monkeypatch.setattr(sys, "argv", [name, "--spec", SPEC, "--seed", "4", *extra])
    _load(name).main()
    lines = capsys.readouterr().out.splitlines()
    for kind in KIND_ORDER:
        row = re.compile(pattern.format(kind=kind.value))
        assert sum(bool(row.match(line)) for line in lines) == 1, kind
