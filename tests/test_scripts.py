import importlib.util
import io
import json
import sys
from pathlib import Path

import pytest

from qseidel.cli import main as qseidel_main

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def sweep_report(capsys):
    assert qseidel_main(["verify", "--n-max", "3", "--format", "json"]) == 0
    return capsys.readouterr().out


def run_sweep_table(monkeypatch, capsys, stdin):
    monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    code = load("sweep_table").main([])
    out, err = capsys.readouterr()
    return code, out, err


def test_sweep_table(monkeypatch, capsys):
    code, out, err = run_sweep_table(monkeypatch, capsys, sweep_report(capsys))
    assert (code, err) == (0, "")
    assert out.splitlines() == [
        "  n   k   cases  fail",
        "  2   1       4     0",
        "  3   1       9     0",
        "  3   2       9     0",
        "",
        "degree histogram: {0: 15, 1: 7}",
        "22 cases: all passed",
    ]


def test_sweep_table_lists_failures(monkeypatch, capsys):
    report = json.loads(sweep_report(capsys))
    failed = report["cases"][5]
    failed["pass"] = False
    code, out, _ = run_sweep_table(monkeypatch, capsys, json.dumps(report))
    lines = out.splitlines()
    assert code == 1
    assert "  3   1       9     1" in lines
    assert lines[-2:] == ["22 cases: 1 FAILED", json.dumps(failed)]


@pytest.mark.parametrize(
    "stdin",
    ["", "not json", "[]", '{"n_max": 3}', '{"cases": [{"n": 2, "k": 1}]}'],
)
def test_sweep_table_rejects_malformed_input(monkeypatch, capsys, stdin):
    code, out, err = run_sweep_table(monkeypatch, capsys, stdin)
    assert (code, out) == (2, "") and err.startswith("error: stdin is not a sweep report")


def test_sweep_table_takes_no_options(capsys):
    with pytest.raises(SystemExit) as exc:
        load("sweep_table").main(["--n-max", "3"])
    assert exc.value.code == 2


def test_shift_table_frames(capsys):
    assert load("shift_table").main(["--n", "4", "--k", "3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "  [1      ] -> q^0 [1      ] (direct, single_term=yes)" in lines
    assert "(dual, single_term=yes)" in lines[lines.index("shift by index 1:") + 1]
    assert lines[-1] == "all rows single-term"


# The whole table for Gr(2, 5): every shift index, both frames and q-degrees 0..2.
SHIFT_TABLE_5_2 = """\
shift by index 0:
  [     ] -> q^0 [     ] (direct, single_term=yes)
  [1    ] -> q^0 [1    ] (direct, single_term=yes)
  [1,1  ] -> q^0 [1,1  ] (direct, single_term=yes)
  [2    ] -> q^0 [2    ] (direct, single_term=yes)
  [2,1  ] -> q^0 [2,1  ] (direct, single_term=yes)
  [2,2  ] -> q^0 [2,2  ] (direct, single_term=yes)
  [3    ] -> q^0 [3    ] (direct, single_term=yes)
  [3,1  ] -> q^0 [3,1  ] (direct, single_term=yes)
  [3,2  ] -> q^0 [3,2  ] (direct, single_term=yes)
  [3,3  ] -> q^0 [3,3  ] (direct, single_term=yes)
shift by index 1:
  [     ] -> q^0 [3    ] (dual, single_term=yes)
  [1    ] -> q^0 [3,1  ] (dual, single_term=yes)
  [1,1  ] -> q^1 [     ] (dual, single_term=yes)
  [2    ] -> q^0 [3,2  ] (dual, single_term=yes)
  [2,1  ] -> q^1 [1    ] (dual, single_term=yes)
  [2,2  ] -> q^1 [1,1  ] (dual, single_term=yes)
  [3    ] -> q^0 [3,3  ] (dual, single_term=yes)
  [3,1  ] -> q^1 [2    ] (dual, single_term=yes)
  [3,2  ] -> q^1 [2,1  ] (dual, single_term=yes)
  [3,3  ] -> q^1 [2,2  ] (dual, single_term=yes)
shift by index 2:
  [     ] -> q^0 [3,3  ] (direct, single_term=yes)
  [1    ] -> q^1 [2    ] (direct, single_term=yes)
  [1,1  ] -> q^1 [3    ] (direct, single_term=yes)
  [2    ] -> q^1 [2,1  ] (direct, single_term=yes)
  [2,1  ] -> q^1 [3,1  ] (direct, single_term=yes)
  [2,2  ] -> q^2 [     ] (direct, single_term=yes)
  [3    ] -> q^1 [2,2  ] (direct, single_term=yes)
  [3,1  ] -> q^1 [3,2  ] (direct, single_term=yes)
  [3,2  ] -> q^2 [1    ] (direct, single_term=yes)
  [3,3  ] -> q^2 [1,1  ] (direct, single_term=yes)
shift by index 3:
  [     ] -> q^0 [2,2  ] (direct, single_term=yes)
  [1    ] -> q^0 [3,2  ] (direct, single_term=yes)
  [1,1  ] -> q^0 [3,3  ] (direct, single_term=yes)
  [2    ] -> q^1 [1    ] (direct, single_term=yes)
  [2,1  ] -> q^1 [2    ] (direct, single_term=yes)
  [2,2  ] -> q^1 [3    ] (direct, single_term=yes)
  [3    ] -> q^1 [1,1  ] (direct, single_term=yes)
  [3,1  ] -> q^1 [2,1  ] (direct, single_term=yes)
  [3,2  ] -> q^1 [3,1  ] (direct, single_term=yes)
  [3,3  ] -> q^2 [     ] (direct, single_term=yes)
shift by index 4:
  [     ] -> q^0 [1,1  ] (direct, single_term=yes)
  [1    ] -> q^0 [2,1  ] (direct, single_term=yes)
  [1,1  ] -> q^0 [2,2  ] (direct, single_term=yes)
  [2    ] -> q^0 [3,1  ] (direct, single_term=yes)
  [2,1  ] -> q^0 [3,2  ] (direct, single_term=yes)
  [2,2  ] -> q^0 [3,3  ] (direct, single_term=yes)
  [3    ] -> q^1 [     ] (direct, single_term=yes)
  [3,1  ] -> q^1 [1    ] (direct, single_term=yes)
  [3,2  ] -> q^1 [2    ] (direct, single_term=yes)
  [3,3  ] -> q^1 [3    ] (direct, single_term=yes)

all rows single-term
"""


def test_shift_table_full_output(capsys):
    assert load("shift_table").main(["--n", "5", "--k", "2"]) == 0
    assert capsys.readouterr().out == SHIFT_TABLE_5_2


@pytest.mark.parametrize("n,k", [("4", "0"), ("40", "2")])
def test_shift_table_rejects_bad_rank(capsys, n, k):
    with pytest.raises(SystemExit) as exc:
        load("shift_table").main(["--n", n, "--k", k])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and "error:" in err
