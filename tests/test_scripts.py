import importlib.util
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize(
    "argv",
    [
        ["--n-max", "3", "--seed", "1"],
        ["--n-max", "3", "--sample-size", "4"],
        ["--n-max", "3", "--mode", "sampled", "--sample-size", "-1"],
    ],
)
def test_run_sweep_rejects_options_of_the_other_mode(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        load("run_sweep").main(argv)
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and "error:" in err


def test_run_sweep_table(capsys):
    assert load("run_sweep").main(["--n-max", "3"]) == 0
    out = capsys.readouterr().out
    assert "degree histogram: {0: 15, 1: 7}" in out
    assert "22 cases in" in out


def test_shift_table_frames(capsys):
    assert load("shift_table").main(["--n", "4", "--k", "3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "  [1      ] -> q^0 [1      ] (direct, single_term=yes)" in lines
    assert "(dual, single_term=yes)" in lines[lines.index("shift by index 1:") + 1]
    assert lines[-1] == "all rows single-term"


def test_run_sweep_rejects_n_max_above_rank_cap(capsys):
    with pytest.raises(SystemExit) as exc:
        load("run_sweep").main(["--n-max", "17"])
    assert exc.value.code == 2
    assert "rank cap" in capsys.readouterr().err


@pytest.mark.parametrize("n,k", [("4", "0"), ("40", "2")])
def test_shift_table_rejects_bad_rank(capsys, n, k):
    with pytest.raises(SystemExit) as exc:
        load("shift_table").main(["--n", n, "--k", k])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and "error:" in err
