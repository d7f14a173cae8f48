"""Every README example that shows output prints exactly that output.

An example is a ``$ `` line inside a fenced block; its output is every
line up to the next ``$ `` line or the closing fence, without trailing
blank lines.  A pipeline runs stage by stage in this process: ``qseidel``
through ``qseidel.cli.main`` and ``python scripts/NAME.py`` through the
script's ``main``, each stage reading the previous stage's output.
"""

import io
import shlex
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from qseidel.cli import main as qseidel_main
from test_scripts import load

README = Path(__file__).resolve().parent.parent / "README.md"


def readme_examples(text: str) -> list[tuple[str, str]]:
    """(command line, expected stdout) for every example that shows output."""
    examples = []
    fence_indent = None
    for line in text.splitlines():
        stripped = line.lstrip()
        if stripped.startswith("```"):
            fence_indent = None if fence_indent is not None else len(line) - len(stripped)
            continue
        if fence_indent is None:
            continue
        line = line[fence_indent:]
        if line.startswith("$ "):
            examples.append((line[2:], []))
        elif examples:
            examples[-1][1].append(line)
    out = []
    for command, lines in examples:
        while lines and not lines[-1].strip():
            lines.pop()
        if lines:
            out.append((command, "\n".join(lines) + "\n"))
    return out


EXAMPLES = readme_examples(README.read_text())


def run_stage(argv: list[str], stdin: str, monkeypatch) -> str:
    if argv[0] == "qseidel":
        entry, args = qseidel_main, argv[1:]
    elif argv[0] == "python" and argv[1].startswith("scripts/"):
        entry, args = load(Path(argv[1]).stem).main, argv[2:]
    else:
        raise AssertionError(f"no runner for README command {argv}")
    monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    buf = io.StringIO()
    with redirect_stdout(buf):
        entry(args)
    return buf.getvalue()


def run_pipeline(command: str, monkeypatch) -> str:
    stages = [[]]
    for token in shlex.split(command):
        if token == "|":
            stages.append([])
        else:
            stages[-1].append(token)
    text = ""
    for argv in stages:
        text = run_stage(argv, text, monkeypatch)
    return text


def test_examples_cover_every_subcommand_and_the_sweep_table():
    firsts = {shlex.split(command)[1] for command, _ in EXAMPLES}
    assert {"verify", "product", "degree", "neighborhood", "join"} <= firsts
    assert any("scripts/sweep_table.py" in command for command, _ in EXAMPLES)


@pytest.mark.parametrize("command,expected", EXAMPLES, ids=[c for c, _ in EXAMPLES])
def test_readme_example(command, expected, monkeypatch):
    assert run_pipeline(command, monkeypatch) == expected
