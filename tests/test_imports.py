"""Every imported name is used somewhere in the module that imports it.

A name counts as used when the module reads it (``Name`` or the base of an
attribute chain) or lists it in ``__all__``.  ``from __future__`` imports
are directives, not names.

Importing the command line loads only what every run uses; the modules
of one kind of run are imported where that run needs them.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted(
    p
    for d in ("src/qseidel", "scripts", "tests")
    for p in (ROOT / d).glob("*.py")
)


def imported_names(tree: ast.Module) -> dict[str, int]:
    """Bound name -> line of every import in the module."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                out[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                out[alias.asname or alias.name] = node.lineno
    return out


def used_names(tree: ast.Module) -> set[str]:
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return used


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    used = used_names(tree)
    return [
        f"line {line}: {name}"
        for name, line in sorted(imported_names(tree).items(), key=lambda kv: kv[1])
        if name not in used
    ]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_detects_an_unused_import():
    src = "import os\nimport sys\nfrom typing import Optional, Sequence\nprint(sys.argv)\n"
    assert unused_imports(src) == ["line 1: os", "line 3: Optional", "line 3: Sequence"]


def test_counts_attribute_bases_and_all():
    src = "import os.path\nfrom x import y\n__all__ = ['y']\nos.path.join('a')\n"
    assert unused_imports(src) == []


def test_cli_import_defers_what_only_some_runs_use():
    # -S keeps site hooks of the host from loading modules of their own
    script = "import sys, qseidel.cli; print(' '.join(sorted(sys.modules)))"
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-S", "-c", script],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        check=True,
    )
    loaded = set(proc.stdout.split())
    assert "qseidel.cli" in loaded
    # the pool (--jobs > 1), the CSV writer (--format csv), the sampler
    # (--mode sampled), and dataclasses with the inspect it pulls in
    assert loaded.isdisjoint({"multiprocessing", "csv", "random", "dataclasses", "inspect"})
