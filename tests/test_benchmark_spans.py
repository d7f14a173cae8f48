"""Traced runs of the benchmark's command lines reach every span.

The benchmark in ``perfbench/`` wraps the functions named in
``tracer.SPANS`` and reports a per-layer metric as missing when its
span is never reached, so renaming or bypassing a spanned function
breaks it.  These runs are small versions of the serial workloads; the
process-pool spans are left to the benchmark's own traced runs.
"""

import contextlib
import io
import sys
from pathlib import Path

import pytest

import qseidel.cli as cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
if str(PERFBENCH) not in sys.path:
    sys.path.insert(0, str(PERFBENCH))

import tracer  # noqa: E402


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--n-max", "6", "--format", "json"],
        ["verify", "--n-max", "16", "--mode", "sampled", "--sample-size", "10", "--format", "json"],
    ],
    ids=["exhaustive-n6", "sampled-n16"],
)
def test_traced_run_reaches_every_span(argv):
    installed = tracer.install(tracer.Trace())
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
    finally:
        installed.restore()
    assert code == 0
    assert installed.missing == []
    state = tracer.merge([installed.trace.state()])
    _, _, missing = tracer.per_layer(state, pool_expected=False)
    assert missing == []
