"""Run one ``qseidel`` command line in this fresh interpreter and report on it.

    python3 perfbench/child.py --src SRC --out OUT.json [--trace DIR] -- ARGS...

Imports ``qseidel.cli`` from SRC, calls ``cli.main(ARGS)`` with stdout
captured, and writes to OUT.json the exit code, the wall time of the call,
the sha256 of the captured report, its case totals, and the peak RSS of
this process and of its largest reaped child (a pool worker).  With
``--trace`` the functions in ``tracer.SPANS`` are wrapped first; the merged
span table of this process and its pool workers (which write their tables
under DIR) goes into OUT.json too.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import sys
from pathlib import Path
from time import perf_counter


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--src", type=Path, required=True)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--trace", type=Path, default=None)
    ap.add_argument("argv", nargs="+")
    opts = ap.parse_args()

    import qseidel.cli as cli

    where = Path(cli.__file__).resolve().parent.parent
    if where != opts.src.resolve():
        print(f"child: qseidel imported from {where}, expected {opts.src}", file=sys.stderr)
        return 2

    installed = None
    if opts.trace is not None:
        import tracer

        opts.trace.mkdir(parents=True, exist_ok=True)
        installed = tracer.install(tracer.Trace(dump_dir=opts.trace))

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        t0 = perf_counter()
        code = cli.main(opts.argv)
        elapsed = perf_counter() - t0

    text = buf.getvalue()
    data = text.encode()
    out = {
        "code": code,
        "elapsed_s": elapsed,
        "digest": hashlib.sha256(data).hexdigest(),
        "bytes": len(data),
        "rss_self_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "rss_children_kb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    }
    try:
        report = json.loads(text)
        out["total"], out["fail"] = report["total"], report["fail"]
    except (ValueError, KeyError, TypeError):
        out["total"] = out["fail"] = None

    if installed is not None:
        import tracer

        installed.restore()
        states = [installed.trace.state()]
        states += [json.loads(p.read_text()) for p in sorted(opts.trace.glob("worker-*.json"))]
        out["trace"] = tracer.merge(states)
        out["trace_processes"] = len(states)
        out["missing_spans"] = installed.missing
        out["bound"] = installed.bound

    opts.out.write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
