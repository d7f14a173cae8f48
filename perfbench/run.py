"""qseidel benchmark: how fast a verification sweep finishes, and what it costs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all       # every workload, untraced and traced

Run from the root of a checkout; the program is imported from ``src/``.
Every sweep runs ``qseidel.cli.main([...])`` in a fresh interpreter
(``child.py``), so ``lr_coeff``'s cache starts cold as it does for each
command-line invocation, and every report is checked against its pinned
sha256.

With ``--trace 0`` the benchmark repeats the workload's sweep for about S
seconds (closed loop, one sweep at a time) and reports, as medians:

* ``cases_per_s``: cases verified per second of the ``cli.main`` call,
  rendering included;
* ``setup_s``: from starting a fresh interpreter until ``qseidel.cli`` is
  imported, the median of SETUP_PROBES_PER_SWEEP interpreters started
  before each sweep;
* ``peak_rss_mb``: peak RSS of the sweep's process, or of its largest pool
  worker if that is larger.

With ``--trace 1`` it runs the sweep once untraced and once with the spans
of ``tracer.py`` installed, checks that both reports are the pinned one,
and reports the per-layer metrics of ``tracer.per_layer`` plus
``cli.report_bytes`` and ``trace.overhead_s`` (traced minus untraced time
of the ``cli.main`` call; it can read below zero on sampled-n16, whose few
hundred wrapped calls cost less than the noise between two sweeps).  A
metric whose span is never reached is printed as missing and left out of
the result line.

The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; a results file with the
environment goes to ``perfbench/out/``.  A sweep that crashes, exits
non-zero or prints another report than the pinned one counts all of its
cases as failed.  ``parallel-n9`` needs two cores; with fewer it exits
with code 3 as unresolved instead of oversubscribing.

The benchmark's own arithmetic is tested by ``python3 -m pytest perfbench/tests``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import tracer
from stats import spread

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# sha256 of the JSON reports at the commit that defined this benchmark
DIGEST_N8 = "ffe506bdf065ba9bfaec2cb9461460ee78ff3dbf14c118e54d64b3b912c59cd4"
DIGEST_N9 = "355cfd4f0c5a7b5f15696e9c33d3cdfece0134192c2dedef8fdb10b57368a41c"
DIGEST_N16_SAMPLED = "c6c9fe5eba09a6e656e63f9f340a8bb678be89c95b3977020068e4251b1cafec"

# The timed sampled sweep uses the CLI's default seed: per-case cost at
# n = 16 spans 0.01-6 s, so a fresh sample per benchmark seed would move
# cases_per_s by more than any bound.  The benchmark seed picks a smaller
# sample that is checked but not timed.
SAMPLE_SIZE = 10
CHECK_SAMPLE_SIZE = 3
SETUP_PROBES_PER_SWEEP = 5
RUN_LIMIT_S = 170.0  # a run must end within 180 s


@dataclass(frozen=True)
class Workload:
    argv: tuple[str, ...]
    cases: int
    digest: str
    jobs: int = 1


N9 = ("verify", "--n-max", "9", "--format", "json")
WORKLOADS = {
    "exhaustive-n9": Workload(N9, 8104, DIGEST_N9),
    "parallel-n9": Workload(N9 + ("--jobs", "2"), 8104, DIGEST_N9, jobs=2),
    "sampled-n16": Workload(
        ("verify", "--n-max", "16", "--mode", "sampled", "--sample-size", str(SAMPLE_SIZE),
         "--format", "json"),
        SAMPLE_SIZE,
        DIGEST_N16_SAMPLED,
    ),
}

END_TO_END_UNITS = {"cases_per_s": "cases/s", "setup_s": "s", "peak_rss_mb": "MB"}


class Unresolved(Exception):
    """The workload cannot be measured on this machine."""


@dataclass
class Sweep:
    ok: bool
    cases: int
    failed: int
    elapsed_s: float
    wall_s: float
    peak_rss_mb: float
    digest: Optional[str]
    bytes: int
    note: str = ""
    trace: Optional[dict] = None
    missing_spans: list = field(default_factory=list)


class Runner:
    """Starts child interpreters one at a time and checks what they return."""

    def __init__(self, work_dir: Path, started: float) -> None:
        self.work_dir = work_dir
        self.started = started
        self.count = 0
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))

    def remaining(self) -> float:
        return RUN_LIMIT_S - (time.monotonic() - self.started)

    def _run(self, cmd: list[str]) -> tuple[int, str, str]:
        proc = subprocess.Popen(cmd, env=self.env, cwd=ROOT, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True, start_new_session=True)
        try:
            out, err = proc.communicate(timeout=max(1.0, self.remaining()))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            out, err = proc.communicate()
            return -9, out, err + "\ntimed out"
        return proc.returncode, out, err

    def setup_probe(self) -> float:
        """Seconds from starting an interpreter until qseidel.cli is imported."""
        code = "import qseidel.cli\nimport time\nprint(time.monotonic(), qseidel.cli.__file__)"
        t0 = time.monotonic()
        rc, out, err = self._run([sys.executable, "-c", code])
        if rc != 0:
            raise RuntimeError(f"import of qseidel.cli failed:\n{err}")
        stamp, where = out.split(maxsplit=1)
        if Path(where.strip()).resolve().parent.parent != (ROOT / "src").resolve():
            raise RuntimeError(f"qseidel.cli imported from {where.strip()}, not from src/")
        return float(stamp) - t0

    def sweep(self, argv: tuple[str, ...], expect_cases: int, digest: Optional[str],
              traced: bool = False) -> Sweep:
        self.count += 1
        out = self.work_dir / f"sweep-{self.count}.json"
        cmd = [sys.executable, str(HERE / "child.py"), "--src", str(ROOT / "src"), "--out", str(out)]
        if traced:
            cmd += ["--trace", str(self.work_dir / f"trace-{self.count}")]
        cmd += ["--", *argv]
        t0 = time.monotonic()
        rc, _, err = self._run(cmd)
        wall = time.monotonic() - t0
        if rc != 0 or not out.is_file():
            return Sweep(False, expect_cases, expect_cases, 0.0, wall, 0.0, None, 0,
                         note=f"child exited {rc}: {err.strip()[-500:]}")
        res = json.loads(out.read_text())
        peak = max(res["rss_self_kb"], res["rss_children_kb"]) / 1024.0
        problems = []
        if res["code"] != 0:
            problems.append(f"qseidel exited {res['code']}")
        if digest is not None and res["digest"] != digest:
            problems.append(f"report sha256 {res['digest'][:12]}… is not the pinned {digest[:12]}…")
        if res["total"] != expect_cases:
            problems.append(f"report has {res['total']} cases, expected {expect_cases}")
        if res["fail"] != 0:
            problems.append(f"report has {res['fail']} failed cases")
        ok = not problems
        return Sweep(
            ok=ok,
            cases=expect_cases,
            failed=0 if ok else expect_cases,
            elapsed_s=res["elapsed_s"],
            wall_s=wall,
            peak_rss_mb=peak,
            digest=res["digest"],
            bytes=res["bytes"],
            note="; ".join(problems),
            trace=res.get("trace"),
            missing_spans=res.get("missing_spans", []),
        )


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def git_commit() -> Optional[str]:
    if shutil.which("git") is None or not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment(name: str, seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": nproc(),
        "platform": platform.platform(),
        "git_commit": git_commit(),
        "workload": name,
        "seed": seed,
        "sample_size": SAMPLE_SIZE if name == "sampled-n16" else None,
        "sample_seed": 0 if name == "sampled-n16" else None,
        "check_sample_size": CHECK_SAMPLE_SIZE if name == "sampled-n16" else None,
        "check_sample_seed": seed if name == "sampled-n16" else None,
    }


def quartiles_note(values: list[float]) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"n={len(values)}, q1 {q1:.6g}, q3 {q3:.6g}"


def measure(name: str, seed: int, seconds: int, runner: Runner, lines: list[str]) -> dict:
    """Untraced run: repeat the sweep for about ``seconds``; end-to-end metrics."""
    wl = WORKLOADS[name]
    sweeps: list[Sweep] = []
    if name == "sampled-n16":
        argv = ("verify", "--n-max", "16", "--mode", "sampled", "--sample-size",
                str(CHECK_SAMPLE_SIZE), "--seed", str(seed), "--format", "json")
        check = runner.sweep(argv, CHECK_SAMPLE_SIZE, digest=None)
        lines.append(f"{name}: check sample seed={seed} size={CHECK_SAMPLE_SIZE}: "
                     f"{'ok' if check.ok else 'FAILED ' + check.note}")
        sweeps.append(check)

    runner.setup_probe()  # compiles bytecode; not counted
    setup: list[float] = []
    timed: list[Sweep] = []
    deadline = time.monotonic() + seconds
    while True:
        # probes go between sweeps so that they sample the whole run
        setup += [runner.setup_probe() for _ in range(SETUP_PROBES_PER_SWEEP)]
        sw = runner.sweep(wl.argv, wl.cases, wl.digest)
        timed.append(sw)
        if not sw.ok:
            lines.append(f"{name}: sweep {len(timed)} FAILED: {sw.note}")
            break
        typical = statistics.median(s.wall_s for s in timed)
        if time.monotonic() + typical > deadline or runner.remaining() < 2 * typical:
            break
    sweeps += timed

    good = [s for s in timed if s.ok]
    rates = [s.cases / s.elapsed_s for s in good]
    rss = [s.peak_rss_mb for s in good]
    metrics = {}
    samples = {}
    if good:
        metrics["cases_per_s"] = statistics.median(rates)
        metrics["peak_rss_mb"] = statistics.median(rss)
        samples["cases_per_s"] = rates
        samples["peak_rss_mb"] = rss
    metrics["setup_s"] = statistics.median(setup)
    samples["setup_s"] = setup
    for m, unit in END_TO_END_UNITS.items():
        if m in metrics:
            what = "interpreters" if m == "setup_s" else "sweeps"
            lines.append(f"{name}  {m:<12} {metrics[m]:12.6g} {unit:<8} median of {len(samples[m])} "
                         f"{what} ({quartiles_note(samples[m])})")
        else:
            lines.append(f"{name}  {m:<12} missing (no correct sweep)")
    return {"metrics": metrics, "samples": samples, "sweeps": sweeps,
            "units": END_TO_END_UNITS, "missing": [m for m in END_TO_END_UNITS if m not in metrics]}


def measure_traced(name: str, runner: Runner, lines: list[str]) -> dict:
    """Traced run: one untraced and one traced sweep; per-layer metrics."""
    wl = WORKLOADS[name]
    plain = runner.sweep(wl.argv, wl.cases, wl.digest)
    traced = runner.sweep(wl.argv, wl.cases, wl.digest, traced=True)
    sweeps = [plain, traced]
    # both reports are checked against the pinned digest, so a traced run
    # that changed any result fails here
    for label, sw in (("untraced", plain), ("traced", traced)):
        if not sw.ok:
            lines.append(f"{name}: {label} sweep FAILED: {sw.note}")

    metrics: dict[str, float] = {}
    units: dict[str, str] = {}
    notes: dict[str, str] = {}
    missing: list[str] = []
    if traced.ok and traced.trace is not None:
        layer, notes, missing = tracer.per_layer(traced.trace, pool_expected=wl.jobs > 1)
        for key, (value, unit) in layer.items():
            metrics[key], units[key] = value, unit
        metrics["cli.report_bytes"], units["cli.report_bytes"] = traced.bytes, "bytes"
        if plain.ok:
            metrics["trace.overhead_s"] = traced.elapsed_s - plain.elapsed_s
            units["trace.overhead_s"] = "s"
        else:
            missing.append("trace.overhead_s")
        for span in traced.missing_spans:
            lines.append(f"{name}: traced name {span} not found in the program")
    for key in metrics:
        note = f"  ({notes[key]})" if key in notes else ""
        lines.append(f"{name}  {key:<52} {metrics[key]:14.6g} {units[key]}{note}")
    for key in missing:
        lines.append(f"{name}  {key:<52} MISSING")
    return {"metrics": metrics, "units": units, "notes": notes, "missing": missing,
            "sweeps": sweeps, "samples": {}}


def run_one(name: str, seed: int, seconds: int, trace: int, started: float) -> dict:
    if name == "parallel-n9" and nproc() < WORKLOADS[name].jobs:
        raise Unresolved(f"{name} needs {WORKLOADS[name].jobs} cores, nproc is {nproc()}")
    out_dir = HERE / "out"
    work = out_dir / f"work-{os.getpid()}-{name}-{trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    lines: list[str] = [f"# {name} seed={seed} seconds={seconds} trace={trace} "
                        f"nproc={nproc()} python={platform.python_version()}"]
    runner = Runner(work, started)
    try:
        if trace:
            res = measure_traced(name, runner, lines)
        else:
            res = measure(name, seed, seconds, runner, lines)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    attempted = sum(s.cases for s in res["sweeps"])
    failed = sum(s.failed for s in res["sweeps"])
    correct = all(s.ok for s in res["sweeps"])
    lines.append(f"{name}  fail_frac {failed / attempted:.6g} ({failed} failed / {attempted} attempted)")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": res["units"][k]} for k, v in res["metrics"].items()},
    }
    record = {
        "environment": environment(name, seed),
        "seconds": seconds,
        "trace": trace,
        "result": result,
        "missing": res["missing"],
        "notes": res.get("notes", {}),
        "samples": res["samples"],
        "spread": {k: spread(v) for k, v in res["samples"].items()},
        "sweeps": [{k: v for k, v in vars(s).items() if k != "trace"} for s in res["sweeps"]],
    }
    (out_dir / f"results-{name}-seed{seed}-trace{trace}.json").write_text(json.dumps(record, indent=1))
    print("\n".join(lines), flush=True)
    return result


def main(argv: Optional[list[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = ap.parse_args(argv)
    started = time.monotonic()
    if not (ROOT / "src" / "qseidel" / "cli.py").is_file():
        print(f"error: no program source at {ROOT / 'src' / 'qseidel'}", file=sys.stderr)
        return 2
    try:
        if opts.workload != "all":
            result = run_one(opts.workload, opts.seed, opts.seconds, opts.trace, started)
            print(json.dumps(result))
            return 0 if result["correct"] else 1
        combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
        for trace in (0, 1):
            for name in WORKLOADS:
                try:
                    result = run_one(name, opts.seed, opts.seconds, trace, time.monotonic())
                except Unresolved as why:
                    print(f"# {name}: unresolved: {why}", flush=True)
                    continue
                combined["correct"] &= result["correct"]
                combined["attempted"] += result["attempted"]
                combined["failed"] += result["failed"]
                for key, value in result["metrics"].items():
                    combined["metrics"][f"{name}/{key}"] = value
        print(json.dumps(combined))
        return 0 if combined["correct"] else 1
    except Unresolved as why:
        print(f"unresolved: {why}", file=sys.stderr)
        return 3
    except RuntimeError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
