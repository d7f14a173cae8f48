"""Per-layer spans for the benchmark, recorded from outside the package.

``install`` wraps the functions named in SPANS wherever a qseidel module
binds them, so a name that ``neighborhoods`` imports from ``grassmann`` is
traced on both paths.  Each wrapper records one span per call (name,
start, end, and the enclosing span through the call stack) and returns the
wrapped function's result object unchanged.  Spans are folded into
per-name totals as they close; self time is the span's duration minus
the part its child spans cover (``stats.self_time``).

Pool workers forked by ``neighborhoods.sweep`` inherit the wrappers.  The
wrapper around ``multiprocessing.pool.mapstar`` (one call per chunk) starts
a fresh table in each worker and writes it to ``<dump_dir>/worker-<pid>.json``
after every chunk; the parent merges those files with its own table.
A worker started by ``spawn`` would not inherit the wrappers, and its
spans would show up as missing rather than as zero.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
import os
import pickle
from pathlib import Path
from time import perf_counter
from typing import Callable, Optional

from stats import nearest_rank, ratio, self_time, tail_percentile

MODULES = (
    "qseidel",
    "qseidel.perms",
    "qseidel.grassmann",
    "qseidel.quantum",
    "qseidel.neighborhoods",
    "qseidel.cli",
)

# span name -> (module, attribute path) of the function it wraps
SPANS = {
    "perms.min_coset_rep": ("qseidel.perms", "min_coset_rep"),
    "perms.parabolic_quotient": ("qseidel.perms", "parabolic_quotient"),
    "grassmann.k_subset_masks": ("qseidel.grassmann", "k_subset_masks"),
    "grassmann.fp_schubert_b": ("qseidel.grassmann", "fp_schubert_b"),
    "grassmann.fp_schubert_bminus": ("qseidel.grassmann", "fp_schubert_bminus"),
    "grassmann.translate_fp": ("qseidel.grassmann", "translate_fp"),
    "quantum.lr_coeff": ("qseidel.quantum", "lr_coeff"),
    "quantum.rim_hook_reduce": ("qseidel.quantum", "rim_hook_reduce"),
    "quantum.quantum_product": ("qseidel.quantum", "quantum_product"),
    "quantum.seidel_product_check": ("qseidel.quantum", "seidel_product_check"),
    "neighborhoods.fp_projected_schubert": ("qseidel.neighborhoods", "fp_projected_schubert"),
    "neighborhoods.fp_richardson": ("qseidel.neighborhoods", "fp_richardson"),
    "neighborhoods.gamma_fp": ("qseidel.neighborhoods", "gamma_fp"),
    "neighborhoods.g_flag_chain": ("qseidel.neighborhoods", "g_flag_chain"),
    "neighborhoods.chain_fixed_points": ("qseidel.neighborhoods", "chain_fixed_points"),
    "neighborhoods.verify_case": ("qseidel.neighborhoods", "verify_case"),
    "neighborhoods.sweep_cases": ("qseidel.neighborhoods", "sweep_cases"),
    "neighborhoods.SweepReport.record": ("qseidel.neighborhoods", "SweepReport.record"),
    "cli.dumps_json": ("qseidel.cli", "dumps_json"),
    # the process pool behind neighborhoods.sweep(jobs > 1)
    "pool.map": ("multiprocessing.pool", "Pool.map"),
    "pool.chunk": ("multiprocessing.pool", "mapstar"),
}
FP_SCHUBERT = ("grassmann.fp_schubert_b", "grassmann.fp_schubert_bminus")


class Frame:
    __slots__ = ("name", "start", "kids", "notes")

    def __init__(self, name: str, start: float) -> None:
        self.name = name
        self.start = start
        self.kids: list[tuple[float, float]] = []
        self.notes: dict[str, int] = {}

    def note(self, key: str, value: int) -> None:
        self.notes[key] = self.notes.get(key, 0) + value


class Trace:
    """Span totals of one process; ``reset`` starts a fresh table."""

    def __init__(self, dump_dir: Optional[Path] = None) -> None:
        self.dump_dir = dump_dir
        self.owner_pid = os.getpid()
        self.lr_cache = None
        self.reset()

    def reset(self) -> None:
        self.pid = os.getpid()
        self.stack: list[Frame] = []
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.total_s: dict[str, float] = {}
        self.counts: dict[str, int] = {}
        self.durations_ms: list[float] = []
        self.keys: set[str] = set()
        self.cache_base = self._cache_now()

    def watch_cache(self, fn) -> None:
        """Report the hits and misses of ``fn.cache_info()`` from now on."""
        self.lr_cache = fn
        self.cache_base = self._cache_now()

    def _cache_now(self) -> tuple[int, int]:
        if self.lr_cache is None:
            return (0, 0)
        info = self.lr_cache.cache_info()
        return (info.hits, info.misses)

    def add(self, key: str, value: int) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    def close(self, frame: Frame, end: float, parent: Optional[Frame]) -> None:
        name = frame.name
        self.calls[name] = self.calls.get(name, 0) + 1
        self.total_s[name] = self.total_s.get(name, 0.0) + (end - frame.start)
        self.self_s[name] = self.self_s.get(name, 0.0) + self_time(frame.start, end, frame.kids)
        if parent is not None:
            parent.kids.append((frame.start, end))
        if name == "neighborhoods.verify_case":
            self.durations_ms.append((end - frame.start) * 1000.0)

    def state(self) -> dict:
        hits, misses = self._cache_now()
        return {
            "calls": self.calls,
            "self_s": self.self_s,
            "total_s": self.total_s,
            "counts": self.counts,
            "durations_ms": self.durations_ms,
            "keys": sorted(self.keys),
            "lr_cache": [hits - self.cache_base[0], misses - self.cache_base[1]],
        }

    def worker_chunk_started(self) -> None:
        # first chunk in a forked worker: drop the table inherited from the parent
        if os.getpid() != self.pid:
            self.reset()

    def worker_chunk_done(self) -> None:
        if self.dump_dir is not None and os.getpid() != self.owner_pid:
            path = self.dump_dir / f"worker-{os.getpid()}.json"
            tmp = path.with_suffix(".tmp")
            tmp.write_text(json.dumps(self.state()))
            os.replace(tmp, path)


# -- observers: counters measured where the work happens ---------------------


def _bind(fn: Callable, args: tuple, kwargs: dict) -> dict:
    return inspect.signature(fn).bind(*args, **kwargs).arguments


def _obs_lr_coeff(tr, frame, parent, fn, args, kwargs, result):
    if result:
        tr.add("quantum.lr_coeff.nonzero", 1)


def _obs_rim_hook(tr, frame, parent, fn, args, kwargs, result):
    if result is not None:
        tr.add("quantum.rim_hook_reduce.useful", 1)


def _obs_k_subset_masks(tr, frame, parent, fn, args, kwargs, result):
    tr.add("grassmann.k_subset_masks.masks_built", len(result))
    if parent is not None and parent.name in FP_SCHUBERT:
        parent.note("scanned", len(result))


def _obs_fp_schubert(tr, frame, parent, fn, args, kwargs, result):
    tr.add("grassmann.fp_schubert.kept", len(result))
    tr.add("grassmann.fp_schubert.scanned", frame.notes.get("scanned", 0))
    if parent is not None:
        parent.note("fps", len(result))


def _obs_fp_projected(tr, frame, parent, fn, args, kwargs, result):
    a = _bind(fn, args, kwargs)
    k, n, d = a["k"], a["n"], a["d"]
    tr.keys.add(repr((a["side"], tuple(a["lam"]), d, k, n)))
    # each fixed point C yields C(k, k-d) inner and C(n-k, d) outer subsets
    generated = frame.notes.get("fps", 0) * math.comb(k, k - d) * math.comb(n - k, d)
    tr.add("neighborhoods.fp_projected_schubert.pairs_generated", generated)
    tr.add("neighborhoods.fp_projected_schubert.pairs_distinct", len(result))


def _obs_fp_richardson(tr, frame, parent, fn, args, kwargs, result):
    if parent is not None:
        parent.note("pairs", len(result))


def _obs_gamma_fp(tr, frame, parent, fn, args, kwargs, result):
    d = _bind(fn, args, kwargs)["d"]
    # each pair (A, B) has |B - A| = 2d and yields C(2d, d) candidates
    tr.add("neighborhoods.gamma_fp.generated", frame.notes.get("pairs", 0) * math.comb(2 * d, d))
    tr.add("neighborhoods.gamma_fp.distinct", len(result))


def _obs_sweep_cases(tr, frame, parent, fn, args, kwargs, result):
    tr.add("neighborhoods.sweep_cases.cases", len(result))


def _obs_pool_map(tr, frame, parent, fn, args, kwargs, result):
    # computed after the span closes: what the workers' results pickle to
    tr.add("neighborhoods.sweep.result_bytes", sum(len(pickle.dumps(r)) for r in result))


OBSERVERS = {
    "quantum.lr_coeff": _obs_lr_coeff,
    "quantum.rim_hook_reduce": _obs_rim_hook,
    "grassmann.k_subset_masks": _obs_k_subset_masks,
    "grassmann.fp_schubert_b": _obs_fp_schubert,
    "grassmann.fp_schubert_bminus": _obs_fp_schubert,
    "neighborhoods.fp_projected_schubert": _obs_fp_projected,
    "neighborhoods.fp_richardson": _obs_fp_richardson,
    "neighborhoods.gamma_fp": _obs_gamma_fp,
    "neighborhoods.sweep_cases": _obs_sweep_cases,
    "pool.map": _obs_pool_map,
}


def _wrap(tr: Trace, name: str, fn: Callable) -> Callable:
    observe = OBSERVERS.get(name)
    chunk = name == "pool.chunk"

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if chunk:
            tr.worker_chunk_started()
        stack = tr.stack
        frame = Frame(name, perf_counter())
        stack.append(frame)
        try:
            result = fn(*args, **kwargs)
        finally:
            end = perf_counter()
            stack.pop()
            parent = stack[-1] if stack else None
            tr.close(frame, end, parent)
        if observe is not None:
            observe(tr, frame, parent, fn, args, kwargs, result)
        if chunk:
            tr.worker_chunk_done()
        return result

    return traced


class Installed:
    """Wrappers put in place by ``install``; ``restore`` puts the originals back."""

    def __init__(self, trace: Trace) -> None:
        self.trace = trace
        self.missing: list[str] = []
        self.bound: dict[str, list[str]] = {}
        self._undo: list[tuple[object, str, object]] = []

    def _set(self, owner: object, attr: str, value: object) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


def _resolve(module: str, path: str) -> tuple[object, str, object]:
    owner = importlib.import_module(module)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr, getattr(owner, attr)


def install(trace: Trace, names=SPANS) -> Installed:
    """Wrap every function in ``names`` wherever the qseidel modules bind it.

    Names whose target no longer exists are listed in ``missing``.
    """
    inst = Installed(trace)
    modules = [importlib.import_module(m) for m in MODULES]
    for name, (module, path) in names.items():
        try:
            owner, attr, fn = _resolve(module, path)
        except (ImportError, AttributeError):
            inst.missing.append(name)
            continue
        if name == "quantum.lr_coeff":
            trace.watch_cache(fn)
        wrapper = _wrap(trace, name, fn)
        inst._set(owner, attr, wrapper)
        where = [f"{getattr(owner, '__name__', module)}.{attr}"]
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is fn:
                    inst._set(mod, key, wrapper)
                    where.append(f"{mod.__name__}.{key}")
        inst.bound[name] = where
    return inst


def merge(states: list[dict]) -> dict:
    """Sum the tables of several processes (the parent and its workers)."""
    out = {"calls": {}, "self_s": {}, "total_s": {}, "counts": {}, "durations_ms": [], "keys": set()}
    cache = [0, 0]
    for st in states:
        for table in ("calls", "self_s", "total_s", "counts"):
            for key, value in st[table].items():
                out[table][key] = out[table].get(key, 0) + value
        out["durations_ms"].extend(st["durations_ms"])
        out["keys"].update(st["keys"])
        cache = [cache[0] + st["lr_cache"][0], cache[1] + st["lr_cache"][1]]
    out["keys"] = sorted(out["keys"])
    out["lr_cache"] = cache
    return out


# -- per-layer metrics ------------------------------------------------------

SELF_S = (
    "quantum.seidel_product_check",
    "quantum.quantum_product",
    "quantum.lr_coeff",
    "grassmann.fp_schubert_b",
    "grassmann.fp_schubert_bminus",
    "grassmann.translate_fp",
    "neighborhoods.fp_projected_schubert",
    "neighborhoods.fp_richardson",
    "neighborhoods.gamma_fp",
    "neighborhoods.g_flag_chain",
    "neighborhoods.chain_fixed_points",
    "perms.parabolic_quotient",
    "perms.min_coset_rep",
)
CALLS = (
    "quantum.seidel_product_check",
    "quantum.quantum_product",
    "quantum.lr_coeff",
    "quantum.rim_hook_reduce",
    "grassmann.fp_schubert_b",
    "grassmann.fp_schubert_bminus",
    "grassmann.translate_fp",
    "grassmann.k_subset_masks",
    "neighborhoods.fp_projected_schubert",
    "neighborhoods.verify_case",
    "perms.parabolic_quotient",
    "perms.min_coset_rep",
)


def per_layer(state: dict, pool_expected: bool):
    """Per-layer metrics from a merged table.

    Returns (metrics, notes, missing): metrics maps name -> (value, unit);
    notes gives each ratio its "numerator / base" and the tail latency its
    percentile; missing lists every metric whose span was never reached or
    whose ratio has a zero base.  Pool metrics read 0 on a serial sweep,
    where no pool runs.
    """
    calls, self_s, total_s, counts = state["calls"], state["self_s"], state["total_s"], state["counts"]
    metrics: dict[str, tuple[float, str]] = {}
    notes: dict[str, str] = {}
    missing: list[str] = []

    def reached(span: str) -> bool:
        return calls.get(span, 0) > 0

    def seen(span: str, value):
        return value if reached(span) else None

    def put(name: str, value, unit: str) -> None:
        if value is None:
            missing.append(name)
        else:
            metrics[name] = (value, unit)

    def put_ratio(name: str, num: float, base: float) -> None:
        notes[name] = f"{num} / {base}"
        put(name, ratio(num, base), "ratio")

    for span in SELF_S:
        put(f"{span}.self_s", seen(span, self_s.get(span)), "s")
    for span in CALLS:
        put(f"{span}.calls", seen(span, calls.get(span)), "count")

    hits, misses = state["lr_cache"]
    put_ratio("quantum.lr_coeff.hit_ratio", hits, hits + misses)
    put_ratio("quantum.lr_coeff.nonzero_ratio", counts.get("quantum.lr_coeff.nonzero", 0),
              calls.get("quantum.lr_coeff", 0))
    put_ratio("quantum.rim_hook_reduce.useful_ratio", counts.get("quantum.rim_hook_reduce.useful", 0),
              calls.get("quantum.rim_hook_reduce", 0))

    ksm = "grassmann.k_subset_masks"
    put(f"{ksm}.masks_built", seen(ksm, counts.get(f"{ksm}.masks_built")), "count")
    put_ratio("grassmann.fp_schubert.kept_ratio", counts.get("grassmann.fp_schubert.kept", 0),
              counts.get("grassmann.fp_schubert.scanned", 0))

    fpp = "neighborhoods.fp_projected_schubert"
    put_ratio(f"{fpp}.repeat_ratio", calls.get(fpp, 0) - len(state["keys"]), calls.get(fpp, 0))
    put_ratio(f"{fpp}.dedup_ratio", counts.get(f"{fpp}.pairs_distinct", 0),
              counts.get(f"{fpp}.pairs_generated", 0))
    put_ratio("neighborhoods.gamma_fp.useful_ratio", counts.get("neighborhoods.gamma_fp.distinct", 0),
              counts.get("neighborhoods.gamma_fp.generated", 0))

    durations = sorted(state["durations_ms"])
    if durations:
        pct, tail = tail_percentile(durations)
        put("neighborhoods.verify_case.p50_ms", nearest_rank(durations, 50), "ms")
        put("neighborhoods.verify_case.tail_ms", tail, "ms")
        notes["neighborhoods.verify_case.tail_ms"] = f"p{pct:g} of {len(durations)} cases"
        put("neighborhoods.verify_case.max_ms", durations[-1], "ms")
    else:
        for m in ("p50_ms", "tail_ms", "max_ms"):
            missing.append(f"neighborhoods.verify_case.{m}")

    sc = "neighborhoods.sweep_cases"
    put(f"{sc}.s", seen(sc, total_s.get(sc)), "s")
    put(f"{sc}.cases", seen(sc, counts.get(f"{sc}.cases")), "count")

    def pool(span: str, value):
        return seen(span, value) if pool_expected or reached(span) else 0

    put("neighborhoods.sweep.pool_s", pool("pool.map", total_s.get("pool.map")), "s")
    put("neighborhoods.sweep.chunks", pool("pool.chunk", calls.get("pool.chunk")), "count")
    put("neighborhoods.sweep.result_bytes",
        pool("pool.map", counts.get("neighborhoods.sweep.result_bytes")), "computed_bytes")

    render = ("neighborhoods.SweepReport.record", "cli.dumps_json")
    put("cli.render.self_s",
        sum(self_s[s] for s in render) if all(reached(s) for s in render) else None, "s")
    return metrics, notes, missing
