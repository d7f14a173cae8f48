"""Tracing wrappers: what they wrap, that they change no result, and the
per-layer metrics derived from their tables."""

import contextlib
import hashlib
import io

import pytest

import qseidel
import qseidel.cli as cli
from qseidel import grassmann, neighborhoods, quantum

import run
import tracer


@pytest.fixture
def installed():
    inst = tracer.install(tracer.Trace())
    try:
        yield inst
    finally:
        inst.restore()


def run_cli(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def test_imported_names_are_wrapped_and_restored():
    orig = grassmann.fp_schubert_b
    inst = tracer.install(tracer.Trace())
    try:
        assert not inst.missing
        assert grassmann.fp_schubert_b is not orig
        assert neighborhoods.fp_schubert_b is grassmann.fp_schubert_b
        assert qseidel.fp_schubert_b is grassmann.fp_schubert_b
        assert "qseidel.neighborhoods.fp_schubert_b" in inst.bound["grassmann.fp_schubert_b"]
    finally:
        inst.restore()
    assert grassmann.fp_schubert_b is orig
    assert neighborhoods.fp_schubert_b is orig
    assert qseidel.fp_schubert_b is orig


def test_missing_target_is_reported():
    inst = tracer.install(tracer.Trace(), {"neighborhoods.gone": ("qseidel.neighborhoods", "no_such_fn")})
    inst.restore()
    assert inst.missing == ["neighborhoods.gone"]


def test_wrapped_functions_return_the_same_results(installed):
    originals = {name: fn for name, fn in [
        ("fp_schubert_b", grassmann.fp_schubert_b.__wrapped__),
        ("gamma_fp", neighborhoods.gamma_fp.__wrapped__),
        ("lr_coeff", quantum.lr_coeff.__wrapped__),
    ]}
    assert grassmann.fp_schubert_b((2, 1), 3, 6) == originals["fp_schubert_b"]((2, 1), 3, 6)
    assert neighborhoods.gamma_fp((), (1,), 1, 2, 4) == originals["gamma_fp"]((), (1,), 1, 2, 4)
    assert quantum.lr_coeff((2, 1), (2, 1), (3, 2, 1)) == 2 == originals["lr_coeff"]((2, 1), (2, 1), (3, 2, 1))


def test_traced_report_is_byte_identical():
    plain = run_cli(["verify", "--n-max", "6", "--format", "json"])
    inst = tracer.install(tracer.Trace())
    try:
        traced = run_cli(["verify", "--n-max", "6", "--format", "json"])
    finally:
        inst.restore()
    assert traced == plain
    assert inst.trace.calls["neighborhoods.verify_case"] == len(neighborhoods.sweep_cases(6))


def test_self_times_partition_the_top_span(installed):
    neighborhoods.gamma_fp((2, 2), (3, 1), 1, 3, 7)
    tr = installed.trace
    assert tr.calls["neighborhoods.gamma_fp"] == 1
    assert tr.calls["neighborhoods.fp_projected_schubert"] == 2
    assert sum(tr.self_s.values()) == pytest.approx(tr.total_s["neighborhoods.gamma_fp"])
    assert not tr.stack


def test_exceptions_pass_through_and_close_the_span(installed):
    with pytest.raises(ValueError):
        neighborhoods.g_flag_chain((1,), 2, 5, 2, 4)
    assert installed.trace.calls["neighborhoods.g_flag_chain"] == 1
    assert not installed.trace.stack


def synthetic_state(**over):
    calls = {name: 4 for name in tracer.SPANS}
    state = {
        "calls": calls,
        "self_s": {name: 0.5 for name in tracer.SPANS},
        "total_s": {name: 1.0 for name in tracer.SPANS},
        "counts": {
            "quantum.lr_coeff.nonzero": 1,
            "quantum.rim_hook_reduce.useful": 4,
            "grassmann.fp_schubert.kept": 3,
            "grassmann.fp_schubert.scanned": 12,
            "neighborhoods.fp_projected_schubert.pairs_generated": 10,
            "neighborhoods.fp_projected_schubert.pairs_distinct": 5,
            "neighborhoods.gamma_fp.generated": 8,
            "neighborhoods.gamma_fp.distinct": 2,
            "grassmann.k_subset_masks.masks_built": 12,
            "neighborhoods.sweep_cases.cases": 4,
            "neighborhoods.sweep.result_bytes": 4000,
        },
        "durations_ms": [1.0, 2.0, 3.0, 4.0],
        "keys": ["a"],
        "lr_cache": [3, 1],
    }
    state.update(over)
    return state


def test_per_layer_ratios_carry_their_bases():
    metrics, notes, missing = tracer.per_layer(synthetic_state(), pool_expected=True)
    assert not missing
    assert metrics["quantum.lr_coeff.hit_ratio"] == (0.75, "ratio")
    assert notes["quantum.lr_coeff.hit_ratio"] == "3 / 4"
    assert metrics["quantum.lr_coeff.nonzero_ratio"][0] == 0.25
    assert metrics["grassmann.fp_schubert.kept_ratio"][0] == 0.25
    assert metrics["neighborhoods.fp_projected_schubert.repeat_ratio"][0] == 0.75  # 1 distinct of 4
    assert metrics["neighborhoods.fp_projected_schubert.dedup_ratio"][0] == 0.5
    assert metrics["neighborhoods.gamma_fp.useful_ratio"][0] == 0.25
    assert metrics["cli.render.self_s"][0] == 1.0
    assert metrics["neighborhoods.sweep.chunks"] == (4, "count")
    assert metrics["neighborhoods.verify_case.tail_ms"] == (2.0, "ms")
    assert notes["neighborhoods.verify_case.tail_ms"] == "p50 of 4 cases"


def test_unreached_spans_are_missing_not_zero():
    state = synthetic_state()
    state["calls"]["grassmann.fp_schubert_bminus"] = 0
    state["calls"]["pool.map"] = 0
    state["counts"]["grassmann.fp_schubert.scanned"] = 0
    metrics, _, missing = tracer.per_layer(state, pool_expected=True)
    for name in (
        "grassmann.fp_schubert_bminus.self_s",
        "grassmann.fp_schubert_bminus.calls",
        "grassmann.fp_schubert.kept_ratio",
        "neighborhoods.sweep.pool_s",
        "neighborhoods.sweep.result_bytes",
    ):
        assert name in missing
        assert name not in metrics


def test_pool_metrics_read_zero_on_a_serial_sweep():
    state = synthetic_state()
    for span in ("pool.map", "pool.chunk"):
        del state["calls"][span], state["self_s"][span], state["total_s"][span]
    del state["counts"]["neighborhoods.sweep.result_bytes"]
    metrics, _, missing = tracer.per_layer(state, pool_expected=False)
    assert not missing
    assert metrics["neighborhoods.sweep.pool_s"] == (0.0, "s")
    assert metrics["neighborhoods.sweep.chunks"] == (0, "count")


def test_merge_sums_tables_and_unions_keys():
    a = synthetic_state()
    b = synthetic_state(keys=["a", "b"], durations_ms=[9.0], lr_cache=[1, 1])
    m = tracer.merge([a, b])
    assert m["calls"]["neighborhoods.verify_case"] == 8
    assert m["keys"] == ["a", "b"]
    assert m["durations_ms"] == [1.0, 2.0, 3.0, 4.0, 9.0]
    assert m["lr_cache"] == [4, 2]


def test_golden_n8_digest():
    code, text = run_cli(["verify", "--n-max", "8", "--format", "json"])
    assert code == 0
    assert hashlib.sha256(text.encode()).hexdigest() == run.DIGEST_N8
