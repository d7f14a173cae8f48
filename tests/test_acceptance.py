"""Acceptance suite: the eleven headline guarantees, one visible line each.

Run with ``pytest tests/test_acceptance.py -v``; every test prints
``ACCEPTANCE <id> <label>: PASS`` (or FAIL) straight to the terminal,
bypassing capture, then asserts.
"""

import hashlib
import itertools
import json
import random
import tracemalloc

import pytest

from helpers_oracles import oracle_neighborhood_partition, oracle_rotated_target
from qseidel.cli import dumps_json, main, render_cases_csv
from qseidel.grassmann import (
    box_complement,
    box_partitions,
    contains,
    fp_schubert_b,
    fp_schubert_bminus,
    size,
)
from qseidel.neighborhoods import gamma_fp, sweep, sweep_cases
from qseidel.perms import join, longest_element, min_coset_rep, seidel_element
from qseidel.quantum import (
    lr_coeff,
    min_q_degree,
    quantum_product,
    seidel_class,
    seidel_degree,
    seidel_product_check,
)

RANKS_6 = [(k, n) for n in range(2, 7) for k in range(1, n)]

# sha256 of ``qseidel verify --n-max 8 --format csv`` and ``--format json``
GOLDEN_CSV_N8 = "221bec92354c03345c50246336259400e5bd68243f37da0a9cc43847ca8d250f"
GOLDEN_JSON_N8 = "ffe506bdf065ba9bfaec2cb9461460ee78ff3dbf14c118e54d64b3b912c59cd4"
# sha256 of ``qseidel verify --n-max 16 --mode sampled --sample-size 10 --format json``
GOLDEN_JSON_N16_SAMPLED = "c6c9fe5eba09a6e656e63f9f340a8bb678be89c95b3977020068e4251b1cafec"


def announce(capsys, ident: str, label: str, ok: bool) -> None:
    with capsys.disabled():
        print(f"ACCEPTANCE {ident} {label}: {'PASS' if ok else 'FAIL'}")


@pytest.fixture(scope="module")
def sweep8():
    return sweep(8)


def test_1_pinned_degree_case(capsys):
    lam = (5, 4, 3, 1)
    by_formula = seidel_degree(lam, 5, 4, 9)
    by_product = min_q_degree(quantum_product(seidel_class(5, 4, 9), lam, 4, 9))
    ok = by_formula == 2 and by_product == 2
    announce(capsys, "1/11", "pinned diagonal degree, formula == product", ok)
    assert ok, (by_formula, by_product)


def test_2_neighborhood_sweep(capsys, sweep8):
    bad = [c for c in sweep8.cases if not c["checks"]["fp_equality"]]
    ok = not bad and sweep8.total == 3514
    announce(
        capsys,
        "2/11",
        f"neighborhood == translated variety on {sweep8.total} cases (n <= 8)",
        ok,
    )
    assert ok, bad[:5]


def test_3_single_term_products(capsys, sweep8):
    bad = [c for c in sweep8.cases if not c["checks"]["product_single_term"]]
    ok = not bad
    announce(capsys, "3/11", "every cocharacter product is one q-term", ok)
    assert ok, bad[:5]


def test_4_flag_chain_consistency(capsys, sweep8):
    names = ("g_chain_containment", "v_match", "length_identity")
    bad = [c for c in sweep8.cases if not all(c["checks"][x] for x in names)]
    ok = not bad
    announce(capsys, "4/11", "flag chains carve out the right variety", ok)
    assert ok, bad[:5]


def test_golden_csv_report(sweep8):
    text = render_cases_csv(sweep8.cases)
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_CSV_N8


def test_golden_json_report(sweep8):
    text = dumps_json(sweep8.record())
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_JSON_N8


def test_render_peak_below_one_shot_dumps(sweep8):
    rec = sweep8.record()

    def peak(render) -> int:
        tracemalloc.start()
        try:
            render(rec)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    # the one-shot encoder lists every chunk before it joins them
    one_shot = peak(lambda obj: json.dumps(obj, indent=2, sort_keys=True))
    batched = peak(dumps_json)
    assert batched <= 0.75 * one_shot, (batched, one_shot)


def test_golden_json_report_with_two_jobs():
    text = dumps_json(sweep(8, jobs=2).record())
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_JSON_N8


def test_golden_json_report_sampled_n16(capsys):
    argv = ["verify", "--n-max", "16", "--mode", "sampled", "--sample-size", "10", "--format", "json"]
    assert main(argv) == 0
    text = capsys.readouterr().out
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_JSON_N16_SAMPLED


def test_5_join_of_projections(capsys):
    failures = 0
    checked = 0
    for n in range(2, 6):
        roots_all = list(range(1, n))
        subsets = [
            frozenset(c)
            for r in range(n)
            for c in itertools.combinations(roots_all, r)
        ]
        for w in itertools.permutations(range(1, n + 1)):
            for ry in subsets:
                for rz in subsets:
                    rx = ry & rz
                    got = join(min_coset_rep(w, ry), min_coset_rep(w, rz), rx)
                    checked += 1
                    if got != min_coset_rep(w, rx):
                        failures += 1
    rng = random.Random(0)
    perms6 = list(itertools.permutations(range(1, 7)))
    for _ in range(10_000):
        w = rng.choice(perms6)
        ry = frozenset(r for r in range(1, 6) if rng.random() < 0.5)
        rz = frozenset(r for r in range(1, 6) if rng.random() < 0.5)
        rx = ry & rz
        got = join(min_coset_rep(w, ry), min_coset_rep(w, rz), rx)
        checked += 1
        if got != min_coset_rep(w, rx):
            failures += 1
    ok = failures == 0
    announce(
        capsys,
        "5/11",
        f"join of parabolic projections recovers w ({checked} triples)",
        ok,
    )
    assert ok, f"{failures} of {checked} joins disagreed"


def test_6_rotations_are_minimal_representatives(capsys):
    ok = all(
        seidel_element(n, i)
        == min_coset_rep(longest_element(n), frozenset(range(1, n)) - {i})
        for n in range(2, 11)
        for i in range(1, n)
    )
    announce(capsys, "6/11", "rotation powers == reduced longest element", ok)
    assert ok


def test_7_ring_sanity(capsys):
    ok = True
    for k, n in RANKS_6:
        parts = box_partitions(k, n)
        box = ((n - k),) * k
        for lam in parts:
            ok = ok and lr_coeff(lam, box_complement(lam, k, n), box) == 1
            for mu in parts:
                left = quantum_product(lam, mu, k, n)
                ok = ok and left == quantum_product(mu, lam, k, n)
                total = size(lam) + size(mu)
                for (shape, d), coeff in left.items():
                    ok = ok and size(shape) + d * n == total
                    ok = ok and coeff > 0 and contains(box, shape)
    ok = ok and quantum_product((1,), (1,), 1, 2) == {((), 1): 1}
    ok = ok and quantum_product((2, 2), (1,), 2, 4) == {((1,), 1): 1}
    announce(capsys, "7/11", "commutative graded ring with pinned products", ok)
    assert ok


def test_8_zero_degree_degeneration(capsys):
    ok = True
    for k, n in RANKS_6:
        parts = box_partitions(k, n)
        for lam_b in parts:
            below = fp_schubert_b(lam_b, k, n)
            for lam_bm in parts:
                expect = below & fp_schubert_bminus(lam_bm, k, n)
                ok = ok and gamma_fp(lam_b, lam_bm, 0, k, n) == expect
    announce(capsys, "8/11", "degree-0 neighborhood == plain intersection", ok)
    assert ok


def test_9_one_point_neighborhoods(capsys):
    # the full box indexes the whole Grassmannian, so the pair's
    # neighborhood is the one-point neighborhood of X^mu
    bad = []
    checked = 0
    for n in range(2, 9):
        for k in range(1, n):
            box = (n - k,) * k
            for mu in box_partitions(k, n):
                for d in range(min(k, n - k) + 1):
                    checked += 1
                    expect = fp_schubert_bminus(oracle_neighborhood_partition(mu, d, k), k, n)
                    if gamma_fp(box, mu, d, k, n) != expect:
                        bad.append((mu, d, k, n))
    ok = not bad and checked == 1756
    announce(
        capsys,
        "9/11",
        f"one-point neighborhood of X^mu == X^mu_hat on {checked} cases (n <= 8)",
        ok,
    )
    assert ok, bad[:5]


def test_10_least_q_degree_is_least_neighborhood_degree(capsys):
    bad = []
    checked = 0
    for n in range(2, 8):
        for k in range(1, n):
            parts = box_partitions(k, n)
            for lam in parts:
                # X_lam of codimension lam, indexed by its dimension
                lam_b = box_complement(lam, k, n)
                for mu in parts:
                    checked += 1
                    degrees = range(min(k, n - k) + 1)
                    least = next((d for d in degrees if gamma_fp(lam_b, mu, d, k, n)), None)
                    if least != min_q_degree(quantum_product(lam, mu, k, n)):
                        bad.append((lam, mu, k, n))
    ok = not bad and checked == 4692
    announce(
        capsys,
        "10/11",
        f"least q-degree == least d meeting X^mu, {checked} pairs (n <= 7)",
        ok,
    )
    assert ok, bad[:5]


def test_11_rotation_reads_the_target(capsys):
    # Postnikov: the target's k-subset is u's first k values rotated by -i
    cases = sweep_cases(8)
    bad = [
        (n, k, i, u)
        for n, k, i, u in cases
        if seidel_product_check(u, i, k, n).target != oracle_rotated_target(u, i, k, n)
    ]
    ok = not bad and len(cases) == 3514
    announce(
        capsys,
        "11/11",
        f"target == u's k-subset rotated by -i on {len(cases)} cases (n <= 8)",
        ok,
    )
    assert ok, bad[:5]
