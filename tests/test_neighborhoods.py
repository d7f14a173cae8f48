import random

import pytest

from helpers_oracles import oracle_gamma
from qseidel import grassmann, neighborhoods
from qseidel.grassmann import (
    box_partitions,
    fp_schubert_b,
    fp_schubert_bminus,
    mask_of,
    size,
    subset_of,
)
from qseidel.neighborhoods import (
    CHECK_NAMES,
    CaseReport,
    GFlagChain,
    chain_fixed_points,
    fp_projected_schubert,
    fp_richardson,
    g_flag_chain,
    gamma_fp,
    sweep,
    sweep_cases,
    v_from_gflags,
    verify_case,
)
from qseidel.quantum import seidel_degree


def pairs_of(pair_set):
    return sorted((subset_of(a), subset_of(b)) for a, b in pair_set)


class TestProjectedFixedPoints:
    def test_degree_zero_is_diagonal(self):
        for side, lam in [("B", (1,)), ("Bminus", (2, 1))]:
            fps = (
                fp_schubert_b(lam, 2, 4) if side == "B" else fp_schubert_bminus(lam, 2, 4)
            )
            assert fp_projected_schubert(side, lam, 0, 2, 4) == frozenset(
                (c, c) for c in fps
            )

    def test_point_class_example(self):
        got = pairs_of(fp_projected_schubert("B", (), 1, 2, 4))
        assert got == [
            ((1,), (1, 2, 3)),
            ((1,), (1, 2, 4)),
            ((2,), (1, 2, 3)),
            ((2,), (1, 2, 4)),
        ]

    def test_codim_one_example_saturates(self):
        got = fp_projected_schubert("Bminus", (1,), 1, 2, 4)
        assert len(got) == 12
        for a, b in got:
            assert a & ~b == 0
            assert a.bit_count() == 1 and b.bit_count() == 3

    def test_rejects_bad_side_and_degree(self):
        with pytest.raises(ValueError):
            fp_projected_schubert("b", (), 1, 2, 4)
        with pytest.raises(ValueError):
            fp_projected_schubert("B", (), 3, 2, 4)


class TestRichardson:
    def test_intersection_example(self):
        got = pairs_of(fp_richardson((), (1,), 1, 2, 4))
        assert got == [
            ((1,), (1, 2, 3)),
            ((1,), (1, 2, 4)),
            ((2,), (1, 2, 3)),
            ((2,), (1, 2, 4)),
        ]

    def test_disjoint_pair_is_empty(self):
        assert fp_richardson((), (2, 2), 0, 2, 4) == frozenset()

    def test_degree_zero_is_richardson_diagonal(self):
        common = fp_schubert_b((2, 1), 2, 4) & fp_schubert_bminus((1,), 2, 4)
        assert fp_richardson((2, 1), (1,), 0, 2, 4) == frozenset(
            (c, c) for c in common
        )


class TestGamma:
    def test_basic_example(self):
        got = sorted(subset_of(m) for m in gamma_fp((), (1,), 1, 2, 4))
        assert got == [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4)]

    def test_full_bottom_class_gives_opposite_variety(self):
        for n in range(2, 6):
            for k in range(1, n):
                box = ((n - k),) * k
                for mu in box_partitions(k, n):
                    assert gamma_fp(box, mu, 0, k, n) == fp_schubert_bminus(mu, k, n)

    def test_max_degree_unconstrained(self):
        import math

        for n in range(2, 6):
            for k in range(1, n):
                d = min(k, n - k)
                assert len(gamma_fp((), (), d, k, n)) == math.comb(n, k)

    def test_degree_zero_is_intersection(self):
        for n in range(2, 5):
            for k in range(1, n):
                for lb in box_partitions(k, n):
                    for lbm in box_partitions(k, n):
                        expect = fp_schubert_b(lb, k, n) & fp_schubert_bminus(lbm, k, n)
                        assert gamma_fp(lb, lbm, 0, k, n) == expect

    def test_monotone_in_degree(self):
        for n in range(2, 6):
            for k in range(1, n):
                parts = box_partitions(k, n)
                for lb in parts:
                    for lbm in parts:
                        prev = gamma_fp(lb, lbm, 0, k, n)
                        for d in range(1, min(k, n - k) + 1):
                            cur = gamma_fp(lb, lbm, d, k, n)
                            assert prev <= cur
                            prev = cur

    def test_matches_triple_scan_oracle_exhaustive(self):
        # each set is first computed here on a cold cache, then served warm
        for cached in (
            grassmann.k_subset_masks,
            grassmann.bit_values,
            grassmann._fp_schubert_b,
            grassmann._fp_schubert_bminus,
            neighborhoods._projected_b,
        ):
            cached.cache_clear()
        for n in range(2, 7):
            for k in range(1, n):
                parts = box_partitions(k, n)
                for lb in parts:
                    for lbm in parts:
                        for d in range(min(k, n - k) + 1):
                            cold = gamma_fp(lb, lbm, d, k, n)
                            expect = oracle_gamma(
                                fp_schubert_b(lb, k, n),
                                fp_schubert_bminus(lbm, k, n),
                                d,
                                k,
                                n,
                            )
                            assert cold == expect
                            assert gamma_fp(lb, lbm, d, k, n) == expect

    def test_matches_oracle_sampled_n5(self):
        rng = random.Random(42)
        parts = box_partitions(2, 5)
        for _ in range(30):
            lb, lbm = rng.choice(parts), rng.choice(parts)
            d = rng.randrange(3)
            expect = oracle_gamma(
                fp_schubert_b(lb, 2, 5), fp_schubert_bminus(lbm, 2, 5), d, 2, 5
            )
            assert gamma_fp(lb, lbm, d, 2, 5) == expect


class TestGFlagChain:
    def test_worked_example(self):
        chain = g_flag_chain((1,), 2, 1, 2, 4)
        assert chain.subsets == (mask_of({1, 2}), mask_of({1, 2, 3, 4}))
        assert chain.basis_order == (2, 1, 4, 3)
        assert v_from_gflags(chain, 2, 4) == (1,)

    def test_rejects_wrong_degree(self):
        with pytest.raises(ValueError):
            g_flag_chain((1,), 2, 0, 2, 4)
        with pytest.raises(ValueError):
            g_flag_chain((), 2, 1, 2, 4)

    def test_structure_exhaustive_small(self):
        # every admissible (lam, beta) yields a strict chain whose
        # codimension partition satisfies the length identity
        for n in range(2, 7):
            for k in range(1, n):
                for beta in range(k, n):
                    for lam in box_partitions(k, n):
                        d = seidel_degree(lam, beta, k, n)
                        chain = g_flag_chain(lam, beta, d, k, n)
                        sizes = [g.bit_count() for g in chain.subsets]
                        assert sizes == sorted(set(sizes))
                        v = v_from_gflags(chain, k, n)
                        assert size(v) == n * (k - d) - beta * k + size(lam)

    def test_bottom_class_at_beta_k(self):
        # lam = 0, beta = k: the chain cuts out the opposite point orbit
        chain = g_flag_chain((), 2, 0, 2, 4)
        assert v_from_gflags(chain, 2, 4) == (2, 2)
        assert chain_fixed_points(chain, 2, 4) == frozenset({mask_of({1, 2})})

    def test_fixed_points_contain_gamma_example(self):
        chain = g_flag_chain((1,), 2, 1, 2, 4)
        assert gamma_fp((), (1,), 1, 2, 4) <= chain_fixed_points(chain, 2, 4)


class TestVerifyCase:
    def test_projective_line_cases(self):
        full = verify_case(2, 1, 1, (2, 1))
        assert full.passed and full.d == 1
        assert full.gamma == ((1,), (2,)) and full.target == ((1,), (2,))
        fixed = verify_case(2, 1, 1, (1, 2))
        assert fixed.passed and fixed.d == 0
        assert fixed.gamma == ((1,),)

    def test_worked_case(self):
        rep = verify_case(4, 2, 2, (1, 3, 2, 4))
        assert rep.passed and rep.d == 1 and rep.beta == 2
        assert not rep.dualized
        assert rep.target_partition == (1,)
        assert rep.v_partition == (1,)
        assert rep.gamma == ((1, 2), (1, 3), (1, 4), (2, 3), (2, 4))
        assert set(rep.checks) == set(CHECK_NAMES)

    def test_identity_root_case(self):
        rep = verify_case(4, 2, 0, (2, 4, 1, 3))
        assert rep.passed and rep.d == 0 and rep.beta is None
        assert rep.target_partition == (2, 1)

    def test_dualized_case(self):
        rep = verify_case(4, 3, 1, (1, 2, 3, 4))
        assert rep.dualized and rep.beta == 3
        assert rep.passed, rep.checks

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            verify_case(4, 2, 4, (1, 2, 3, 4))
        with pytest.raises(ValueError):
            verify_case(4, 2, 1, (1, 2, 3))

    def test_record_shape_on_pass(self):
        rec = verify_case(4, 2, 2, (1, 3, 2, 4)).record()
        assert rec["pass"] is True
        assert rec["u"] == "1,3,2,4"
        assert "counterexample_detail" not in rec
        assert set(rec["checks"]) == set(CHECK_NAMES)

    def test_record_detail_on_failure(self):
        rep = verify_case(4, 2, 2, (1, 3, 2, 4))
        broken = CaseReport(
            n=rep.n,
            k=rep.k,
            i=rep.i,
            u=rep.u,
            beta=rep.beta,
            dualized=rep.dualized,
            d=rep.d,
            checks={**rep.checks, "fp_equality": False},
            gamma_masks=rep.gamma_masks,
            target_masks=frozenset(mask_of(s) for s in rep.target[:3]),
            target_partition=rep.target_partition,
            v_partition=rep.v_partition,
            length_v=rep.length_v,
            length_target=rep.length_target,
            product_terms=rep.product_terms,
        )
        rec = broken.record()
        assert rec["pass"] is False
        detail = rec["counterexample_detail"]
        assert detail["gamma_minus_target"] == ["2,3", "2,4"]
        assert detail["target_minus_gamma"] == []
        assert detail["v_partition"] == "1"

    def test_cardinality_invariant(self):
        for n, k, i, u in sweep_cases(4):
            rep = verify_case(n, k, i, u)
            expect = len(fp_schubert_bminus(rep.target_partition, k, n))
            assert len(rep.gamma) == expect


@pytest.fixture
def pool_sizes(monkeypatch):
    """Replace the process pool by an in-process stand-in; returns the
    worker count each pool was asked for."""
    sizes = []

    class FakePool:
        def __init__(self, processes):
            sizes.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize=1):
            return [fn(x) for x in items]

    monkeypatch.setattr(neighborhoods, "Pool", FakePool)
    return sizes


class TestSweep:
    def test_case_enumeration(self):
        assert sweep_cases(2) == [
            (2, 1, 0, (1, 2)),
            (2, 1, 0, (2, 1)),
            (2, 1, 1, (1, 2)),
            (2, 1, 1, (2, 1)),
        ]
        counts = {2: 4, 3: 22, 4: 78}
        for n_max, total in counts.items():
            assert len(sweep_cases(n_max)) == total

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            sweep_cases(1)
        with pytest.raises(ValueError):
            sweep(3, mode="all")
        with pytest.raises(ValueError):
            sweep(3, mode="sampled")

    def test_exhaustive_small(self):
        report = sweep(3)
        assert report.total == 22
        assert report.all_passed
        assert report.record()["fail"] == 0
        assert [
            (c.n, c.k, c.i, c.u) for c in report.cases
        ] == sweep_cases(3)

    def test_sampled_deterministic(self):
        a = sweep(4, mode="sampled", sample_size=10, seed=123)
        b = sweep(4, mode="sampled", sample_size=10, seed=123)
        assert a.record() == b.record()
        assert a.total == 10
        picked = [(c.n, c.k, c.i, c.u) for c in a.cases]
        assert picked == sorted(picked)
        assert set(picked) <= set(sweep_cases(4))

    def test_sampled_default_seed(self):
        a = sweep(3, mode="sampled", sample_size=5)
        b = sweep(3, mode="sampled", sample_size=5, seed=0)
        assert a.record() == b.record()

    def test_sample_larger_than_population(self):
        report = sweep(2, mode="sampled", sample_size=99, seed=1)
        assert report.total == 4

    def test_worker_count_invisible(self):
        serial = sweep(3, jobs=1).record()
        parallel = sweep(3, jobs=2).record()
        assert serial == parallel

    @pytest.mark.parametrize("jobs", [0, -3])
    def test_rejects_worker_count_below_one(self, pool_sizes, jobs):
        with pytest.raises(ValueError):
            sweep(3, jobs=jobs)
        assert pool_sizes == []

    def test_worker_count_capped_at_usable_cpus(self, pool_sizes, monkeypatch):
        monkeypatch.setattr(neighborhoods, "_usable_cpus", lambda: 3)
        assert sweep(3, jobs=10**6).record() == sweep(3).record()
        assert pool_sizes == [3]

    def test_single_usable_cpu_runs_serial(self, pool_sizes, monkeypatch):
        monkeypatch.setattr(neighborhoods, "_usable_cpus", lambda: 1)
        assert sweep(3, jobs=4).total == 22
        assert pool_sizes == []
