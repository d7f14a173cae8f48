import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers_oracles import oracle_pieri_coeff, oracle_reduce
from qseidel import quantum
from qseidel.grassmann import (
    box_complement,
    box_partitions,
    conjugate,
    contains,
    normalize_partition,
    perm_to_partition,
    size,
)
from qseidel.perms import min_coset_rep, parabolic_quotient, seidel_element
from qseidel.quantum import (
    DegreeMismatchError,
    QClass,
    classical_product,
    lr_coeff,
    min_q_degree,
    partitions_bounded,
    quantum_product,
    rim_hook_reduce,
    seidel_class,
    seidel_degree,
    seidel_product_check,
)

RANKS = [(k, n) for n in range(2, 6) for k in range(1, n)]

partition_st = st.lists(st.integers(0, 5), min_size=0, max_size=4).map(
    lambda parts: normalize_partition(sorted(parts, reverse=True))
)


def qmul(c: QClass, mu) -> dict:
    """Multiply a class term-by-term; used to fold triple products."""
    acc: dict = {}
    for (shape, q), coeff in c.terms.items():
        p = quantum_product(shape, mu, c.k, c.n)
        for (s2, q2), c2 in p.terms.items():
            key = (s2, q + q2)
            acc[key] = acc.get(key, 0) + coeff * c2
    return {key: v for key, v in sorted(acc.items()) if v}


class TestLittlewoodRichardson:
    def test_frozen_values(self):
        assert lr_coeff((1,), (1,), (2,)) == 1
        assert lr_coeff((1,), (1,), (1, 1)) == 1
        assert lr_coeff((2, 1), (2, 1), (3, 2, 1)) == 2
        assert lr_coeff((2, 1), (2, 1), (2, 2, 1, 1)) == 1
        assert lr_coeff((2, 1), (2, 1), (4, 2)) == 1
        assert lr_coeff((2, 1), (2, 1), (3, 3)) == 1

    def test_incompatible(self):
        assert lr_coeff((2,), (1,), (2,)) == 0
        assert lr_coeff((3,), (1,), (2, 2)) == 0
        assert lr_coeff((1,), (1,), (3,)) == 0

    def test_row_pieri_oracle(self):
        for lam in box_partitions(3, 6):
            for p in range(1, 4):
                for nu in partitions_bounded(size(lam) + p, 4, 6):
                    assert lr_coeff(lam, (p,), nu) == oracle_pieri_coeff(
                        lam, (p,), nu
                    ), (lam, p, nu)

    def test_column_pieri_by_conjugation(self):
        for lam in box_partitions(3, 5):
            for p in range(1, 4):
                col = (1,) * p
                for nu in partitions_bounded(size(lam) + p, 5, 4):
                    expect = oracle_pieri_coeff(conjugate(lam), (p,), conjugate(nu))
                    assert lr_coeff(lam, col, nu) == expect

    @given(partition_st, partition_st, partition_st)
    def test_symmetric_in_factors(self, lam, mu, nu):
        assert lr_coeff(lam, mu, nu) == lr_coeff(mu, lam, nu)

    @given(partition_st, partition_st, partition_st)
    def test_conjugation_symmetry(self, lam, mu, nu):
        assert lr_coeff(lam, mu, nu) == lr_coeff(
            conjugate(lam), conjugate(mu), conjugate(nu)
        )


class TestRimHookReduce:
    def test_in_box_untouched(self):
        assert rim_hook_reduce((2, 1), 2, 4) == ((2, 1), 0, 1)
        assert rim_hook_reduce((), 3, 5) == ((), 0, 1)

    def test_frozen_values(self):
        assert rim_hook_reduce((2,), 1, 2) == ((), 1, 1)
        assert rim_hook_reduce((3, 1), 2, 4) == ((), 1, 1)
        assert rim_hook_reduce((4,), 2, 4) == ((), 1, -1)
        assert rim_hook_reduce((4, 2), 2, 4) == ((1, 1), 1, 1)
        assert rim_hook_reduce((4, 4), 2, 4) == ((), 2, 1)

    def test_vanishing(self):
        assert rim_hook_reduce((4, 1), 2, 4) is None
        assert rim_hook_reduce((3, 1), 2, 3) is None
        assert rim_hook_reduce((4, 2), 2, 3) is None

    @pytest.mark.parametrize(
        "k,n", [(1, 2), (1, 3), (2, 3), (2, 4), (2, 5), (3, 4), (3, 5), (3, 6)]
    )
    def test_matches_strip_removal_oracle(self, k, n):
        # every shape a product of two box classes can produce
        for total in range(2 * k * (n - k) + 1):
            for nu in partitions_bounded(total, k, 2 * (n - k)):
                assert rim_hook_reduce(nu, k, n) == oracle_reduce(nu, k, n), nu


class TestProducts:
    def test_frozen_examples(self):
        assert quantum_product((1,), (1,), 1, 2).terms == {((), 1): 1}
        assert quantum_product((1,), (1,), 2, 4).terms == {
            ((1, 1), 0): 1,
            ((2,), 0): 1,
        }
        assert quantum_product((2, 1), (1,), 2, 4).terms == {
            ((), 1): 1,
            ((2, 2), 0): 1,
        }
        # the (4,1) term dies to a residue collision
        assert quantum_product((2, 1), (2,), 2, 4).terms == {((1,), 1): 1}
        assert quantum_product((2, 2), (1,), 2, 4).terms == {((1,), 1): 1}
        assert quantum_product((2, 2), (2, 1), 2, 4).terms == {((2, 1), 1): 1}
        assert quantum_product((2, 2), (2, 2), 2, 4).terms == {((), 2): 1}
        assert quantum_product((2, 1), (2, 1), 2, 5).terms == {
            ((1,), 1): 1,
            ((3, 3), 0): 1,
        }

    def test_inconsistent_reduction_degree_raises(self, monkeypatch):
        # (1) * (1) in Gr(2, 4) reduces (2) and (1, 1), both of size 2;
        # a reduction claiming one extra q breaks the grading
        reduce = quantum.rim_hook_reduce
        monkeypatch.setattr(
            quantum, "rim_hook_reduce", lambda nu, k, n: (reduce(nu, k, n)[0], 1, 1)
        )
        with pytest.raises(DegreeMismatchError) as err:
            quantum_product((1,), (1,), 2, 4)
        assert not isinstance(err.value, ValueError)
        assert err.value.shape in {(2,), (1, 1)}
        assert (err.value.d, err.value.total) == (1, 2)
        assert str(err.value.shape) in str(err.value)

    @pytest.mark.parametrize("k,n", RANKS)
    def test_degree_zero_part_is_classical(self, k, n):
        for lam in box_partitions(k, n):
            for mu in box_partitions(k, n):
                quant = quantum_product(lam, mu, k, n)
                classical = classical_product(lam, mu, k, n)
                got = {key: c for key, c in quant.terms.items() if key[1] == 0}
                assert got == classical.terms

    @pytest.mark.parametrize("k,n", RANKS)
    def test_grading_box_and_positivity(self, k, n):
        for lam in box_partitions(k, n):
            for mu in box_partitions(k, n):
                total = size(lam) + size(mu)
                for (shape, d), coeff in quantum_product(lam, mu, k, n).terms.items():
                    assert size(shape) + d * n == total
                    assert contains(((n - k),) * k, shape)
                    assert coeff > 0

    @pytest.mark.parametrize("k,n", RANKS)
    def test_commutative(self, k, n):
        parts = box_partitions(k, n)
        for a in range(len(parts)):
            for b in range(a, len(parts)):
                assert (
                    quantum_product(parts[a], parts[b], k, n).terms
                    == quantum_product(parts[b], parts[a], k, n).terms
                )

    def test_unit(self):
        for k, n in RANKS:
            for lam in box_partitions(k, n):
                assert quantum_product((), lam, k, n).terms == {(lam, 0): 1}

    @pytest.mark.parametrize("k,n", RANKS)
    def test_rank_level_duality(self, k, n):
        for lam in box_partitions(k, n):
            for mu in box_partitions(k, n):
                primal = quantum_product(lam, mu, k, n).terms
                dual = quantum_product(conjugate(lam), conjugate(mu), n - k, n).terms
                assert {(conjugate(s), d): c for (s, d), c in primal.items()} == dual

    @pytest.mark.parametrize("k,n", [(2, 5), (3, 6)])
    def test_associative_on_samples(self, k, n):
        rng = random.Random(20250821)
        parts = box_partitions(k, n)
        for _ in range(25):
            a, b, c = (rng.choice(parts) for _ in range(3))
            left = qmul(quantum_product(a, b, k, n), c)
            right = qmul(quantum_product(b, c, k, n), a)
            assert left == right, (a, b, c)

    @pytest.mark.parametrize("k,n", RANKS)
    def test_poincare_pairing(self, k, n):
        box = ((n - k),) * k
        for lam in box_partitions(k, n):
            for mu in box_partitions(k, n):
                if size(lam) + size(mu) != k * (n - k):
                    continue
                expect = 1 if mu == box_complement(lam, k, n) else 0
                assert lr_coeff(lam, mu, box) == expect

    def test_min_q_degree(self):
        assert min_q_degree(quantum_product((2, 1), (1,), 2, 4)) == 0
        assert min_q_degree(quantum_product((2, 2), (1,), 2, 4)) == 1
        assert min_q_degree(quantum_product((2, 2), (2, 2), 2, 4)) == 2
        with pytest.raises(ValueError):
            min_q_degree(QClass(k=2, n=4, terms={}))


class TestSeidelShift:
    def test_degree_frozen(self):
        assert seidel_degree((5, 4, 3, 1), 5, 4, 9) == 2
        assert seidel_degree((), 3, 2, 5) == 0
        assert seidel_degree((2, 1), 2, 2, 4) == 1
        assert seidel_degree((2, 2), 2, 2, 4) == 2

    def test_degree_full_box(self):
        for k, n in RANKS:
            assert seidel_degree(((n - k),) * k, k, k, n) == min(k, n - k)

    def test_degree_rejects_bad_index(self):
        with pytest.raises(ValueError):
            seidel_degree((1,), 1, 2, 4)
        with pytest.raises(ValueError):
            seidel_degree((1,), 4, 2, 4)

    def test_class_frozen(self):
        assert seidel_class(5, 4, 9) == (4, 4, 4, 4)
        assert seidel_class(2, 2, 4) == (2, 2)
        assert seidel_class(3, 2, 4) == (1, 1)
        with pytest.raises(ValueError):
            seidel_class(1, 2, 4)

    def test_check_identity_case(self):
        chk = seidel_product_check((2, 4, 1, 3), 0, 2, 4)
        assert chk.passed and chk.d == 0 and not chk.dualized
        assert chk.beta is None
        assert chk.target == (2, 1)

    def test_check_primal_case(self):
        chk = seidel_product_check((1, 3, 2, 4), 2, 2, 4)
        assert chk.passed and not chk.dualized
        assert chk.beta == 2 and chk.d == 1
        assert chk.target == (1,)
        assert chk.product.terms == {((1,), 1): 1}

    def test_check_dual_case(self):
        chk = seidel_product_check((1, 2, 3, 4, 5), 1, 3, 5)
        assert chk.passed and chk.dualized
        assert chk.beta == 4 and chk.d == 0
        assert chk.target == (2,)
        # the product itself lives in the transposed frame
        assert chk.product.terms == {((1, 1), 0): 1}

    def test_check_ignores_coset_choice(self):
        rep = seidel_product_check((2, 4, 1, 3), 2, 2, 4)
        other = seidel_product_check((4, 2, 3, 1), 2, 2, 4)
        assert (rep.d, rep.target, rep.passed) == (other.d, other.target, other.passed)

    def test_single_term_exhaustive_small(self):
        for n in range(2, 6):
            for k in range(1, n):
                roots = frozenset(range(1, n)) - {k}
                reps = parabolic_quotient(n, roots)
                for i in range(n):
                    for u in reps:
                        chk = seidel_product_check(u, i, k, n)
                        assert chk.passed, (n, k, i, u)

    def test_shift_matches_composition(self):
        # the reported target is the reduced shift of the input coset
        for n in range(2, 6):
            for k in range(1, n):
                roots = frozenset(range(1, n)) - {k}
                for i in range(n):
                    w = seidel_element(n, i)
                    for u in parabolic_quotient(n, roots):
                        shifted = min_coset_rep(
                            tuple(w[u[t] - 1] for t in range(n)), roots
                        )
                        chk = seidel_product_check(u, i, k, n)
                        assert chk.target == perm_to_partition(shifted, k, n)
