import itertools
import pickle
import random
import re

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
    part,
    partition_to_perm,
    perm_to_partition,
    size,
)
from qseidel.perms import min_coset_rep, parabolic_quotient, seidel_element
from qseidel.quantum import (
    DegreeMismatchError,
    Frame,
    SeidelCheck,
    classical_product,
    lr_coeff,
    min_q_degree,
    partitions_bounded,
    quantum_product,
    resolve_frame,
    rim_hook_reduce,
    seidel_class,
    seidel_degree,
    seidel_product_check,
    weyl_ceiling,
)

RANKS = [(k, n) for n in range(2, 6) for k in range(1, n)]

partition_st = st.lists(st.integers(0, 5), min_size=0, max_size=4).map(
    lambda parts: normalize_partition(sorted(parts, reverse=True))
)


def qmul(terms: dict, mu, k: int, n: int) -> dict:
    """Multiply a class term-by-term; used to fold triple products."""
    acc: dict = {}
    for (shape, q), coeff in terms.items():
        p = quantum_product(shape, mu, k, n)
        for (s2, q2), c2 in p.items():
            key = (s2, q + q2)
            acc[key] = acc.get(key, 0) + coeff * c2
    return {key: v for key, v in sorted(acc.items()) if v}


def filtered_product(lam, mu, k: int, n: int) -> dict:
    """The quantum product summed over every nu of the right size with at
    most k rows and width lam_1 + mu_1, keeping those that contain lam and
    mu: the enumerate-and-filter that direct enumeration replaced."""
    total = size(lam) + size(mu)
    terms: dict = {}
    for nu in partitions_bounded(total, (part(lam, 1) + part(mu, 1),) * k):
        if not (contains(nu, lam) and contains(nu, mu)):
            continue
        c = lr_coeff(lam, mu, nu)
        red = rim_hook_reduce(nu, k, n)
        if c and red is not None:
            shape, d, sign = red
            terms[(shape, d)] = terms.get((shape, d), 0) + sign * c
    return {key: v for key, v in sorted(terms.items()) if v}


def partitions_of(total: int, largest: int | None = None):
    """Every partition of ``total`` (parts at most ``largest``), in reverse
    lexicographic order."""
    if total == 0:
        yield ()
        return
    for first in range(min(total, largest or total), 0, -1):
        for rest in partitions_of(total - first, first):
            yield (first,) + rest


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
            for p in range(0, 4):
                for nu in partitions_bounded(size(lam) + p, (6,) * 4):
                    assert lr_coeff(lam, (p,), nu) == oracle_pieri_coeff(
                        lam, (p,), nu
                    ), (lam, p, nu)

    def test_column_pieri_by_conjugation(self):
        for lam in box_partitions(3, 5):
            for p in range(1, 4):
                col = (1,) * p
                for nu in partitions_bounded(size(lam) + p, (4,) * 5):
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


class TestWeylCeiling:
    def test_frozen_values(self):
        assert weyl_ceiling((), (), 3) == (0, 0, 0)
        assert weyl_ceiling((2, 1), (1, 1), 5) == (3, 2, 1, 1, 0)
        assert weyl_ceiling((3, 3), (2, 1), 2) == (5, 4)
        assert weyl_ceiling((4, 1), (3, 3, 2), 3) == (7, 4, 3)

    def test_nonzero_coefficients_lie_under_the_ceiling(self):
        triples = 0
        for total in range(10):
            shapes = list(partitions_of(total))
            for size_lam in range(total + 1):
                for lam in partitions_of(size_lam):
                    for mu in partitions_of(total - size_lam):
                        for nu in shapes:
                            triples += 1
                            if lr_coeff(lam, mu, nu):
                                assert contains(weyl_ceiling(lam, mu, len(nu)), nu), (lam, mu, nu)
        assert triples == 15830

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

    def test_rejects_more_than_k_rows(self):
        with pytest.raises(ValueError, match=re.escape("shape (1, 1, 1) has more than 2 rows")):
            rim_hook_reduce((1, 1, 1), 2, 4)

    @pytest.mark.parametrize(
        "k,n", [(1, 2), (1, 3), (2, 3), (2, 4), (2, 5), (3, 4), (3, 5), (3, 6)]
    )
    def test_matches_strip_removal_oracle(self, k, n):
        # every shape a product of two box classes can produce
        for total in range(2 * k * (n - k) + 1):
            for nu in partitions_bounded(total, (2 * (n - k),) * k):
                assert rim_hook_reduce(nu, k, n) == oracle_reduce(nu, k, n), nu


class TestProducts:
    def test_frozen_examples(self):
        assert quantum_product((1,), (1,), 1, 2) == {((), 1): 1}
        assert quantum_product((1,), (1,), 2, 4) == {
            ((1, 1), 0): 1,
            ((2,), 0): 1,
        }
        assert quantum_product((2, 1), (1,), 2, 4) == {
            ((), 1): 1,
            ((2, 2), 0): 1,
        }
        # the (4,1) term dies to a residue collision
        assert quantum_product((2, 1), (2,), 2, 4) == {((1,), 1): 1}
        assert quantum_product((2, 2), (1,), 2, 4) == {((1,), 1): 1}
        assert quantum_product((2, 2), (2, 1), 2, 4) == {((2, 1), 1): 1}
        assert quantum_product((2, 2), (2, 2), 2, 4) == {((), 2): 1}
        assert quantum_product((2, 1), (2, 1), 2, 5) == {
            ((1,), 1): 1,
            ((3, 3), 0): 1,
        }
        # (2, 2, 1) does not fit inside lam + mu = (3, 2), so enumerating
        # nu only up to lam + mu would lose it: in Gr(3, 5) it is the product
        assert lr_coeff((1,), (2, 2), (2, 2, 1)) == 1
        assert quantum_product((1,), (2, 2), 3, 5) == {((2, 2, 1), 0): 1}
        assert quantum_product((1,), (2, 2), 3, 6) == {
            ((2, 2, 1), 0): 1,
            ((3, 2), 0): 1,
        }

    @pytest.mark.parametrize("n", range(2, 13))
    def test_matches_enumerate_and_filter(self, n):
        # every box pair up to n = 7, then seeded pairs, which the ceiling cuts
        # down to a few shapes or one
        if n < 8:
            pairs = [
                (lam, mu, k)
                for k in range(1, n)
                for lam in box_partitions(k, n)
                for mu in box_partitions(k, n)
            ]
        else:
            rng = random.Random(n)
            pairs = []
            for _ in range(20):
                k = rng.randrange(1, n)
                parts = box_partitions(k, n)
                pairs.append((rng.choice(parts), rng.choice(parts), k))
        for lam, mu, k in pairs:
            assert quantum_product(lam, mu, k, n) == filtered_product(lam, mu, k, n), (lam, mu, k)

    def test_shapes_above_a_floor_are_the_filtered_shapes(self):
        floors = [()] + box_partitions(3, 7)
        for total in range(9):
            for rows in range(4):
                for width in range(5):
                    every = list(partitions_bounded(total, (width,) * rows))
                    for floor in floors:
                        assert list(partitions_bounded(total, (width,) * rows, floor)) == [
                            nu for nu in every if contains(nu, floor)
                        ]

    def test_shapes_between_a_floor_and_a_ceiling_are_the_filtered_shapes(self):
        # against every partition of the total, so that no box is assumed
        boxes = [(width,) * rows for rows in range(4) for width in range(5)]
        ceilings = boxes + box_partitions(3, 7) + [(4, 2, 2, 0), (3, 3, 1, 1), (2, 0, 0)]
        floors = [(), (1,), (2, 1), (1, 1, 1), (3, 1)]
        for total in range(10):
            every = list(partitions_of(total))
            for ceiling in ceilings:
                for floor in floors:
                    assert list(partitions_bounded(total, ceiling, floor)) == [
                        nu for nu in every if contains(ceiling, nu) and contains(nu, floor)
                    ], (total, ceiling, floor)

    def test_rectangle_products_list_one_shape(self, monkeypatch):
        # the ceiling of (n-beta)^k and lam is their row sum, so only it is listed
        calls = []
        monkeypatch.setattr(quantum, "lr_coeff", lambda *args: calls.append(args) or 1)
        for n in range(2, 8):
            for k in range(1, n):
                for rect in [()] + [seidel_class(beta, k, n) for beta in range(k, n)]:
                    for lam in box_partitions(k, n):
                        calls.clear()
                        quantum._quantum_terms.cache_clear()
                        quantum_product(rect, lam, k, n)
                        total = tuple(map(sum, itertools.zip_longest(rect, lam, fillvalue=0)))
                        assert calls == [(rect, lam, total)]

    def test_returns_a_fresh_dict(self):
        # the product is memoized; a caller's edits must not reach the memo
        quantum_product((1,), (1,), 2, 4).clear()
        assert quantum_product((1,), (1,), 2, 4) == {((1, 1), 0): 1, ((2,), 0): 1}

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

    def test_degree_mismatch_error_pickles(self):
        # a pool worker sends the error back to the parent through pickle
        err = DegreeMismatchError((2, 1), (1,), 1, 7, 4)
        back = pickle.loads(pickle.dumps(err))
        assert type(back) is DegreeMismatchError
        assert vars(back) == vars(err) == {"nu": (2, 1), "shape": (1,), "d": 1, "total": 7, "n": 4}
        assert str(back) == str(err) and back.args == err.args

    @pytest.mark.parametrize("k,n", RANKS)
    def test_degree_zero_part_is_classical(self, k, n):
        for lam in box_partitions(k, n):
            for mu in box_partitions(k, n):
                quant = quantum_product(lam, mu, k, n)
                classical = classical_product(lam, mu, k, n)
                got = {key: c for key, c in quant.items() if key[1] == 0}
                assert got == classical

    @pytest.mark.parametrize("k,n", [(k, n) for n in range(2, 8) for k in range(1, n)])
    def test_classical_window_matches_box_enumeration(self, k, n):
        # the product lists only shapes between lam | mu and the Weyl
        # ceiling; scanning every shape of the box must find no other term
        for lam in box_partitions(k, n):
            for mu in box_partitions(k, n):
                total = size(lam) + size(mu)
                scanned = {
                    (nu, 0): c
                    for nu in partitions_bounded(total, (n - k,) * k)
                    if (c := lr_coeff(lam, mu, nu))
                }
                assert classical_product(lam, mu, k, n) == scanned, (lam, mu)

    @pytest.mark.parametrize("k,n", RANKS)
    def test_grading_box_and_positivity(self, k, n):
        for lam in box_partitions(k, n):
            for mu in box_partitions(k, n):
                total = size(lam) + size(mu)
                for (shape, d), coeff in quantum_product(lam, mu, k, n).items():
                    assert size(shape) + d * n == total
                    assert contains(((n - k),) * k, shape)
                    assert coeff > 0

    @pytest.mark.parametrize("k,n", RANKS)
    def test_commutative(self, k, n):
        parts = box_partitions(k, n)
        for a in range(len(parts)):
            for b in range(a, len(parts)):
                assert (
                    quantum_product(parts[a], parts[b], k, n)
                    == quantum_product(parts[b], parts[a], k, n)
                )

    def test_unit(self):
        for k, n in RANKS:
            for lam in box_partitions(k, n):
                assert quantum_product((), lam, k, n) == {(lam, 0): 1}

    @pytest.mark.parametrize("k,n", RANKS)
    def test_rank_level_duality(self, k, n):
        for lam in box_partitions(k, n):
            for mu in box_partitions(k, n):
                primal = quantum_product(lam, mu, k, n)
                dual = quantum_product(conjugate(lam), conjugate(mu), n - k, n)
                assert {(conjugate(s), d): c for (s, d), c in primal.items()} == dual

    @pytest.mark.parametrize("k,n", [(2, 5), (3, 6)])
    def test_associative_on_samples(self, k, n):
        rng = random.Random(20250821)
        parts = box_partitions(k, n)
        for _ in range(25):
            a, b, c = (rng.choice(parts) for _ in range(3))
            left = qmul(quantum_product(a, b, k, n), c, k, n)
            right = qmul(quantum_product(b, c, k, n), a, k, n)
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
            min_q_degree({})


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
        with pytest.raises(ValueError, match="need k <= beta <= n-1, got beta=1, k=2, n=4"):
            seidel_degree((1,), 1, 2, 4)
        with pytest.raises(ValueError, match="need k <= beta <= n-1, got beta=4, k=2, n=4"):
            seidel_degree((1,), 4, 2, 4)

    def test_class_frozen(self):
        assert seidel_class(5, 4, 9) == (4, 4, 4, 4)
        assert seidel_class(2, 2, 4) == (2, 2)
        assert seidel_class(3, 2, 4) == (1, 1)
        with pytest.raises(ValueError, match="need k <= beta <= n-1, got beta=1, k=2, n=4"):
            seidel_class(1, 2, 4)

    def test_frame_identity_route(self):
        frame = resolve_frame((2, 1), 0, 2, 4)
        assert frame == Frame(k=2, lam=(2, 1), beta=None, dualized=False, d=0)
        assert frame.rectangle(4) == ()
        assert frame.to_frame((1,)) == (1,)

    def test_frame_direct_route(self):
        frame = resolve_frame([5, 4, 3, 1, 0], 5, 4, 9)
        assert frame == Frame(k=4, lam=(5, 4, 3, 1), beta=5, dualized=False, d=2)
        assert frame.rectangle(9) == (4, 4, 4, 4)
        assert frame.to_frame((2, 1, 1)) == (2, 1, 1)

    def test_frame_dual_route(self):
        frame = resolve_frame((4, 3, 3, 2, 1), 4, 5, 9)
        assert frame == Frame(k=4, lam=(5, 4, 3, 1), beta=5, dualized=True, d=2)
        assert frame.rectangle(9) == (4, 4, 4, 4)
        assert frame.to_frame((2, 1, 1)) == (3, 1)

    @pytest.mark.parametrize(
        "lam,i,k,n,message",
        [
            ((), 0, 0, 4, "1 <= k <= n-1"),
            ((), 0, 4, 4, "1 <= k <= n-1"),
            ((), 5, 4, 40, "rank cap"),
            ((3,), 2, 2, 4, "does not fit"),
            ((), -1, 2, 4, "0 <= i <= n-1"),
            ((), 4, 2, 4, "0 <= i <= n-1"),
        ],
    )
    def test_frame_rejects_bad_input(self, lam, i, k, n, message):
        with pytest.raises(ValueError, match=message):
            resolve_frame(lam, i, k, n)

    @pytest.mark.parametrize("i", [-1, 4])
    def test_index_message_shared_with_seidel_element(self, i):
        with pytest.raises(ValueError) as by_element:
            seidel_element(4, i)
        with pytest.raises(ValueError) as by_frame:
            resolve_frame((), i, 2, 4)
        # a valid u, so the index is the first argument found wrong
        with pytest.raises(ValueError) as by_check:
            seidel_product_check((1, 3, 2, 4), i, 2, 4)
        messages = {str(by_element.value), str(by_frame.value), str(by_check.value)}
        assert messages == {f"need 0 <= i <= n-1, got i={i}"}

    def test_check_identity_case(self):
        chk = seidel_product_check((2, 4, 1, 3), 0, 2, 4)
        assert chk.passed and chk.frame.d == 0 and not chk.frame.dualized
        assert chk.frame.beta is None
        assert chk.target == (2, 1)

    def test_check_primal_case(self):
        chk = seidel_product_check((1, 3, 2, 4), 2, 2, 4)
        assert chk.passed and not chk.frame.dualized
        assert chk.frame.beta == 2 and chk.frame.d == 1
        assert chk.target == (1,)
        assert chk.product == {((1,), 1): 1}

    def test_check_dual_case(self):
        chk = seidel_product_check((1, 2, 3, 4, 5), 1, 3, 5)
        assert chk.passed and chk.frame.dualized
        assert chk.frame.beta == 4 and chk.frame.d == 0
        assert chk.target == (2,)
        # the product itself lives in the transposed frame
        assert chk.product == {((1, 1), 0): 1}

    def test_check_ignores_coset_choice(self):
        rep = seidel_product_check((2, 4, 1, 3), 2, 2, 4)
        other = seidel_product_check((4, 2, 3, 1), 2, 2, 4)
        assert (rep.frame.d, rep.target, rep.passed) == (other.frame.d, other.target, other.passed)

    def test_check_is_a_value(self):
        chk = seidel_product_check((1, 3, 2, 4), 2, 2, 4)
        frame = Frame(k=2, lam=(1,), beta=2, dualized=False, d=1)
        assert chk == SeidelCheck(target=(1,), passed=True, product={((1,), 1): 1}, frame=frame)
        assert chk == seidel_product_check((1, 3, 2, 4), 2, 2, 4)
        for value, fields in ((chk, ("target", "passed", "product", "frame")),
                              (chk.frame, ("k", "lam", "beta", "dualized", "d"))):
            for field in fields:
                with pytest.raises(AttributeError):
                    setattr(value, field, None)

    @pytest.mark.parametrize(
        "u,k,n,message",
        [
            ((1, 1, 3), 1, 3, "not a permutation"),
            ((1, 2, 3), 1, 4, "rank mismatch"),
            ((1, 1, 3), 3, 3, "1 <= k <= n-1"),
        ],
    )
    def test_check_rejects_rank_before_permutation(self, u, k, n, message):
        with pytest.raises(ValueError, match=message):
            seidel_product_check(u, 1, k, n)

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


@pytest.mark.parametrize(
    "fn,args,message",
    [
        pytest.param(partition_to_perm, ((), 2, 40), "rank cap", id="partition_to_perm-n40"),
        pytest.param(partition_to_perm, ((), 0, 4), "1 <= k <= n-1", id="partition_to_perm-k0"),
        pytest.param(seidel_degree, ((), 3, 0, 4), "1 <= k <= n-1", id="seidel_degree-k0"),
        pytest.param(seidel_degree, ((), 20, 4, 40), "rank cap", id="seidel_degree-n40"),
        pytest.param(box_complement, ((), 5, 3), "1 <= k <= n-1", id="box_complement-k5n3"),
        pytest.param(rim_hook_reduce, ((), 2, 0), "1 <= k <= n-1", id="rim_hook_reduce-n0"),
    ],
)
def test_entry_points_check_the_rank(fn, args, message):
    with pytest.raises(ValueError, match=message):
        fn(*args)
