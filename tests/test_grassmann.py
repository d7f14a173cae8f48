import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from qseidel.grassmann import (
    bit_values,
    box_complement,
    box_partitions,
    check_box,
    conjugate,
    contains,
    dual_case,
    dual_mask,
    fmt_partition,
    fp_schubert_b,
    fp_schubert_bminus,
    interval_mask,
    k_subset_masks,
    mask_of,
    normalize_partition,
    parse_partition,
    partition_to_perm,
    perm_to_partition,
    subset_of,
    translate_fp,
    translate_mask,
)
from qseidel.perms import inverse

RANKS = [(k, n) for n in range(2, 7) for k in range(1, n)]


def point_of(mu, k, n):
    """Fixed point of the dimension-mu Schubert cell, as a mask."""
    return mask_of(partition_to_perm(mu, k, n)[:k])


class TestPartitions:
    def test_normalize(self):
        assert normalize_partition([3, 1, 0, 0]) == (3, 1)
        assert normalize_partition([]) == ()
        with pytest.raises(ValueError):
            normalize_partition([1, 2])
        with pytest.raises(ValueError):
            normalize_partition([2, -1])

    def test_box_check(self):
        assert check_box((2, 1), 2, 4) == (2, 1)
        with pytest.raises(ValueError):
            check_box((3,), 2, 4)
        with pytest.raises(ValueError):
            check_box((1, 1, 1), 2, 4)

    def test_conjugate_examples(self):
        assert conjugate((5, 4, 3, 1)) == (4, 3, 3, 2, 1)
        assert conjugate(()) == ()
        assert conjugate((1,)) == (1,)

    @given(st.lists(st.integers(0, 8), min_size=0, max_size=8))
    def test_conjugate_involution(self, parts):
        lam = normalize_partition(sorted(parts, reverse=True))
        assert conjugate(conjugate(lam)) == lam

    def test_box_complement(self):
        assert box_complement((1,), 2, 4) == (2, 1)
        assert box_complement((), 2, 4) == (2, 2)
        assert box_complement((2, 2), 2, 4) == ()

    @pytest.mark.parametrize("k,n", RANKS)
    def test_box_complement_involution(self, k, n):
        for lam in box_partitions(k, n):
            assert box_complement(box_complement(lam, k, n), k, n) == lam

    def test_box_partitions_count(self):
        # C(n, k) partitions fit in the box
        import math

        for k, n in RANKS:
            assert len(box_partitions(k, n)) == math.comb(n, k)

    def test_partition_io(self):
        assert parse_partition("5,4,3,1") == (5, 4, 3, 1)
        assert parse_partition("") == ()
        assert fmt_partition((5, 4, 3, 1)) == "5,4,3,1"
        with pytest.raises(ValueError):
            parse_partition("1,2")
        with pytest.raises(ValueError):
            parse_partition("a,1")


class TestPermPartition:
    def test_examples(self):
        assert perm_to_partition((2, 3, 4, 5, 1, 6, 7, 8, 9), 4, 9) == (1, 1, 1, 1)
        assert perm_to_partition((2, 4, 1, 3), 2, 4) == (2, 1)
        assert partition_to_perm((2, 1), 2, 4) == (2, 4, 1, 3)
        assert partition_to_perm((), 2, 4) == (1, 2, 3, 4)

    def test_rejects_non_minimal(self):
        with pytest.raises(ValueError):
            perm_to_partition((4, 2, 1, 3), 2, 4)

    def test_roundtrip_all_representatives(self):
        for n in range(2, 9):
            for k in range(1, n):
                for lam in box_partitions(k, n):
                    w = partition_to_perm(lam, k, n)
                    assert perm_to_partition(w, k, n) == lam


class TestMasks:
    def test_mask_subset_roundtrip(self):
        assert subset_of(mask_of({1, 3})) == (1, 3)
        assert mask_of(()) == 0
        assert subset_of(0) == ()

    def test_interval(self):
        assert subset_of(interval_mask(2, 4)) == (2, 3, 4)
        assert interval_mask(3, 2) == 0

    def test_k_subsets_order(self):
        masks = k_subset_masks(4, 2)
        assert [subset_of(m) for m in masks] == [
            (1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4),
        ]

    def test_k_subsets_table_cannot_be_changed_by_callers(self):
        copy = list(k_subset_masks(4, 2))
        copy.reverse()
        copy.append(0)
        assert [subset_of(m) for m in k_subset_masks(4, 2)] == [
            (1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4),
        ]

    def test_bit_values(self):
        assert bit_values(0) == ()
        assert bit_values(mask_of({1, 3, 4})) == (1, 4, 8)
        assert sum(bit_values(mask_of({2, 5}))) == mask_of({2, 5})

    def test_rank_cap(self):
        with pytest.raises(ValueError):
            fp_schubert_b((), 2, 17)


class TestFixedPoints:
    def test_cached_sets_are_keyed_on_the_normalized_partition(self):
        assert fp_schubert_b([1, 0], 2, 4) is fp_schubert_b((1,), 2, 4)
        assert fp_schubert_bminus([2, 1, 0], 2, 4) is fp_schubert_bminus((2, 1), 2, 4)
        with pytest.raises(ValueError):
            fp_schubert_b([1, 0, 1], 2, 4)

    def test_b_side_examples(self):
        assert fp_schubert_b((), 2, 4) == frozenset({mask_of({1, 2})})
        got = sorted(subset_of(m) for m in fp_schubert_b((1,), 2, 4))
        assert got == [(1, 2), (1, 3)]
        full = fp_schubert_b((2, 2), 2, 4)
        assert len(full) == 6

    def test_bminus_side_examples(self):
        assert fp_schubert_bminus((1,), 1, 2) == frozenset({mask_of({2})})
        got = sorted(subset_of(m) for m in fp_schubert_bminus((1,), 2, 4))
        assert got == [(1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]
        assert len(fp_schubert_bminus((), 2, 4)) == 6

    @pytest.mark.parametrize("k,n", RANKS)
    def test_against_cell_point_oracle(self, k, n):
        # a variety's fixed points are exactly the cell points it contains
        parts = box_partitions(k, n)
        for lam in parts:
            expect_b = {point_of(mu, k, n) for mu in parts if contains(lam, mu)}
            assert fp_schubert_b(lam, k, n) == expect_b
            expect_bm = {point_of(mu, k, n) for mu in parts if contains(mu, lam)}
            assert fp_schubert_bminus(lam, k, n) == expect_bm

    @pytest.mark.parametrize("k,n", RANKS)
    def test_base_points(self, k, n):
        bottom = mask_of(range(1, k + 1))
        top = mask_of(range(n - k + 1, n + 1))
        for lam in box_partitions(k, n):
            assert bottom in fp_schubert_b(lam, k, n)
            assert top in fp_schubert_bminus(lam, k, n)

    @pytest.mark.parametrize("k,n", RANKS)
    def test_monotone_in_partition(self, k, n):
        parts = box_partitions(k, n)
        for lam in parts:
            for mu in parts:
                if contains(mu, lam):
                    assert fp_schubert_b(lam, k, n) <= fp_schubert_b(mu, k, n)
                    assert fp_schubert_bminus(mu, k, n) <= fp_schubert_bminus(lam, k, n)


class TestTranslate:
    def test_example(self):
        pts = translate_fp((2, 1), [mask_of({1})])
        assert pts == frozenset({mask_of({2})})

    def test_translate_mask(self):
        assert translate_mask((3, 4, 1, 2), mask_of({1, 3})) == mask_of({3, 1})
        assert translate_mask((2, 3, 4, 1), mask_of({3, 4})) == mask_of({4, 1})

    @given(st.permutations(list(range(1, 7))), st.sets(st.integers(1, 6)))
    def test_inverse_undoes(self, g, elems):
        g = tuple(g)
        m = mask_of(elems)
        assert translate_mask(inverse(g), translate_mask(g, m)) == m

    def test_identity_fixes(self):
        pts = fp_schubert_b((1,), 2, 4)
        assert translate_fp((1, 2, 3, 4), pts) == pts


class TestDuality:
    def test_dual_case_examples(self):
        assert dual_case((5, 4, 3, 1), 4, 9) == ((4, 3, 3, 2, 1), 5)
        assert dual_case((2, 1), 2, 4) == ((2, 1), 2)
        assert dual_case((), 3, 5) == ((), 2)

    def test_dual_mask_involution(self):
        for n in range(2, 7):
            for k in range(1, n):
                for m in k_subset_masks(n, k):
                    d = dual_mask(m, n)
                    assert d.bit_count() == n - k
                    assert dual_mask(d, n) == m

    @pytest.mark.parametrize("k,n", RANKS)
    def test_fixed_point_correspondence(self, k, n):
        # the complement-and-reverse bijection carries each side to the
        # same side of the dual Grassmannian, with conjugated partition
        for lam in box_partitions(k, n):
            lam_d, k_d = dual_case(lam, k, n)
            assert lam_d == conjugate(lam) and k_d == n - k
            got_bm = {dual_mask(m, n) for m in fp_schubert_bminus(lam, k, n)}
            assert got_bm == fp_schubert_bminus(lam_d, k_d, n)
            got_b = {dual_mask(m, n) for m in fp_schubert_b(lam, k, n)}
            assert got_b == fp_schubert_b(lam_d, k_d, n)

    @pytest.mark.parametrize("k,n", RANKS)
    def test_side_cardinality_match(self, k, n):
        for lam in box_partitions(k, n):
            dual_codim = box_complement(lam, k, n)
            assert len(fp_schubert_b(lam, k, n)) == len(
                fp_schubert_bminus(dual_codim, k, n)
            )
