import itertools
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from qseidel import grassmann
from qseidel.grassmann import (
    bit_values,
    box_complement,
    box_partitions,
    check_box,
    conjugate,
    contains,
    dual_case,
    dual_fp,
    dual_mask,
    fmt_partition,
    flag_fixed_points,
    fp_schubert_b,
    fp_schubert_bminus,
    interval_mask,
    k_subset_masks,
    mask_of,
    normalize_partition,
    pair_key,
    parse_partition,
    partition_subset,
    partition_to_perm,
    perm_to_partition,
    subset_of,
    subset_partition,
    translate_fp,
    translate_mask,
)
from qseidel.perms import inverse, min_coset_rep

from helpers_oracles import oracle_subset_partition

RANKS = [(k, n) for n in range(2, 7) for k in range(1, n)]


def point_of(mu, k, n):
    """Fixed point of the dimension-mu Schubert cell, as a mask: the one
    k-subset whose oracle partition is mu."""
    (point,) = [
        s for s in itertools.combinations(range(1, n + 1), k) if oracle_subset_partition(s) == mu
    ]
    return mask_of(point)


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


class TestSubsetPartition:
    def test_against_oracle(self):
        seen = 0
        for n in range(2, 9):
            for k in range(1, n):
                image = []
                for s in itertools.combinations(range(1, n + 1), k):
                    lam = oracle_subset_partition(s)
                    assert subset_partition(s) == lam, s
                    assert partition_subset(lam, k) == s, s
                    image.append(lam)
                    seen += 1
                assert box_partitions(k, n) == sorted(image)
        assert seen == 494

    def test_rejects_too_many_rows(self):
        with pytest.raises(ValueError, match=r"shape \(1, 1, 1\) has more than 2 rows"):
            partition_subset([1, 1, 1], 2)

    @pytest.mark.parametrize("subset", [(3, 2), (2, 2), (0, 1)])
    def test_rejects_non_increasing_or_nonpositive(self, subset):
        with pytest.raises(ValueError):
            subset_partition(subset)


class TestPermPartition:
    def test_examples(self):
        assert perm_to_partition((2, 3, 4, 5, 1, 6, 7, 8, 9), 4, 9) == (1, 1, 1, 1)
        assert perm_to_partition((2, 4, 1, 3), 2, 4) == (2, 1)
        assert partition_to_perm((2, 1), 2, 4) == (2, 4, 1, 3)
        assert partition_to_perm((), 2, 4) == (1, 2, 3, 4)

    def test_reads_any_coset(self):
        assert perm_to_partition((4, 2, 1, 3), 2, 4) == (2, 1)
        for n in range(2, 7):
            for k in range(1, n):
                roots = frozenset(range(1, n)) - {k}
                for w in itertools.permutations(range(1, n + 1)):
                    rep = min_coset_rep(w, roots)
                    assert perm_to_partition(w, k, n) == perm_to_partition(rep, k, n)

    @pytest.mark.parametrize(
        "w,k,n,message",
        [
            ((1, 1, 3), 1, 3, "not a permutation"),
            ((1, 2, 3), 1, 4, "rank mismatch"),
            ((1, 2, 3), 3, 3, "1 <= k <= n-1"),
        ],
    )
    def test_rejects_bad_input(self, w, k, n, message):
        with pytest.raises(ValueError, match=message):
            perm_to_partition(w, k, n)

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
        masks = k_subset_masks(2, 4)
        assert [subset_of(m) for m in masks] == [
            (1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4),
        ]

    def test_k_subsets_table_cannot_be_changed_by_callers(self):
        copy = list(k_subset_masks(2, 4))
        copy.reverse()
        copy.append(0)
        assert [subset_of(m) for m in k_subset_masks(2, 4)] == [
            (1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4),
        ]

    def test_k_subsets_reject_k_above_n(self):
        with pytest.raises(ValueError, match="need 0 <= k <= n, got k=3, n=2"):
            k_subset_masks(3, 2)

    def test_the_store_holds_the_pair_of_the_last_call(self, monkeypatch):
        built = []
        build = k_subset_masks.fn

        def counted(k, n):
            built.append((k, n))
            return build(k, n)

        monkeypatch.setattr(k_subset_masks, "fn", counted)
        store = grassmann.GrassmannianMemo.store
        first = k_subset_masks(3, 7)
        k_subset_masks(4, 7)
        # Gr(3, 7) and Gr(4, 7) are one pair, so its first table is kept
        assert k_subset_masks(3, 7) is first
        assert built == [(3, 7), (4, 7)]
        assert len(store) == 2
        assert grassmann.GrassmannianMemo.held == pair_key(3, 7) == pair_key(4, 7)
        # another pair empties the store, for every memo that shares it
        k_subset_masks(2, 7)
        assert list(store) == [(k_subset_masks, (2, 7))]
        fp_schubert_bminus((1,), 3, 7)
        assert (k_subset_masks, (2, 7)) not in store
        assert k_subset_masks(3, 7) is not first
        assert built == [(3, 7), (4, 7), (2, 7), (3, 7)]
        k_subset_masks.cache_clear()
        assert store == {}
        assert grassmann.GrassmannianMemo.held is None

    def test_bit_values(self):
        assert bit_values(0) == ()
        assert bit_values(mask_of({1, 3, 4})) == (1, 4, 8)
        assert sum(bit_values(mask_of({2, 5}))) == mask_of({2, 5})

    def test_rank_cap(self):
        with pytest.raises(ValueError):
            fp_schubert_b((), 2, 17)


class TestFixedPoints:
    def test_cached_sets_are_keyed_on_the_normalized_partition(self):
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


def filtered_sides(lam, k, n):
    """Both Schubert fixed-point sets by their flag definition: the
    k-subsets meeting the prefixes {1..s} of the lower variety's subset,
    and the suffixes {s..n} of the opposite one's, as
    ``flag_fixed_points`` filters them."""
    s = partition_subset(lam, k)
    prefixes = [interval_mask(1, e) for e in s]
    suffixes = [interval_mask(e, n) for e in reversed(s)]
    return flag_fixed_points(prefixes, k, n), flag_fixed_points(suffixes, k, n)


class TestGaleWalk:
    """Schubert fixed points are walked as Gale intervals by rank; these
    compare the walk with the flag filter that defined them."""

    @pytest.mark.parametrize("n", range(2, 10))
    def test_matches_the_flag_filter_small(self, n):
        for k in range(1, n):
            for lam in box_partitions(k, n):
                assert (fp_schubert_b(lam, k, n), fp_schubert_bminus(lam, k, n)) == (
                    filtered_sides(lam, k, n)
                ), (lam, k, n)

    def test_matches_the_flag_filter_at_the_rank_cap(self):
        rng = random.Random(16)
        drawn = []
        for _ in range(200):
            k = rng.randrange(1, 16)
            drawn.append((rng.choice(box_partitions(k, 16)), k))
        ends = [(lam, k) for k in (1, 5, 8, 15) for lam in ((), (16 - k,) * k)]
        for lam, k in sorted(drawn + ends, key=lambda case: case[1]):
            assert (fp_schubert_b(lam, k, 16), fp_schubert_bminus(lam, k, 16)) == (
                filtered_sides(lam, k, 16)
            ), (lam, k)

    def test_the_empty_partition_and_the_full_box(self):
        for k, n in [(1, 2), (3, 7), (8, 16)]:
            full = (n - k,) * k
            assert fp_schubert_b((), k, n) == {mask_of(range(1, k + 1))}
            assert fp_schubert_bminus(full, k, n) == {mask_of(range(n - k + 1, n + 1))}
            assert fp_schubert_b(full, k, n) == fp_schubert_bminus((), k, n) == set(
                k_subset_masks(k, n)
            )

    def test_lex_rank_is_the_table_index(self):
        for n in range(1, 11):
            for k in range(n + 1):
                table = k_subset_masks(k, n)
                for subset in itertools.combinations(range(1, n + 1), k):
                    assert grassmann._lex_rank(subset, n) == table.index(mask_of(subset))


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

    def test_tables_match_elementwise_image_small(self):
        for n in range(1, 6):
            for g in itertools.permutations(range(1, n + 1)):
                for m in range(1 << n):
                    image = mask_of(g[s - 1] for s in subset_of(m))
                    assert translate_fp(g, [m]) == {image}

    def test_tables_match_elementwise_image_seeded(self):
        rng = random.Random(9)
        for n in range(9, 17):
            for _ in range(10):
                g = tuple(rng.sample(range(1, n + 1), n))
                masks = [rng.getrandbits(n) for _ in range(40)]
                for m in masks:
                    image = mask_of(g[s - 1] for s in subset_of(m))
                    assert translate_fp(g, [m]) == {image}
                assert translate_fp(g, masks) == {translate_mask(g, m) for m in masks}

    def test_byte_tables_are_the_elementwise_images(self):
        rng = random.Random(8)
        for n in range(1, 17):
            g = tuple(rng.sample(range(1, n + 1), n))
            low = tuple(translate_mask(g, m) for m in range(1 << min(n, 8)))
            high = tuple(translate_mask(g, m << 8) for m in range(1 << max(n - 8, 0)))
            assert grassmann._byte_tables(g) == (low, high)

    def test_rank_cap(self):
        with pytest.raises(ValueError, match="rank cap"):
            translate_fp(tuple(range(1, 18)), [1])

    @pytest.mark.parametrize(
        "g,masks,bad",
        [
            ((2, 1), [mask_of({5})], "mask=16, n=2"),
            ((2, 1), [mask_of({1}), 4], "mask=4, n=2"),
            (tuple(range(1, 10)), [-1], "mask=-1, n=9"),
            (tuple(range(1, 10)), [mask_of({1, 9}), 1 << 9], "mask=512, n=9"),
            ((), [0], "mask=0, n=0"),
        ],
    )
    def test_rejects_masks_outside_the_rank(self, g, masks, bad):
        with pytest.raises(ValueError, match=rf"0 <= mask < 2\^n, got {bad}$"):
            translate_fp(g, masks)


class TestDuality:
    def test_dual_case_examples(self):
        assert dual_case((5, 4, 3, 1), 4, 9) == ((4, 3, 3, 2, 1), 5)
        assert dual_case((2, 1), 2, 4) == ((2, 1), 2)
        assert dual_case((), 3, 5) == ((), 2)

    def test_dual_mask_involution(self):
        for n in range(2, 7):
            for k in range(1, n):
                for m in k_subset_masks(k, n):
                    d = dual_mask(m, n)
                    assert d.bit_count() == n - k
                    assert dual_mask(d, n) == m

    def test_dual_mask_matches_definition(self):
        def reversed_complement(m, n):
            return mask_of(n + 1 - s for s in range(1, n + 1) if s not in subset_of(m))

        for n in range(1, 6):
            for m in range(1 << n):
                assert dual_mask(m, n) == reversed_complement(m, n)
        rng = random.Random(10)
        for n in range(9, 17):
            for _ in range(200):
                m = rng.getrandbits(n)
                assert dual_mask(m, n) == reversed_complement(m, n)

    @pytest.mark.parametrize(
        "mask,n",
        [(mask_of({5}), 3), (1 << 16, 16), (-1, 4), (1, 0), (0, 0), (0, 17), (0, -1)],
    )
    def test_dual_mask_rejects_masks_outside_the_rank(self, mask, n):
        message = rf"need 1 <= n <= 16 and 0 <= mask < 2\^n, got mask={mask}, n={n}$"
        with pytest.raises(ValueError, match=message):
            dual_mask(mask, n)

    def test_dual_fp_is_dual_mask_on_each_point(self):
        rng = random.Random(21)
        for n in (1, 2, 5, 8, 9, 16):
            pts = [rng.getrandbits(n) for _ in range(40)]
            assert dual_fp(pts, n) == frozenset(dual_mask(m, n) for m in pts)
            assert dual_fp(iter(pts), n) == dual_fp(pts, n)
            assert dual_fp([], n) == frozenset()

    @pytest.mark.parametrize(
        "masks,n,bad",
        [
            ([1, mask_of({5})], 3, mask_of({5})),
            ([1 << 16], 16, 1 << 16),
            ([-1, 2], 4, -1),
            ([1], 0, 1),
            ([], 0, 0),
            ([], 17, 0),
            ([], -1, 0),
        ],
    )
    def test_dual_fp_rejects_masks_outside_the_rank(self, masks, n, bad):
        message = rf"need 1 <= n <= 16 and 0 <= mask < 2\^n, got mask={bad}, n={n}$"
        with pytest.raises(ValueError, match=message):
            dual_fp(masks, n)

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
