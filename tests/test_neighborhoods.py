import collections
import functools
import itertools
import math
import multiprocessing
import os
import random
import re
import signal
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers_oracles import oracle_gamma, oracle_projection
from qseidel import grassmann, neighborhoods, quantum
from qseidel.cli import render_case_text
from qseidel.grassmann import (
    box_complement,
    box_partitions,
    fp_schubert_b,
    fp_schubert_bminus,
    k_subset_masks,
    mask_of,
    pair_key,
    partition_subset,
    perm_to_partition,
    size,
    sorted_subsets,
    subset_of,
)
from qseidel.neighborhoods import (
    CHECK_NAMES,
    SweepReport,
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
from qseidel.perms import parabolic_quotient, parse_perm
from qseidel.quantum import resolve_frame, seidel_class, seidel_degree, seidel_product_check


def flat_pairs(groups):
    """The pairs (A, B) of ``fp_richardson``'s groups, B = A + W for the
    group's difference W, each checked to be filed once."""
    pairs = [(a, a | w) for w, inner in groups.items() for a in inner]
    assert all(inner for inner in groups.values())
    assert all(a & w == 0 for w, inner in groups.items() for a in inner)
    assert len(set(pairs)) == len(pairs)
    return frozenset(pairs)


def pairs_of(groups):
    return sorted((subset_of(a), subset_of(b)) for a, b in flat_pairs(groups))


class TestProjectedFixedPoints:
    def test_degree_zero_is_diagonal(self):
        # each side against the whole Grassmannian on the other
        for side, lam_b, lam_bm in [("B", (1,), ()), ("Bminus", (2, 2), (2, 1))]:
            lam = lam_b if side == "B" else lam_bm
            fps = (
                fp_schubert_b(lam, 2, 4) if side == "B" else fp_schubert_bminus(lam, 2, 4)
            )
            assert len(fp_projected_schubert(side, lam, 0, 2, 4)) == len(fps)
            got = flat_pairs(fp_richardson(lam_b, lam_bm, 0, 2, 4))
            assert got == frozenset((c, c) for c in fps)

    def test_point_class_example(self):
        assert len(fp_projected_schubert("B", (), 1, 2, 4)) == 4
        # the codimension-zero opposite side projects onto every nested pair
        got = pairs_of(fp_richardson((), (), 1, 2, 4))
        assert got == [
            ((1,), (1, 2, 3)),
            ((1,), (1, 2, 4)),
            ((2,), (1, 2, 3)),
            ((2,), (1, 2, 4)),
        ]

    def test_codim_one_example_saturates(self):
        assert len(fp_projected_schubert("Bminus", (1,), 1, 2, 4)) == 12
        got = flat_pairs(fp_richardson((2, 2), (1,), 1, 2, 4))
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
        assert fp_richardson((), (2, 2), 0, 2, 4) == {}

    def test_degree_zero_is_richardson_diagonal(self):
        common = fp_schubert_b((2, 1), 2, 4) & fp_schubert_bminus((1,), 2, 4)
        assert flat_pairs(fp_richardson((2, 1), (1,), 0, 2, 4)) == frozenset(
            (c, c) for c in common
        )


RANKS_6 = [(k, n) for n in range(2, 7) for k in range(1, n)]
SIDES = ("B", "Bminus")


@functools.lru_cache(maxsize=None)
def expected_projection(side, lam, d, k, n):
    fps = fp_schubert_b(lam, k, n) if side == "B" else fp_schubert_bminus(lam, k, n)
    return oracle_projection(fps, d, k, n)


def projection_cases():
    """(side, lam, d, k, n) for every side, box partition and degree up to n = 6."""
    for k, n in RANKS_6:
        for lam in box_partitions(k, n):
            for d in range(min(k, n - k) + 1):
                for side in SIDES:
                    yield side, lam, d, k, n


class TestProjectionOracle:
    """Projection counts and their join against pairs scanned from the raw
    definition."""

    def test_length_matches_oracle(self):
        for side, lam, d, k, n in projection_cases():
            proj = fp_projected_schubert(side, lam, d, k, n)
            assert len(proj) == len(expected_projection(side, lam, d, k, n))

    def test_intersection_matches_oracle(self):
        for k, n in RANKS_6:
            parts = box_partitions(k, n)
            for d in range(min(k, n - k) + 1):
                for lb in parts:
                    for lbm in parts:
                        both = expected_projection("B", lb, d, k, n) & expected_projection(
                            "Bminus", lbm, d, k, n
                        )
                        assert flat_pairs(fp_richardson(lb, lbm, d, k, n)) == both

    def test_join_matches_oracle_beyond_n6(self):
        rng = random.Random(15)
        for n in (7, 8, 9):
            for _ in range(8):
                k = rng.randint(1, n - 1)
                parts = box_partitions(k, n)
                lb, lbm = rng.choice(parts), rng.choice(parts)
                d = rng.randint(0, min(k, n - k))
                both = oracle_projection(fp_schubert_b(lb, k, n), d, k, n) & oracle_projection(
                    fp_schubert_bminus(lbm, k, n), d, k, n
                )
                assert flat_pairs(fp_richardson(lb, lbm, d, k, n)) == both, (lb, lbm, d, k, n)


    @pytest.mark.parametrize("n", [10, 11])
    def test_join_matches_oracle_at_n10_and_n11(self, n):
        # Seidel frames, whose "B" side is a k-row rectangle, and frames
        # whose "B" side is no rectangle and reaches below n, so that the
        # join skips the "Bminus" fixed points with too much outside it
        rng = random.Random(n)
        frames = []
        while len(frames) < 7:
            k = rng.choice((2, 3, n - 3, n - 2))
            parts = box_partitions(k, n)
            lam = rng.choice(parts)
            if len(frames) < 4:
                beta = rng.randrange(k, n)
                lb = box_complement(seidel_class(beta, k, n), k, n)
                frames.append((lb, lam, seidel_degree(lam, beta, k, n), k, n))
                continue
            lb = rng.choice(parts)
            if len(set(lb)) > 1 and lb[0] < n - k:
                frames.append((lb, lam, rng.randint(1, min(k, n - k)), k, n))
        for lb, lbm, d, k, n in frames:
            reach = fp_projected_schubert("B", lb, d, k, n).reach
            assert reach == mask_of(range(1, partition_subset(lb, k)[-1] + 1))
            both = oracle_projection(fp_schubert_b(lb, k, n), d, k, n) & oracle_projection(
                fp_schubert_bminus(lbm, k, n), d, k, n
            )
            assert flat_pairs(fp_richardson(lb, lbm, d, k, n)) == both, (lb, lbm, d, k, n)

    def test_near_parts_are_the_near_members_by_inner_set(self):
        # computed on demand, they equal the index C - L -> L over every
        # fixed point C and d-subset L of C, for every (lam_b, d) with n <= 7
        for n in range(2, 8):
            for k in range(1, n):
                for lb in box_partitions(k, n):
                    fps = fp_schubert_b(lb, k, n)
                    for d in range(min(k, n - k) + 1):
                        index = collections.defaultdict(set)
                        for c in fps:
                            for near in itertools.combinations(subset_of(c), d):
                                index[c - mask_of(near)].add(mask_of(near))
                        proj = fp_projected_schubert("B", lb, d, k, n)
                        for a in k_subset_masks(k - d, n):
                            got = proj.near_parts(a)
                            assert len(set(got)) == len(got)
                            assert set(got) == index.get(a, set()), (lb, d, k, n, a)

    @given(st.data())
    def test_groups_match_oracle_on_random_frames(self, data):
        n = data.draw(st.integers(2, 9), label="n")
        k = data.draw(st.integers(1, n - 1), label="k")
        parts = st.sampled_from(box_partitions(k, n))
        lb, lbm = data.draw(parts, label="lam_b"), data.draw(parts, label="lam_bm")
        d = data.draw(st.integers(0, min(k, n - k)), label="d")
        both = oracle_projection(fp_schubert_b(lb, k, n), d, k, n) & oracle_projection(
            fp_schubert_bminus(lbm, k, n), d, k, n
        )
        assert flat_pairs(fp_richardson(lb, lbm, d, k, n)) == both


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
        # each set is first computed here on a cold cache, then served warm;
        # the per-pair store starts empty in every test
        grassmann.bit_values.cache_clear()
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


    @pytest.mark.parametrize("n", [7, 8])
    def test_matches_oracle_seeded_beyond_n6(self, n):
        rng = random.Random(n)
        for _ in range(8):
            k = rng.randrange(2, n - 1)
            parts = box_partitions(k, n)
            lb, lbm = rng.choice(parts), rng.choice(parts)
            d = rng.randint(1, min(k, n - k))
            expect = oracle_gamma(
                fp_schubert_b(lb, k, n), fp_schubert_bminus(lbm, k, n), d, k, n
            )
            assert gamma_fp(lb, lbm, d, k, n) == expect


def listed_boxes(lam_b, lam_bm, d, k, n):
    """The neighborhood as the union, over the pairs (A, B) of
    ``fp_richardson``, of the k-subsets between A and B, each listed."""
    out = set()
    for a, b in flat_pairs(fp_richardson(lam_b, lam_bm, d, k, n)):
        out.update(a | mask_of(x) for x in itertools.combinations(subset_of(b ^ a), d))
    return frozenset(out)


def seeded_frames(seed):
    """One Seidel frame (lam_b, lam, d, k, n) for each n = 9..16."""
    rng = random.Random(seed)
    for n in range(9, 17):
        k = rng.randrange(1, n)
        beta = rng.randrange(k, n)
        lam = rng.choice(box_partitions(k, n))
        lam_b = box_complement(seidel_class(beta, k, n), k, n)
        yield lam_b, lam, seidel_degree(lam, beta, k, n), k, n


class TestGammaBitset:
    """``gamma_fp`` reads its members off one bitset indexed by mask value;
    these compare it with the listed union beyond the first byte of masks
    and at the rank cap."""

    @pytest.mark.parametrize("seed", range(3))
    def test_seeded_frames_match_the_listed_union(self, seed):
        for frame in seeded_frames(seed):
            got = gamma_fp(*frame)
            assert got == listed_boxes(*frame), frame
            assert got  # a Seidel neighborhood holds the target's fixed points

    def test_reaches_masks_beyond_one_byte(self):
        # the degree-2 neighborhood of the point {1, 2, 3} of Gr(3, 12): the
        # 3-subsets that meet it, 90 of them above element 8
        got = gamma_fp((), (), 2, 3, 12)
        assert got == listed_boxes((), (), 2, 3, 12)
        assert got == {m for m in k_subset_masks(3, 12) if m & 0b111}
        assert len(got) == math.comb(12, 3) - math.comb(9, 3)
        assert max(got) == mask_of({3, 11, 12})

    def test_degree_zero_is_the_diagonal_at_the_rank_cap(self):
        rng = random.Random(16)
        for k in (1, 5, 8, 15):
            parts = box_partitions(k, 16)
            for _ in range(3):
                lb, lbm = rng.choice(parts), rng.choice(parts)
                expect = fp_schubert_b(lb, k, 16) & fp_schubert_bminus(lbm, k, 16)
                assert gamma_fp(lb, lbm, 0, k, 16) == expect == listed_boxes(lb, lbm, 0, k, 16)

    def test_empty_neighborhood(self):
        # the B-stable point {1..8} lies below no other fixed point
        assert fp_richardson((), (8,) * 8, 0, 8, 16) == {}
        assert gamma_fp((), (8,) * 8, 0, 8, 16) == frozenset()
        assert gamma_fp((), (1,), 0, 1, 9) == frozenset()

    def test_sampled_frame_at_the_rank_cap(self):
        # a frame of the sampled n = 16 sweep: Gr(7, 16), beta = 13, d = 3
        lam_b = box_complement(seidel_class(13, 7, 16), 7, 16)
        lam = (9, 9, 9, 1, 1)
        assert seidel_degree(lam, 13, 7, 16) == 3
        groups = fp_richardson(lam_b, lam, 3, 7, 16)
        assert len(groups) == 286
        assert sum(map(len, groups.values())) == len(flat_pairs(groups)) == 59220
        got = gamma_fp(lam_b, lam, 3, 7, 16)
        assert len(got) == 11430
        assert got == listed_boxes(lam_b, lam, 3, 7, 16)


    def test_rank_cap_frame_holds_no_pair_list(self):
        # the frame above, with its projections and near parts built by a
        # first call: the join and the union hold each group's inner sets,
        # never every pair at once
        lam_b = box_complement(seidel_class(13, 7, 16), 7, 16)
        lam = (9, 9, 9, 1, 1)
        gamma_fp(lam_b, lam, 3, 7, 16)
        tracemalloc.start()
        try:
            gamma_fp(lam_b, lam, 3, 7, 16)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * 2**20

    def test_sampled_frame_shifting_the_subsets(self):
        # a frame of the seed-0 sampled n = 16 sweep: Gr(10, 16), beta = 11,
        # d = 4, where every group holds fewer inner sets than its 70
        # 4-subsets, so the subsets' bitset is shifted by the inner sets
        lam_b = box_complement(seidel_class(11, 10, 16), 10, 16)
        lam = (6, 5, 5, 5, 5, 2, 2, 2, 1, 1)
        assert seidel_degree(lam, 11, 10, 16) == 4
        groups = fp_richardson(lam_b, lam, 4, 10, 16)
        assert len(groups) == 780
        assert sum(map(len, groups.values())) == len(flat_pairs(groups)) == 2220
        assert max(map(len, groups.values())) < math.comb(8, 4)
        got = gamma_fp(lam_b, lam, 4, 10, 16)
        assert len(got) == 3829
        assert got == listed_boxes(lam_b, lam, 4, 10, 16)


class TestGFlagChain:
    def test_worked_example(self):
        chain = g_flag_chain((1,), 2, 1, 2, 4)
        assert chain == (mask_of({1, 2}), mask_of({1, 2, 3, 4}))
        # each member is spanned by a prefix of the basis order 2, 1, 4, 3
        assert all(g == mask_of((2, 1, 4, 3)[: g.bit_count()]) for g in chain)
        assert v_from_gflags(chain, 2, 4) == (1,)

    def test_rejects_wrong_degree(self):
        with pytest.raises(ValueError, match="degree 0 inconsistent with seidel_degree=1"):
            g_flag_chain((1,), 2, 0, 2, 4)
        with pytest.raises(ValueError, match="degree 1 inconsistent with seidel_degree=0"):
            g_flag_chain((), 2, 1, 2, 4)
        # beta < k: unchecked, the degree formula gives 1 and a chain would be built
        with pytest.raises(ValueError, match="need k <= beta <= n-1, got beta=1, k=2, n=4"):
            g_flag_chain((), 1, 1, 2, 4)
        # the box is checked first: a partition outside it has no degree
        with pytest.raises(ValueError, match=re.escape("partition (3,) does not fit in a 2x2 box")):
            g_flag_chain((3,), 2, 1, 2, 4)

    # no valid input reaches the chain's own checks: patch its masks
    def test_rejects_a_member_that_is_not_an_initial_segment(self, monkeypatch):
        monkeypatch.setattr(neighborhoods, "interval_mask", lambda lo, hi: mask_of({1}))
        with pytest.raises(ValueError, match="chain member 1 is not an initial segment"):
            g_flag_chain((1,), 2, 1, 2, 4)

    def test_rejects_a_chain_that_does_not_increase(self, monkeypatch):
        monkeypatch.setattr(neighborhoods, "interval_mask", lambda lo, hi: mask_of({2}))
        with pytest.raises(ValueError, match="chain not strictly increasing at member 2"):
            g_flag_chain((1,), 2, 1, 2, 4)

    def test_v_rejects_dimensions_that_give_no_partition(self):
        chain = (mask_of({1, 2, 3}), mask_of({1, 2}))
        with pytest.raises(ValueError, match=re.escape("give a non-partition: [0, 2]")):
            v_from_gflags(chain, 2, 4)

    def test_structure_exhaustive_small(self):
        # every admissible (lam, beta) yields a strict chain whose
        # codimension partition satisfies the length identity
        for n in range(2, 7):
            for k in range(1, n):
                for beta in range(k, n):
                    for lam in box_partitions(k, n):
                        d = seidel_degree(lam, beta, k, n)
                        chain = g_flag_chain(lam, beta, d, k, n)
                        sizes = [g.bit_count() for g in chain]
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


def frame_gamma(n, k, i, u):
    """The case's neighborhood fixed points in the frame of its product
    check, before they are mapped back from a dual frame."""
    frame = seidel_product_check(u, i, k, n).frame
    lam_b = box_complement(frame.rectangle(n), frame.k, n)
    return gamma_fp(lam_b, frame.lam, frame.d, frame.k, n)


class TestVerifyCase:
    def test_projective_line_cases(self):
        full = verify_case(2, 1, 1, (2, 1))
        assert full["pass"] and full["d"] == 1
        assert sorted_subsets(frame_gamma(2, 1, 1, (2, 1))) == ((1,), (2,))
        fixed = verify_case(2, 1, 1, (1, 2))
        assert fixed["pass"] and fixed["d"] == 0
        assert sorted_subsets(frame_gamma(2, 1, 1, (1, 2))) == ((1,),)

    def test_worked_case(self):
        rec = verify_case(4, 2, 2, (1, 3, 2, 4))
        assert rec["pass"] and (rec["d"], rec["beta"], rec["dualized"]) == (1, 2, False)
        gamma = frame_gamma(4, 2, 2, (1, 3, 2, 4))
        assert sorted_subsets(gamma) == ((1, 2), (1, 3), (1, 4), (2, 3), (2, 4))
        assert set(rec["checks"]) == set(CHECK_NAMES)

    def test_identity_root_case(self):
        rec = verify_case(4, 2, 0, (2, 4, 1, 3))
        assert rec["pass"] and rec["d"] == 0 and rec["beta"] is None

    def test_dualized_case(self):
        rec = verify_case(4, 3, 1, (1, 2, 3, 4))
        assert rec["dualized"] and rec["beta"] == 3
        assert rec["pass"], rec["checks"]

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError, match="need 0 <= i <= n-1, got i=4"):
            verify_case(4, 2, 4, (1, 2, 3, 4))
        with pytest.raises(ValueError, match="rank mismatch: 3 vs n=4"):
            verify_case(4, 2, 1, (1, 2, 3))

    def test_record_shape_on_pass(self):
        rec = verify_case(4, 2, 2, (1, 3, 2, 4))
        assert rec["pass"] is True
        assert rec["u"] == "1,3,2,4"
        assert "counterexample_detail" not in rec
        assert set(rec["checks"]) == set(CHECK_NAMES)

    def test_passing_record_skips_the_product_terms(self, monkeypatch):
        def no_terms(product):
            raise AssertionError("a passing record formatted the product")

        monkeypatch.setattr(neighborhoods, "term_records", no_terms)
        assert verify_case(4, 2, 2, (1, 3, 2, 4))["pass"] is True

    def test_record_detail_on_failure(self, monkeypatch):
        real = neighborhoods.translate_fp

        def first_three(g, pts):
            return frozenset(mask_of(s) for s in sorted_subsets(real(g, pts))[:3])

        monkeypatch.setattr(neighborhoods, "translate_fp", first_three)
        rec = verify_case(4, 2, 2, (1, 3, 2, 4))
        assert rec["pass"] is False
        assert [name for name, ok in rec["checks"].items() if not ok] == ["fp_equality"]
        detail = rec["counterexample_detail"]
        assert detail["gamma_minus_target"] == ["2,3", "2,4"]
        assert detail["target_minus_gamma"] == []
        assert detail["v_partition"] == "1"
        assert (detail["length_v"], detail["length_target"]) == (1, 1)
        assert detail["product_terms"] == [{"partition": "1", "q": 1, "coeff": 1}]

    def test_chain_error_fails_only_the_chain_checks(self, monkeypatch):
        def no_chain(*args):
            raise ValueError("chain member 1 is not an initial segment")

        monkeypatch.setattr(neighborhoods, "g_flag_chain", no_chain)
        rec = verify_case(4, 2, 2, (1, 3, 2, 4))
        assert rec["checks"] == {
            "fp_equality": True,
            "g_chain_containment": False,
            "v_match": False,
            "length_identity": False,
            "product_single_term": True,
        }
        detail = rec["counterexample_detail"]
        assert (detail["v_partition"], detail["length_v"]) == (None, None)
        text = render_case_text(rec)
        assert "  v_partition=None target_partition=1 length_v=None length_target=1\n" in text

    def test_cardinality_invariant(self):
        # dualizing maps fixed points one to one, so the frame's count is the case's
        for n, k, i, u in sweep_cases(4):
            target = seidel_product_check(u, i, k, n).target
            assert len(frame_gamma(n, k, i, u)) == len(fp_schubert_bminus(target, k, n))


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

    monkeypatch.setattr(multiprocessing, "Pool", FakePool)
    return sizes


@pytest.fixture
def quotient_calls(monkeypatch):
    """Ranks of the parabolic quotients a test builds for sweep blocks."""
    built: list[int] = []

    def counting_quotient(n, roots):
        built.append(n)
        return parabolic_quotient(n, roots)

    monkeypatch.setattr(neighborhoods, "parabolic_quotient", counting_quotient)
    return built


class TestSweep:
    def test_case_enumeration(self):
        assert list(sweep_cases(2)) == [
            (2, 1, 0, (1, 2)),
            (2, 1, 0, (2, 1)),
            (2, 1, 1, (1, 2)),
            (2, 1, 1, (2, 1)),
        ]
        counts = {2: 4, 3: 22, 4: 78}
        for n_max, total in counts.items():
            assert len(sweep_cases(n_max)) == total

    def test_indexing_matches_iteration(self):
        counts = {2: 4, 3: 22, 4: 78, 5: 228, 6: 600, 7: 1482}
        for n_max, total in counts.items():
            expected = [
                (n, k, i, u)
                for n in range(2, n_max + 1)
                for k in range(1, n)
                for i in range(n)
                for u in parabolic_quotient(n, frozenset(range(1, n)) - {k})
            ]
            seq = sweep_cases(n_max)
            assert len(seq) == len(expected) == total
            assert list(seq) == expected
            assert [seq[j] for j in range(len(seq))] == expected
            assert seq[-1] == expected[-1]
            with pytest.raises(IndexError):
                seq[len(seq)]
            with pytest.raises(IndexError):
                seq[-len(seq) - 1]

    def test_iteration_builds_each_block_once(self, quotient_calls):
        assert len(list(sweep_cases(7))) == 1482
        assert len(quotient_calls) == 21  # one per (n, k) block with n <= 7

    @pytest.mark.parametrize("n_max", [5, 7])
    def test_sampling_reads_like_a_list(self, n_max):
        seq = sweep_cases(n_max)
        listed = list(seq)
        for seed in (0, 1, 7, 123):
            for m in (1, 5, 10, 60, len(listed)):
                assert random.Random(seed).sample(seq, m) == random.Random(seed).sample(listed, m)

    def test_sampling_builds_only_the_sampled_blocks(self, monkeypatch, quotient_calls):
        monkeypatch.setattr(neighborhoods, "_verify_record", lambda case: {"pass": True})
        report = sweep(16, mode="sampled", sample_size=10)
        assert report.total == 10
        assert len(quotient_calls) == 10  # one per sampled case, none held

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            sweep_cases(1)
        with pytest.raises(ValueError):
            sweep(3, mode="all")
        with pytest.raises(ValueError):
            sweep(3, mode="sampled")

    @pytest.mark.parametrize("opts", [{"seed": 0}, {"sample_size": 5}])
    def test_exhaustive_rejects_sampling_options(self, opts):
        with pytest.raises(ValueError, match="only to sampled mode"):
            sweep(3, **opts)

    @pytest.mark.parametrize("size", [0, -1])
    def test_sampled_rejects_size_below_one(self, size):
        with pytest.raises(ValueError, match="sample_size >= 1"):
            sweep(3, mode="sampled", sample_size=size)

    @pytest.mark.parametrize("opts", [{}, {"mode": "sampled", "sample_size": 1}])
    def test_rejects_n_max_above_rank_cap(self, monkeypatch, opts):
        # the cap is checked before a single case is built
        monkeypatch.setattr(neighborhoods, "parabolic_quotient", None)
        with pytest.raises(ValueError, match="rank cap"):
            sweep(grassmann.MAX_RANK + 1, **opts)

    def test_exhaustive_small(self):
        report = sweep(3)
        assert report.total == 22
        assert report.all_passed
        assert report.record()["fail"] == 0
        assert [
            (c["n"], c["k"], c["i"], parse_perm(c["u"])) for c in report.cases
        ] == list(sweep_cases(3))

    def test_report_is_a_value(self):
        report = sweep(3)
        same = SweepReport(n_max=3, mode="exhaustive", sample_size=None, seed=None, cases=list(report.cases))
        assert report == same
        for field in ("n_max", "mode", "sample_size", "seed", "cases"):
            with pytest.raises(AttributeError):
                setattr(report, field, None)

    def test_report_record(self):
        cases = [{"pass": True}, {"pass": False}, {"pass": True}]
        report = SweepReport(n_max=5, mode="sampled", sample_size=3, seed=7, cases=cases)
        assert (report.total, report.all_passed) == (3, False)
        rec = report.record()
        assert list(rec) == ["n_max", "mode", "sample_size", "seed", "total", "pass", "fail", "cases"]
        assert rec == {
            "n_max": 5, "mode": "sampled", "sample_size": 3, "seed": 7,
            "total": 3, "pass": 2, "fail": 1, "cases": cases,
        }
        assert rec["cases"] is cases

    def test_sampled_deterministic(self):
        a = sweep(4, mode="sampled", sample_size=10, seed=123)
        b = sweep(4, mode="sampled", sample_size=10, seed=123)
        assert a.record() == b.record()
        assert a.total == 10
        picked = [(c["n"], c["k"], c["i"], parse_perm(c["u"])) for c in a.cases]
        assert picked == sorted(picked)
        assert set(picked) <= set(sweep_cases(4))

    def test_sampled_default_seed(self):
        a = sweep(3, mode="sampled", sample_size=5)
        b = sweep(3, mode="sampled", sample_size=5, seed=0)
        assert a.record() == b.record()

    def test_sample_larger_than_population(self):
        report = sweep(2, mode="sampled", sample_size=99, seed=1)
        assert report.total == 4

    @pytest.mark.parametrize("jobs", [None, 2])
    def test_cases_are_the_case_records(self, jobs):
        expect = [verify_case(*case) for case in sweep_cases(4)]
        assert sweep(4, jobs=jobs).cases == expect

    def test_worker_count_invisible(self):
        serial = sweep(3, jobs=1).record()
        parallel = sweep(3, jobs=2).record()
        assert serial == parallel

    def test_worker_count_invisible_in_a_sample(self):
        # a sample runs grouped by Grassmannian, not in the order it is filed
        serial = sweep(12, mode="sampled", sample_size=40, seed=2)
        pooled = sweep(12, mode="sampled", sample_size=40, seed=2, jobs=2)
        assert pooled.record() == serial.record()

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

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="the forced fault reaches the workers only through fork",
    )
    def test_worker_fault_reaches_the_parent(self):
        # Every reduction claims one extra q, so the first case a worker
        # verifies raises DegreeMismatchError there. The sweep must re-raise
        # it in the parent rather than wait forever for the lost chunk, so it
        # runs in its own process group that a timeout can kill.
        script = (
            "import multiprocessing\n"
            "from qseidel import neighborhoods, quantum\n"
            "multiprocessing.set_start_method('fork')\n"
            "reduce = quantum.rim_hook_reduce\n"
            "def one_extra_q(nu, k, n):\n"
            "    red = reduce(nu, k, n)\n"
            "    return red and (red[0], red[1] + 1, red[2])\n"
            "quantum.rim_hook_reduce = one_extra_q\n"
            "neighborhoods._usable_cpus = lambda: 2\n"
            "try:\n"
            "    neighborhoods.sweep(4, jobs=2)\n"
            "except quantum.DegreeMismatchError as err:\n"
            "    print(type(err).__name__, 2 <= err.n <= 4)\n"
        )
        src = str(Path(neighborhoods.__file__).resolve().parent.parent)
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.Popen(
            [sys.executable, "-c", script],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env={**os.environ, "PYTHONPATH": path},
            start_new_session=True,
        )
        try:
            out, err = proc.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            pytest.fail("sweep(4, jobs=2) hung on a worker's DegreeMismatchError")
        assert (proc.returncode, out) == (0, "DegreeMismatchError True\n"), err


def cold_record(case):
    """The case's record, verified with neither memo holding an earlier case."""
    quantum._quantum_terms.cache_clear()
    neighborhoods._frame_checks.cache_clear()
    return verify_case(*case)


def frame_key(n, k, i, u):
    """What the frame-level work of a case depends on: not whether it was dualized."""
    frame = resolve_frame(perm_to_partition(u, k, n), i, k, n)
    return (n, frame.k, frame.lam, frame.beta, frame.d)


class TestTwinOrder:
    @pytest.mark.parametrize("n_max", range(2, 9))
    def test_is_a_permutation_of_the_indices(self, n_max):
        cases = sweep_cases(n_max)
        assert sorted(j for j, _ in cases.twin_order()) == list(range(len(cases)))

    def test_each_dual_case_follows_its_twin(self):
        cases = sweep_cases(8)
        prev = None
        for j, case in cases.twin_order():
            assert case == cases[j]
            n, k, i, _ = case
            if 0 < i < k:
                assert prev[:3] == (n, n - k, n - i)
                assert frame_key(*prev) == frame_key(*case)
            prev = case

    def test_builds_each_block_once(self, quotient_calls):
        # twins are built from their primal case, not looked up in their block
        assert len(list(sweep_cases(7).twin_order())) == 1482
        assert len(quotient_calls) == 21

    def test_each_frame_is_computed_once(self):
        frames = {frame_key(*case) for case in sweep_cases(6)}
        assert len(frames) < len(sweep_cases(6))
        sweep(6)
        assert neighborhoods._frame_checks.cache_info().misses == len(frames)
        assert quantum._quantum_terms.cache_info().misses == len(frames)

    @pytest.mark.parametrize("jobs", [None, 2])
    def test_sweep_records_are_the_cold_case_records(self, jobs):
        expect = [cold_record(case) for case in sweep_cases(7)]
        assert sweep(7, jobs=jobs).cases == expect

    @pytest.mark.parametrize("swap", [False, True])
    def test_frames_that_differ_only_in_beta_keep_their_records(self, swap):
        # both are Gr(2, 5) frames with lam = (3, 1) and d = 1; beta is 2 and 4
        first, second = (5, 2, 2, (2, 5, 1, 3, 4)), (5, 2, 4, (2, 5, 1, 3, 4))
        if swap:
            first, second = second, first
        assert {frame_key(*first), frame_key(*second)} == {
            (5, 2, (3, 1), 2, 1),
            (5, 2, (3, 1), 4, 1),
        }
        expect = cold_record(second)
        cold_record(first)  # leaves the first frame in the memos
        assert verify_case(*second) == expect


# the memos that keep their results in the per-pair store
SCOPED = {
    "Bminus": grassmann._fp_schubert_bminus,
    "B": neighborhoods._projected_b,
    "masks": grassmann.k_subset_masks,
}


def store_pairs():
    """The pair the per-pair store holds and the pairs of its entries."""
    store = grassmann.GrassmannianMemo.store
    return grassmann.GrassmannianMemo.held, {pair_key(*args[-2:]) for _, args in store}


@pytest.fixture(scope="module")
def rank_16_sample():
    """The 100-case seed-3 rank-16 sample swept on an empty store: its
    report, the k-subset tables it built, counted by (k, n), each case's
    pair with the store's pairs after the case, and the store's pairs after
    the sweep returned."""
    built = collections.Counter()
    masks = grassmann.k_subset_masks
    build = masks.fn
    verify = neighborhoods.verify_case
    after_case = []

    def counted(k, n):
        built[k, n] += 1
        return build(k, n)

    def verify_and_look(n, k, i, u):
        rec = verify(n, k, i, u)
        after_case.append((pair_key(k, n), store_pairs()))
        return rec

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(masks, "fn", counted)
        mp.setattr(neighborhoods, "verify_case", verify_and_look)
        grassmann.GrassmannianMemo.cache_clear()
        report = sweep(16, mode="sampled", sample_size=100, seed=3)
    return report, built, after_case, store_pairs()


class TestCacheScopes:
    def test_rank_16_sample_holds_one_pair_and_returns_empty(self, rank_16_sample):
        report, _, after_case, after_sweep = rank_16_sample
        assert report.all_passed
        assert len(after_case) == 100
        for pair, (held, entries) in after_case:
            assert held == pair
            assert entries == {pair}
        assert after_sweep == (None, set())

    def test_rank_16_sample_builds_each_table_once(self, rank_16_sample):
        # the cases that read Gr(k, 16) and Gr(16 - k, 16) run together
        _, built, _, _ = rank_16_sample
        assert len(built) == 31
        assert max(built.values()) == 1

    def test_a_block_builds_each_set_and_projection_once(self, monkeypatch):
        block = None
        built = collections.Counter()

        def counting(side, build):
            def counted(*args):
                built[block, side, args] += 1
                return build(*args)

            return counted

        for side, memo in SCOPED.items():
            monkeypatch.setattr(memo, "fn", counting(side, memo.fn))
        verify = neighborhoods.verify_case

        def in_block(n, k, i, u):
            nonlocal block
            # a dual case is verified in the block of its primal twin
            block = (n, n - k) if 0 < i < k else (n, k)
            return verify(n, k, i, u)

        monkeypatch.setattr(neighborhoods, "verify_case", in_block)
        assert sweep(7).all_passed
        assert {side for _, side, _ in built} == set(SCOPED)
        assert max(built.values()) == 1
        # block (n, n - k) follows (n, k) and reads the same two
        # Grassmannians, so nothing is rebuilt over the whole sweep either
        whole = collections.Counter()
        for (_, side, args), count in built.items():
            whole[side, args] += count
        assert max(whole.values()) == 1
