import itertools
import math
import random
import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers_oracles import oracle_downset, oracle_join, oracle_rank_leq
from qseidel.perms import (
    bruhat_leq,
    compose,
    fmt_perm,
    identity,
    inverse,
    join,
    length,
    longest_element,
    min_coset_rep,
    parabolic_quotient,
    parse_perm,
    parse_roots,
    position_blocks,
    seidel_element,
    seidel_generator,
)


def perms_of(n):
    return [tuple(p) for p in itertools.permutations(range(1, n + 1))]


def same_n_pair():
    return st.integers(2, 6).flatmap(
        lambda n: st.tuples(
            st.permutations(list(range(1, n + 1))),
            st.permutations(list(range(1, n + 1))),
        )
    )


class TestBasics:
    def test_compose_example(self):
        assert compose((2, 1, 3), (1, 3, 2)) == (2, 3, 1)

    def test_compose_rank_mismatch(self):
        with pytest.raises(ValueError):
            compose((1, 2), (1, 2, 3))

    @pytest.mark.parametrize(
        "fn,args,message",
        [
            (compose, ((1, 1, 3), (1, 2, 3)), "not a permutation"),
            (compose, ((1, 2, 3), (3, 3, 1)), "not a permutation"),
            (compose, ((1, 2, 3), (2, 1)), "rank mismatch"),
            (bruhat_leq, ((1, 1), (2, 2)), "not a permutation"),
            (bruhat_leq, ((1, 2), (0, 2)), "not a permutation"),
            (bruhat_leq, ((2, 1), (1, 2, 3)), "rank mismatch"),
            (join, ((1, 1), (1, 2), frozenset()), "not a permutation"),
            (join, ((1, 2), (2, 3), frozenset()), "not a permutation"),
            (join, ((1, 2, 3), (1, 2), frozenset()), "rank mismatch"),
        ],
        ids=[f"{fn}-{arg}" for fn in ("compose", "bruhat_leq", "join") for arg in ("a", "b", "rank")],
    )
    def test_two_permutation_functions_check_both(self, fn, args, message):
        with pytest.raises(ValueError, match=message):
            fn(*args)

    @pytest.mark.parametrize(
        "fn,args,message",
        [
            (inverse, ((1, 1, 3),), "not a permutation"),
            (inverse, ((2, 5),), "not a permutation"),
            (length, ((1, 1),), "not a permutation"),
            (seidel_generator, (0,), "need n >= 1, got n=0"),
            (seidel_generator, (-3,), "need n >= 1, got n=-3"),
        ],
        ids=["inverse-repeat", "inverse-range", "length-repeat", "generator-0", "generator-neg"],
    )
    def test_one_argument_functions_check_it(self, fn, args, message):
        with pytest.raises(ValueError, match=message):
            fn(*args)

    def test_inverse_example(self):
        assert inverse((4, 1, 2, 3)) == (2, 3, 4, 1)

    def test_identity_and_longest(self):
        assert identity(3) == (1, 2, 3)
        assert longest_element(4) == (4, 3, 2, 1)
        assert length(longest_element(5)) == 10

    def test_length_examples(self):
        assert length(identity(4)) == 0
        assert length((4, 1, 2, 3)) == 3

    @given(same_n_pair())
    def test_compose_inverse_props(self, pair):
        a, b = tuple(pair[0]), tuple(pair[1])
        n = len(a)
        assert compose(a, inverse(a)) == identity(n)
        assert compose(inverse(a), a) == identity(n)
        assert inverse(compose(a, b)) == compose(inverse(b), inverse(a))
        assert length(a) == length(inverse(a))

    @given(same_n_pair())
    def test_length_subadditive_parity(self, pair):
        a, b = tuple(pair[0]), tuple(pair[1])
        lab = length(compose(a, b))
        assert lab <= length(a) + length(b)
        assert (lab - length(a) - length(b)) % 2 == 0


class TestBruhat:
    def test_examples(self):
        assert bruhat_leq((1, 3, 2), (3, 1, 2))
        assert not bruhat_leq((3, 1, 2), (1, 3, 2))
        assert bruhat_leq((2, 1, 3), (2, 1, 3))

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_matches_transposition_oracle(self, n):
        all_p = perms_of(n)
        for v in all_p:
            down = oracle_downset(v)
            for u in all_p:
                assert bruhat_leq(u, v) == (u in down)

    @pytest.mark.parametrize("n", range(6, 17))
    def test_matches_rank_matrix_oracle_at_high_rank(self, n):
        rng = random.Random(n)
        for _ in range(20):
            u = list(range(1, n + 1))
            rng.shuffle(u)
            # v lies above u: each swap of an ascending pair raises the length
            v = list(u)
            for _ in range(rng.randint(1, n)):
                a, b = sorted(rng.sample(range(n), 2))
                if v[a] < v[b]:
                    v[a], v[b] = v[b], v[a]
            w = list(range(1, n + 1))
            rng.shuffle(w)
            u, v, w = tuple(u), tuple(v), tuple(w)
            assert bruhat_leq(u, v) and oracle_rank_leq(u, v)
            for x, y in ((v, u), (u, w), (w, u), (v, w), (w, v)):
                assert bruhat_leq(x, y) == oracle_rank_leq(x, y)

    def test_partial_order_n5(self):
        # reflexivity, antisymmetry, transitivity via up-set bitmasks
        all_p = perms_of(5)
        index = {p: i for i, p in enumerate(all_p)}
        ups = []
        for u in all_p:
            m = 0
            for v in all_p:
                if bruhat_leq(u, v):
                    m |= 1 << index[v]
            ups.append(m)
        for i, u in enumerate(all_p):
            assert ups[i] >> i & 1  # reflexive
            for j in range(i + 1, len(all_p)):
                both = (ups[i] >> j & 1) and (ups[j] >> i & 1)
                assert not both  # antisymmetric
        for i in range(len(all_p)):
            m = ups[i]
            j = 0
            while m >> j:
                if m >> j & 1:
                    assert ups[j] | ups[i] == ups[i]  # transitive
                j += 1

    @given(same_n_pair())
    def test_bounded_by_extremes(self, pair):
        a = tuple(pair[0])
        n = len(a)
        assert bruhat_leq(identity(n), a)
        assert bruhat_leq(a, longest_element(n))


class TestCosets:
    def test_blocks(self):
        assert [list(b) for b in position_blocks(4, {1, 3})] == [[1, 2], [3, 4]]
        assert [list(b) for b in position_blocks(4, set())] == [[1], [2], [3], [4]]

    def test_min_coset_rep_example(self):
        assert min_coset_rep((3, 1, 2), {1}) == (1, 3, 2)
        with pytest.raises(ValueError, match=re.escape("not a permutation of 1..3: (3, 3, 2)")):
            min_coset_rep((3, 3, 2), {1})
        with pytest.raises(ValueError, match=re.escape("roots must lie in 1..2: [3]")):
            min_coset_rep((3, 1, 2), {3})

    def test_min_coset_rep_seidel_translate(self):
        # w0 pre-composed with the 5th cocharacter power at n=9, k=4
        w = compose(longest_element(9), seidel_element(9, 5))
        roots = frozenset(range(1, 9)) - {4}
        assert min_coset_rep(w, roots) == (2, 3, 4, 5, 1, 6, 7, 8, 9)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_rep_is_in_coset_and_minimal(self, n):
        for rs in powerset(range(1, n)):
            roots = frozenset(rs)
            blocks = position_blocks(n, roots)
            for u in perms_of(n):
                rep = min_coset_rep(u, roots)
                assert min_coset_rep(rep, roots) == rep
                # same coset: same value multiset on every block
                for blk in blocks:
                    assert sorted(u[t - 1] for t in blk) == [rep[t - 1] for t in blk]
                assert length(rep) <= length(u)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_quotient_cardinality_and_order(self, n):
        for rs in powerset(range(1, n)):
            roots = frozenset(rs)
            q = parabolic_quotient(n, roots)
            sizes = [len(b) for b in position_blocks(n, roots)]
            expect = math.factorial(n)
            for s in sizes:
                expect //= math.factorial(s)
            assert len(q) == expect
            assert q == sorted(q)
            assert len(set(q)) == len(q)
            assert all(min_coset_rep(x, roots) == x for x in q)

    def test_quotient_full_parabolic(self):
        assert parabolic_quotient(4, {1, 2, 3}) == [(1, 2, 3, 4)]

    @pytest.mark.parametrize("k", [1, 7, 8, 15])
    def test_grassmannian_quotient_at_the_rank_cap(self, k):
        # the first block is a k-subset in lexicographic order, the last its complement
        every = set(range(1, 17))
        expect = [c + tuple(sorted(every - set(c))) for c in itertools.combinations(range(1, 17), k)]
        assert parabolic_quotient(16, every - {16, k}) == expect

    @pytest.mark.parametrize("n", range(1, 8))
    def test_quotient_matches_filter_of_all_permutations(self, n):
        # root t glues positions t and t+1, so a representative ascends there;
        # itertools lists all n! permutations in lexicographic order
        every = perms_of(n)
        for rs in powerset(range(1, n)):
            expect = [w for w in every if all(w[t - 1] < w[t] for t in rs)]
            assert parabolic_quotient(n, frozenset(rs)) == expect


def powerset(it):
    items = list(it)
    return itertools.chain.from_iterable(
        itertools.combinations(items, r) for r in range(len(items) + 1)
    )


class TestJoin:
    def test_comparable_pairs(self):
        u = (1, 3, 2)
        assert join(u, u, frozenset()) == u
        assert join(identity(3), u, frozenset()) == u

    def test_no_join_exists(self):
        # two incomparable atoms with two incomparable minimal bounds
        assert join((2, 1, 3), (1, 3, 2), frozenset()) is None

    def test_frozen_example(self):
        # derived with oracle_join: projections of w = [3,4,2,1]
        w = (3, 4, 2, 1)
        uy = min_coset_rep(w, {2, 3})
        uz = min_coset_rep(w, {1, 2})
        assert uy == (3, 1, 2, 4)
        assert uz == (2, 3, 4, 1)
        assert join(uy, uz, {2}) == (3, 2, 4, 1)
        assert min_coset_rep(w, {2}) == (3, 2, 4, 1)

    def test_rejects_non_representative(self):
        message = re.escape("not a minimal coset representative: (2, 1, 3)")
        with pytest.raises(ValueError, match=message):
            join((2, 1, 3), (1, 2, 3), frozenset({1}))
        with pytest.raises(ValueError, match=message):
            join((1, 2, 3), (2, 1, 3), frozenset({1}))
        with pytest.raises(ValueError, match=re.escape("roots must lie in 1..2: [3]")):
            join((1, 2, 3), (1, 2, 3), frozenset({3}))

    def test_rank_9_projections_join_to_the_meet_projection(self):
        # incomparable projections of w onto two parabolics with a block of six
        w = (3, 2, 9, 1, 4, 5, 8, 7, 6)
        uy = min_coset_rep(w, {1, 2, 3, 4, 5, 7})
        uz = min_coset_rep(w, {1, 2, 3, 4, 5, 8})
        assert not bruhat_leq(uy, uz) and not bruhat_leq(uz, uy)
        assert join(uy, uz, {1, 2, 3, 4, 5}) == min_coset_rep(w, {1, 2, 3, 4, 5})

    @given(
        st.integers(7, 16).flatmap(
            lambda n: st.tuples(
                st.permutations(list(range(1, n + 1))),
                st.frozensets(st.integers(1, n - 1)),
                st.frozensets(st.integers(1, n - 1)),
            )
        )
    )
    def test_projections_join_to_the_meet_projection_at_high_rank(self, case):
        w, ry, rz = case
        uy, uz = min_coset_rep(w, ry), min_coset_rep(w, rz)
        x = join(uy, uz, ry & rz)
        assert x == min_coset_rep(w, ry & rz)
        assert bruhat_leq(uy, x) and bruhat_leq(uz, x)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_matches_naive_oracle(self, n):
        for rs in powerset(range(1, n)):
            roots = frozenset(rs)
            quotient = parabolic_quotient(n, roots)
            for u in quotient:
                for v in quotient:
                    assert join(u, v, roots) == oracle_join(u, v, roots, n)

    def test_matches_naive_oracle_sampled_at_rank_5(self):
        rng = random.Random(0)
        for _ in range(500):
            roots = frozenset(r for r in range(1, 5) if rng.random() < 0.5)
            quotient = parabolic_quotient(5, roots)
            u, v = rng.choice(quotient), rng.choice(quotient)
            assert join(u, v, roots) == oracle_join(u, v, roots, 5)


class TestSeidel:
    def test_generator(self):
        assert seidel_generator(4) == (4, 1, 2, 3)
        assert seidel_generator(2) == (2, 1)

    def test_element_examples(self):
        assert seidel_element(4, 2) == (3, 4, 1, 2)
        assert seidel_element(4, 0) == (1, 2, 3, 4)
        assert seidel_element(5, 1) == seidel_generator(5)

    def test_element_is_power_of_generator(self):
        for n in range(2, 8):
            g = seidel_generator(n)
            acc = identity(n)
            for i in range(n):
                assert seidel_element(n, i) == acc
                acc = compose(g, acc)
            assert acc == identity(n)

    def test_power_addition(self):
        for n in range(2, 7):
            for i in range(n):
                for j in range(n):
                    lhs = compose(seidel_element(n, i), seidel_element(n, j))
                    assert lhs == seidel_element(n, (i + j) % n)

    def test_cominuscule_representative_small(self):
        for n in range(2, 7):
            for i in range(1, n):
                roots = frozenset(range(1, n)) - {i}
                assert seidel_element(n, i) == min_coset_rep(longest_element(n), roots)

    def test_range_check(self):
        with pytest.raises(ValueError):
            seidel_element(4, 4)


class TestSerialization:
    def test_perm_io(self):
        assert parse_perm("4,1,2,3") == (4, 1, 2, 3)
        assert fmt_perm((4, 1, 2, 3)) == "4,1,2,3"
        with pytest.raises(ValueError):
            parse_perm("4,1,1,3")
        with pytest.raises(ValueError):
            parse_perm("4,x")

    def test_roots_io(self):
        assert parse_roots("1,3", 4) == frozenset({1, 3})
        assert parse_roots("", 4) == frozenset()
        with pytest.raises(ValueError):
            parse_roots("4", 4)
