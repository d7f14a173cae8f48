"""Symmetric group combinatorics in one-line notation.

A permutation of rank n is a tuple ``w`` of length n whose entries are
1..n in some order, with ``w[t-1]`` the image of t.  Composition is
function composition: ``compose(a, b)`` sends t to a(b(t)).  Lengths are
inversion counts.  The Bruhat order, minimal coset representatives,
parabolic quotients and joins all read a permutation block by block,
through the sorted values of its prefixes, so no reduced words are ever
built.
"""

from __future__ import annotations

import itertools
import operator
from typing import Iterable, Optional, Sequence

Perm = tuple[int, ...]


def is_perm(seq: Sequence[int]) -> bool:
    """Whether ``seq`` is a permutation of 1..len(seq).

    >>> is_perm((2, 1, 3))
    True
    >>> is_perm((2, 2, 3))
    False
    """
    return sorted(seq) == list(range(1, len(seq) + 1))


def check_perm(seq: Sequence[int], n: Optional[int] = None) -> Perm:
    """Return ``seq`` as a tuple, raising ValueError unless it is a permutation (of rank n)."""
    w = tuple(seq)
    if not is_perm(w):
        raise ValueError(f"not a permutation of 1..{len(w)}: {w}")
    if n is not None and len(w) != n:
        raise ValueError(f"rank mismatch: {len(w)} vs n={n}")
    return w


def check_index(i: int, n: int) -> None:
    """Raise ValueError unless the cocharacter index i lies in 0..n-1."""
    if not 0 <= i <= n - 1:
        raise ValueError(f"need 0 <= i <= n-1, got i={i}")


def check_roots(roots: Iterable[int], n: int) -> frozenset[int]:
    """Return ``roots`` as a frozenset, raising ValueError unless it lies in 1..n-1."""
    rs = frozenset(roots)
    if not rs <= set(range(1, n)):
        raise ValueError(f"roots must lie in 1..{n - 1}: {sorted(rs)}")
    return rs


def identity(n: int) -> Perm:
    """The identity permutation of rank n."""
    return tuple(range(1, n + 1))


def longest_element(n: int) -> Perm:
    """The order-reversing permutation [n, n-1, ..., 1].

    >>> longest_element(4)
    (4, 3, 2, 1)
    """
    return tuple(range(n, 0, -1))


def compose(a: Sequence[int], b: Sequence[int]) -> Perm:
    """The composite sending t to a(b(t)).

    >>> compose((2, 1, 3), (1, 3, 2))
    (2, 3, 1)
    """
    a = check_perm(a)
    return _compose(a, check_perm(b, len(a)))


def _compose(a: Sequence[int], b: Sequence[int]) -> Perm:
    """``compose`` without its checks, for permutations of one rank that
    the caller has already checked or built."""
    return tuple(a[t - 1] for t in b)


def inverse(a: Sequence[int]) -> Perm:
    """The inverse permutation.

    >>> inverse((4, 1, 2, 3))
    (2, 3, 4, 1)
    """
    a = check_perm(a)
    out = [0] * len(a)
    for t, v in enumerate(a, start=1):
        out[v - 1] = t
    return tuple(out)


def length(a: Sequence[int]) -> int:
    """Coxeter length, the number of inversions.

    >>> length((4, 1, 2, 3))
    3
    >>> length((1, 2, 3))
    0
    """
    a = check_perm(a)
    n = len(a)
    return sum(1 for i in range(n) for j in range(i + 1, n) if a[i] > a[j])


def bruhat_leq(u: Sequence[int], v: Sequence[int]) -> bool:
    """Whether u <= v in the Bruhat order.

    Ehresmann's tableau criterion (Björner and Brenti, "Combinatorics of
    Coxeter Groups", Thm 2.6.3): u <= v exactly when, for every c, the
    sorted values of u's first c positions lie entrywise below those of v.

    >>> bruhat_leq((1, 3, 2), (3, 1, 2))
    True
    >>> bruhat_leq((3, 1, 2), (1, 3, 2))
    False
    """
    u = check_perm(u)
    v = check_perm(v, len(u))
    return all(
        all(map(operator.le, sorted(u[:c]), sorted(v[:c]))) for c in range(1, len(u))
    )


def position_blocks(n: int, roots: Iterable[int]) -> list[range]:
    """Maximal runs of positions glued by the adjacent transpositions in ``roots``.

    ``roots`` is a subset of 1..n-1; root i glues positions i and i+1.

    >>> position_blocks(4, {1, 3})
    [range(1, 3), range(3, 5)]
    """
    rs = check_roots(roots, n)
    blocks = []
    start = 1
    for i in range(1, n):
        if i not in rs:
            blocks.append(range(start, i + 1))
            start = i + 1
    blocks.append(range(start, n + 1))
    return blocks


def min_coset_rep(u: Sequence[int], roots: Iterable[int]) -> Perm:
    """Minimal-length representative of the coset u W_P.

    W_P is the parabolic subgroup generated by the adjacent transpositions
    indexed by ``roots``.  The representative sorts the one-line values of
    u ascending within each glued block of positions.

    >>> min_coset_rep((3, 1, 2), {1})
    (1, 3, 2)
    """
    w = check_perm(u)
    return _coset_rep(w, position_blocks(len(w), roots))


def _coset_rep(w: Perm, blocks: Iterable[range]) -> Perm:
    """``min_coset_rep`` without its checks, for a permutation and the
    ``position_blocks`` of its rank that the caller has already checked
    or built."""
    return tuple(v for blk in blocks for v in sorted(w[blk.start - 1 : blk.stop - 1]))


def parabolic_quotient(n: int, roots: Iterable[int]) -> list[Perm]:
    """All minimal coset representatives for W_P, in lexicographic order.

    These are exactly the permutations ascending within each glued block,
    so they are built block by block: each prefix is extended by every
    ascending choice of the block's values from those it has not used,
    rather than by filtering all n! permutations.  The last block has one
    choice, the unused values, which are kept ascending and appended.

    >>> parabolic_quotient(3, {1})
    [(1, 2, 3), (1, 3, 2), (2, 3, 1)]
    """
    partial: list[tuple[Perm, Perm]] = [((), identity(n))]
    for blk in position_blocks(n, roots)[:-1]:
        partial = [
            (prefix + chosen, left)
            for prefix, unused in partial
            # the complements of lex-ordered subsets come in reverse lex order
            for chosen, left in zip(
                itertools.combinations(unused, len(blk)),
                reversed(list(itertools.combinations(unused, len(unused) - len(blk)))),
            )
        ]
    return [prefix + unused for prefix, unused in partial]


def join(u: Sequence[int], v: Sequence[int], roots: Iterable[int]) -> Optional[Perm]:
    """Least upper bound of u and v inside the quotient poset, or None.

    u and v must be minimal coset representatives for ``roots``; the poset
    is the Bruhat order restricted to those representatives, which by the
    tableau criterion (Björner and Brenti, Thm 2.6.3) compares the sorted
    prefixes of u and v only at the cuts, the last position c of each
    block.  There the entrywise maximum of sorted(u[:c]) and sorted(v[:c])
    is a c-element set S_c, the Gale join of the two prefixes.  When these
    sets nest, the join lists each block's new elements S_c - S_prev in
    ascending order; otherwise there is no join and the result is None (an
    explicit NoJoin outcome, not a failure).  This follows Lascoux and
    Schützenberger, "Treillis et bases des groupes de Coxeter" (Electron.
    J. Combin. 1996): the join in the lattice completion of the Bruhat
    order is the entrywise maximum of corner sums.
    """
    u = check_perm(u)
    v = check_perm(v, len(u))
    blocks = position_blocks(len(u), roots)
    for w in (u, v):
        if _coset_rep(w, blocks) != w:
            raise ValueError(f"not a minimal coset representative: {w}")
    out: list[int] = []
    prev: set[int] = set()
    # the last block's cut is n, where both prefixes hold all of 1..n
    for blk in blocks:
        c = blk.stop - 1
        cur = set(map(max, sorted(u[:c]), sorted(v[:c])))
        if not prev <= cur:
            return None
        out.extend(sorted(cur - prev))
        prev = cur
    return tuple(out)


def seidel_generator(n: int) -> Perm:
    """The n-cycle [n, 1, 2, ..., n-1] generating the cyclic group of
    minimal representatives for the cocharacter translations.

    >>> seidel_generator(4)
    (4, 1, 2, 3)
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got n={n}")
    return (n,) + tuple(range(1, n))


def seidel_element(n: int, i: int) -> Perm:
    """The i-th power of ``seidel_generator(n)``, for 0 <= i <= n-1.

    In one-line notation this is [n-i+1, ..., n, 1, ..., n-i].

    >>> seidel_element(4, 2)
    (3, 4, 1, 2)
    >>> seidel_element(4, 0)
    (1, 2, 3, 4)
    """
    check_index(i, n)
    return tuple(range(n - i + 1, n + 1)) + tuple(range(1, n - i + 1))


def parse_ints(text: str, what: str) -> list[int]:
    """Parse comma-separated integers such as "4,1,2,3"; ``what`` names them in errors."""
    try:
        return [int(p) for p in text.split(",")]
    except ValueError:
        raise ValueError(f"malformed {what}: {text!r}") from None


def parse_perm(text: str) -> Perm:
    """Parse a comma-separated one-line permutation such as "4,1,2,3"."""
    return check_perm(parse_ints(text, "permutation"))


def fmt_perm(w: Sequence[int]) -> str:
    """Render a permutation as comma-separated values."""
    return ",".join(str(v) for v in w)


def parse_roots(text: str, n: int) -> frozenset[int]:
    """Parse a comma-separated set of simple-root indices such as "1,3".

    The empty string denotes the empty set.
    """
    if text.strip() == "":
        return frozenset()
    return check_roots(parse_ints(text, "root set"), n)


def fmt_roots(roots: Iterable[int]) -> str:
    return ",".join(str(r) for r in sorted(roots))
