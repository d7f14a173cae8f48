"""Schubert indexing for the Grassmannian of k-planes in n-space.

Schubert varieties are indexed by partitions inside the k x (n-k) box,
stored as tuples of weakly decreasing positive parts (no trailing
zeros).  Torus-fixed points are k-subsets of {1..n}; internally each
subset is a machine-word bitmask with bit s-1 standing for the element
s, which keeps the exhaustive sweeps cheap.  The rank cap MAX_RANK
guards the mask representation.  Sweeps ask for the same Schubert
fixed-point sets many times over, so those sets and the k-subset tables
behind them are cached once validated; cached values are immutable.

Two indexing conventions coexist and both are needed downstream:

* lower (B-stable) varieties are indexed by their dimension partition
  and their fixed points satisfy |S n {1..i+lam[k-i+1]}| >= i;
* opposite (B^- stable) varieties are indexed by their codimension
  partition and their fixed points satisfy |S n {n-j+1..n}| >= i with
  j = n-k+i-lam[i].
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import Iterable, Iterator, Sequence

from .perms import Perm, check_perm, is_min_coset_rep

Partition = tuple[int, ...]

# Masks use one bit per element of {1..n}; raise above this rank.
MAX_RANK = 16

# Cached Schubert fixed-point sets.  An exhaustive sweep needs at most two
# sets per box partition of the (n, k) block it is in, i.e. 504 at n = 10.
FP_CACHE_SIZE = 1024


def check_rank(k: int, n: int) -> None:
    if not 1 <= k <= n - 1:
        raise ValueError(f"need 1 <= k <= n-1, got k={k}, n={n}")
    if n > MAX_RANK:
        raise ValueError(f"rank cap exceeded: n={n} > {MAX_RANK}")


def normalize_partition(parts: Iterable[int]) -> Partition:
    """Drop trailing zeros and validate weak decrease.

    >>> normalize_partition([3, 1, 0, 0])
    (3, 1)
    """
    ps = list(parts)
    while ps and ps[-1] == 0:
        ps.pop()
    if ps and min(ps) <= 0:
        raise ValueError(f"parts must be positive: {ps}")
    if ps != sorted(ps, reverse=True):
        raise ValueError(f"parts must weakly decrease: {ps}")
    return tuple(ps)


def check_box(lam: Iterable[int], k: int, n: int) -> Partition:
    """Validate that ``lam`` fits in the k x (n-k) box and normalize it."""
    p = normalize_partition(lam)
    if len(p) > k or (p and p[0] > n - k):
        raise ValueError(f"partition {p} does not fit in a {k}x{n - k} box")
    return p


def part(lam: Sequence[int], i: int) -> int:
    """The i-th part (1-indexed), zero beyond the last row."""
    return lam[i - 1] if 1 <= i <= len(lam) else 0


def size(lam: Sequence[int]) -> int:
    return sum(lam)


def conjugate(lam: Sequence[int]) -> Partition:
    """Transpose of the Young diagram.

    >>> conjugate((5, 4, 3, 1))
    (4, 3, 3, 2, 1)
    """
    if not lam:
        return ()
    return tuple(sum(1 for p in lam if p >= c) for c in range(1, lam[0] + 1))


def contains(outer: Sequence[int], inner: Sequence[int]) -> bool:
    """Diagram containment inner subseteq outer."""
    return all(part(outer, i) >= part(inner, i) for i in range(1, len(inner) + 1))


def box_complement(lam: Sequence[int], k: int, n: int) -> Partition:
    """Complement of ``lam`` in the k x (n-k) box, rotated 180 degrees.

    Sends a dimension partition to the codimension partition of the same
    Schubert class and conversely.

    >>> box_complement((1,), 2, 4)
    (2, 1)
    """
    lam = check_box(lam, k, n)
    return normalize_partition(n - k - part(lam, i) for i in range(k, 0, -1))


def box_partitions(k: int, n: int) -> list[Partition]:
    """All partitions in the k x (n-k) box, sorted lexicographically."""
    check_rank(k, n)

    def gen(rows: int, width: int) -> Iterator[tuple[int, ...]]:
        yield ()
        if rows == 0:
            return
        for first in range(1, width + 1):
            for rest in gen(rows - 1, first):
                yield (first,) + rest

    return sorted(gen(k, n - k))


def perm_to_partition(w: Sequence[int], k: int, n: int) -> Partition:
    """Partition indexing the Schubert cell of a minimal representative.

    ``w`` must ascend on positions 1..k and on k+1..n.  The parts are
    w(k)-k, w(k-1)-(k-1), ..., w(1)-1.

    >>> perm_to_partition((2, 4, 1, 3), 2, 4)
    (2, 1)
    """
    check_rank(k, n)
    w = check_perm(w)
    if len(w) != n:
        raise ValueError(f"rank mismatch: {len(w)} vs n={n}")
    grassmannian_roots = frozenset(range(1, n)) - {k}
    if not is_min_coset_rep(w, grassmannian_roots):
        raise ValueError(f"{w} is not minimal for the maximal parabolic at {k}")
    return normalize_partition(w[i - 1] - i for i in range(k, 0, -1))


def partition_to_perm(lam: Iterable[int], k: int, n: int) -> Perm:
    """Minimal representative whose Schubert cell is indexed by ``lam``.

    >>> partition_to_perm((2, 1), 2, 4)
    (2, 4, 1, 3)
    """
    lam = check_box(lam, k, n)
    first = sorted(part(lam, i) + (k - i + 1) for i in range(1, k + 1))
    rest = sorted(set(range(1, n + 1)) - set(first))
    return tuple(first + rest)


# ---------------------------------------------------------------------------
# fixed points as bitmasks


def mask_of(elems: Iterable[int]) -> int:
    m = 0
    for s in elems:
        m |= 1 << (s - 1)
    return m


def subset_of(mask: int) -> tuple[int, ...]:
    out = []
    s = 1
    while mask:
        if mask & 1:
            out.append(s)
        mask >>= 1
        s += 1
    return tuple(out)


def interval_mask(lo: int, hi: int) -> int:
    """Mask of {lo..hi}; empty when lo > hi."""
    if lo > hi:
        return 0
    return ((1 << hi) - 1) ^ ((1 << (lo - 1)) - 1)


# Every mask over {1..12} fits; larger ranks evict the least recently used.
@lru_cache(maxsize=1 << 12)
def bit_values(mask: int) -> tuple[int, ...]:
    """Single-bit masks of the elements of a subset, lowest first.

    >>> bit_values(mask_of({1, 3}))
    (1, 4)
    """
    out = []
    while mask:
        low = mask & -mask
        out.append(low)
        mask ^= low
    return tuple(out)


@lru_cache(maxsize=None)
def k_subset_masks(n: int, k: int) -> tuple[int, ...]:
    """Masks of all k-subsets of {1..n}, ordered like sorted tuples."""
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n, got k={k}, n={n}")
    return tuple(mask_of(c) for c in itertools.combinations(range(1, n + 1), k))


def flag_fixed_points(flags: Sequence[int], k: int, n: int) -> frozenset[int]:
    """k-subsets S with |S n flags[i-1]| >= i for i = 1..k."""
    masks = k_subset_masks(n, k)
    for i, f in enumerate(flags, start=1):
        # a k-subset meets a flag of size >= n-k+i in at least i elements
        if f.bit_count() < n - k + i:
            masks = [m for m in masks if (m & f).bit_count() >= i]
    return frozenset(masks)


def fp_schubert_b(lam: Iterable[int], k: int, n: int) -> frozenset[int]:
    """Fixed points of the B-stable Schubert variety of dimension partition lam.

    The subset S qualifies when |S n {1..i+lam[k-i+1]}| >= i for i = 1..k.

    >>> sorted(subset_of(m) for m in fp_schubert_b((1,), 2, 4))
    [(1, 2), (1, 3)]
    """
    lam = check_box(lam, k, n)
    check_rank(k, n)
    return _fp_schubert_b(lam, k, n)


@lru_cache(maxsize=FP_CACHE_SIZE)
def _fp_schubert_b(lam: Partition, k: int, n: int) -> frozenset[int]:
    prefixes = [interval_mask(1, i + part(lam, k - i + 1)) for i in range(1, k + 1)]
    return flag_fixed_points(prefixes, k, n)


def fp_schubert_bminus(lam: Iterable[int], k: int, n: int) -> frozenset[int]:
    """Fixed points of the opposite Schubert variety of codimension partition lam.

    The subset S qualifies when |S n {n-j+1..n}| >= i for i = 1..k, where
    j = n-k+i-lam[i].

    >>> sorted(subset_of(m) for m in fp_schubert_bminus((1,), 1, 2))
    [(2,)]
    """
    lam = check_box(lam, k, n)
    check_rank(k, n)
    return _fp_schubert_bminus(lam, k, n)


@lru_cache(maxsize=FP_CACHE_SIZE)
def _fp_schubert_bminus(lam: Partition, k: int, n: int) -> frozenset[int]:
    suffixes = [interval_mask(n - (n - k + i - part(lam, i)) + 1, n) for i in range(1, k + 1)]
    return flag_fixed_points(suffixes, k, n)


def translate_mask(g: Sequence[int], mask: int) -> int:
    """Image of a subset under the permutation g, elementwise."""
    out = 0
    for s in subset_of(mask):
        out |= 1 << (g[s - 1] - 1)
    return out


def translate_fp(g: Sequence[int], pts: Iterable[int]) -> frozenset[int]:
    """Image of a fixed-point set under the permutation g.

    >>> sorted(subset_of(m) for m in translate_fp((2, 1), [mask_of({1})]))
    [(2,)]
    """
    g = check_perm(g)
    return frozenset(translate_mask(g, m) for m in pts)


def dual_mask(mask: int, n: int) -> int:
    """Complement the subset in {1..n} and relabel s -> n+1-s.

    This is the fixed-point bijection underlying ``dual_case`` and is an
    involution.
    """
    out = 0
    for s in range(1, n + 1):
        if not (mask >> (s - 1)) & 1:
            out |= 1 << (n - s)
    return out


def dual_case(lam: Iterable[int], k: int, n: int) -> tuple[Partition, int]:
    """Translate a Schubert datum across the duality with the (n-k)-plane
    Grassmannian: the partition conjugates and k becomes n-k.

    >>> dual_case((5, 4, 3, 1), 4, 9)
    ((4, 3, 3, 2, 1), 5)
    """
    lam = check_box(lam, k, n)
    check_rank(k, n)
    return conjugate(lam), n - k


def fmt_subset(mask: int) -> str:
    return ",".join(str(s) for s in subset_of(mask))


def parse_partition(text: str) -> Partition:
    """Parse "5,4,3,1" into a partition; the empty string is the empty partition."""
    if text.strip() == "":
        return ()
    try:
        parts = [int(p) for p in text.split(",")]
    except ValueError:
        raise ValueError(f"malformed partition: {text!r}") from None
    return normalize_partition(parts)


def fmt_partition(lam: Sequence[int]) -> str:
    return ",".join(str(p) for p in lam)
