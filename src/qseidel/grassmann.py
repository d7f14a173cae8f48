"""Schubert indexing for the Grassmannian of k-planes in n-space.

Schubert varieties are indexed by partitions inside the k x (n-k) box,
stored as tuples of weakly decreasing positive parts (no trailing
zeros).  Torus-fixed points are k-subsets of {1..n}; internally each
subset is a machine-word bitmask with bit s-1 standing for the element
s, which keeps the exhaustive sweeps cheap.  The rank cap MAX_RANK
guards the mask representation.  Translating a subset by a permutation
reads two cached byte tables of that permutation instead of walking the
subset.

Each partition lam with at most k rows has one k-subset,
``partition_subset(lam, k)``, read in the Gale order (sorted elements
compared entrywise): the fixed points of the lower (B-stable) variety of
dimension partition lam are the k-subsets below it, and those of the
opposite variety of codimension partition lam the k-subsets above it.
Each of these Gale intervals is walked by lexicographic rank and read
out of the table ``k_subset_masks``; the filter ``flag_fixed_points``
serves only the flag chains of ``neighborhoods``.

Cached values are immutable.  Every memo of the package has one of three
scopes:

* per pair: every ``GrassmannianMemo`` keeps its results in one shared
  store, which holds the pair {Gr(k, n), Gr(n-k, n)} of the last call
  and is emptied by a call on another pair and by ``neighborhoods.sweep``
  when it returns.  A case reads only the pair of its own k: its target
  lies in Gr(k, n), and so does its frame unless it is computed in the
  dual Grassmannian Gr(n-k, n).  Both sweep modes verify the cases of
  one pair together, in the order of ``pair_key``, so each result is
  built once per sweep.  These are ``k_subset_masks``, the opposite
  Schubert fixed-point sets and the rectangle projections of
  ``neighborhoods``, each with the near parts that the joins have asked
  it for.
* per frame: the one-entry ``neighborhoods._frame_checks`` and
  ``quantum._quantum_terms``.  An exhaustive sweep verifies each dual
  case right after the primal case of its frame and reads them back.
* per value: the bounded ``lru_cache`` of ``quantum.lr_coeff``,
  ``bit_values`` and ``_byte_tables``, small values read across blocks.
"""

from __future__ import annotations

import itertools
from functools import lru_cache, update_wrapper
from math import comb
from typing import Callable, Iterable, Iterator, Optional, Sequence

from .perms import Perm, check_perm, longest_element, min_coset_rep, parse_ints

Partition = tuple[int, ...]

# Masks use one bit per element of {1..n}; raise above this rank.
MAX_RANK = 16


def check_rank(k: int, n: int) -> None:
    if not 1 <= k <= n - 1:
        raise ValueError(f"need 1 <= k <= n-1, got k={k}, n={n}")
    if n > MAX_RANK:
        raise ValueError(f"rank cap exceeded: n={n} > {MAX_RANK}")


def check_mask(mask: int, n: int) -> None:
    """Raise ValueError unless ``mask`` is a subset of {1..n} with 1 <= n <= MAX_RANK."""
    if not (1 <= n <= MAX_RANK and 0 <= mask < 1 << n):
        raise ValueError(
            f"need 1 <= n <= {MAX_RANK} and 0 <= mask < 2^n, got mask={mask}, n={n}"
        )


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
    """Validate the rank and that ``lam`` fits in the k x (n-k) box; normalize it."""
    check_rank(k, n)
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


def partitions_bounded(
    total: int, ceiling: Sequence[int], floor: Partition = ()
) -> Iterator[Partition]:
    """Partitions of ``total`` whose diagrams contain that of the partition
    ``floor`` and lie inside that of ``ceiling``, in reverse lexicographic
    order.

    ``ceiling`` is weakly decreasing and may end in zeros; the box of at
    most ``rows`` parts, each <= ``width``, is ``(width,) * rows``.

    >>> list(partitions_bounded(4, (3, 3), floor=(2, 1)))
    [(3, 1), (2, 2)]
    """
    if total == 0:
        if not floor:
            yield ()
        return
    if not ceiling:
        return
    below = floor[1:]
    for first in range(min(total - size(below), ceiling[0]), part(floor, 1) - 1, -1):
        # the rows below hold at most the ceiling's parts, each cut to first
        under = tuple(min(c, first) for c in ceiling[1:])
        if first + size(under) < total:
            return  # a smaller first part holds less still
        for rest in partitions_bounded(total - first, under, below):
            yield (first,) + rest


def box_partitions(k: int, n: int) -> list[Partition]:
    """All partitions in the k x (n-k) box, sorted lexicographically."""
    check_rank(k, n)
    return sorted(map(subset_partition, itertools.combinations(range(1, n + 1), k)))


def partition_subset(lam: Sequence[int], k: int) -> tuple[int, ...]:
    """Ascending k-subset {t + lam[k+1-t] : t = 1..k} of a partition with at most k rows.

    >>> partition_subset((2, 1), 2)
    (2, 4)
    """
    if len(lam) > k:
        raise ValueError(f"shape {tuple(lam)} has more than {k} rows")
    return tuple(t + part(lam, k + 1 - t) for t in range(1, k + 1))


def subset_partition(subset: Sequence[int]) -> Partition:
    """Partition of an ascending subset, the inverse of ``partition_subset``.

    >>> subset_partition((2, 4))
    (2, 1)
    """
    return normalize_partition(subset[t - 1] - t for t in range(len(subset), 0, -1))


def perm_to_partition(w: Sequence[int], k: int, n: int) -> Partition:
    """Partition indexing the Schubert cell of the coset of ``w`` modulo
    the maximal parabolic subgroup at k.

    It is the partition of the k-subset w(1) < ... < w(k) for the coset's
    minimal representative w, which ascends on positions 1..k and k+1..n.

    >>> perm_to_partition((2, 4, 1, 3), 2, 4)
    (2, 1)
    >>> perm_to_partition((4, 2, 3, 1), 2, 4)
    (2, 1)
    """
    check_rank(k, n)
    w = min_coset_rep(check_perm(w, n), frozenset(range(1, n)) - {k})
    return subset_partition(w[:k])


def partition_to_perm(lam: Iterable[int], k: int, n: int) -> Perm:
    """Minimal representative whose Schubert cell is indexed by ``lam``.

    >>> partition_to_perm((2, 1), 2, 4)
    (2, 4, 1, 3)
    """
    first = partition_subset(check_box(lam, k, n), k)
    return first + tuple(sorted(set(range(1, n + 1)) - set(first)))


# ---------------------------------------------------------------------------
# fixed points as bitmasks


def mask_of(elems: Iterable[int]) -> int:
    m = 0
    for s in elems:
        m |= 1 << (s - 1)
    return m


def subset_of(mask: int) -> tuple[int, ...]:
    return tuple(b.bit_length() for b in bit_values(mask))


def interval_mask(lo: int, hi: int) -> int:
    """Mask of {lo..hi}; empty when lo > hi."""
    if lo > hi:
        return 0
    return ((1 << hi) - 1) ^ ((1 << (lo - 1)) - 1)


# An exhaustive n <= 9 sweep holds 511 masks here and reads them 109,380
# times; ten sampled rank-16 cases fill all 4,096 slots, with 4,355 hits
# against 12,024 misses.
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


def pair_key(k: int, n: int) -> tuple[int, int]:
    """Key of the pair {Gr(k, n), Gr(n-k, n)}: n, then min(k, n-k)
    descending, the order in which sweeps visit the pairs.

    >>> pair_key(3, 7) == pair_key(4, 7) < pair_key(2, 7)
    True
    """
    return n, -min(k, n - k)


class GrassmannianMemo:
    """Memo of a function whose last two arguments are (k, n).

    Every such memo keeps its results in the one shared ``store``, which
    holds the results for the pair ``held``, the ``pair_key`` of the last
    call.  A call on another pair empties the store first, and so do
    ``cache_clear`` and ``neighborhoods.sweep`` when it returns.
    """

    held: Optional[tuple[int, int]] = None
    store: dict[tuple, object] = {}

    def __init__(self, fn: Callable) -> None:
        update_wrapper(self, fn)
        self.fn = fn

    def __call__(self, *args):
        pair = pair_key(*args[-2:])
        if pair != GrassmannianMemo.held:
            GrassmannianMemo.cache_clear()
            GrassmannianMemo.held = pair
        if (self, args) not in self.store:
            self.store[self, args] = self.fn(*args)
        return self.store[self, args]

    @staticmethod
    def cache_clear() -> None:
        GrassmannianMemo.held = None
        GrassmannianMemo.store.clear()


@GrassmannianMemo
def k_subset_masks(k: int, n: int) -> tuple[int, ...]:
    """Masks of all k-subsets of {1..n}, ordered like sorted tuples."""
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n, got k={k}, n={n}")
    return tuple(map(sum, itertools.combinations(bit_values((1 << n) - 1), k)))


def _lex_rank(subset: Sequence[int], n: int) -> int:
    """Position of an ascending subset of {1..n} among the subsets of its
    size in lexicographic order, its index in ``k_subset_masks``.

    The subsets after it are counted from the end: those that first
    exceed it at its t-th element s (t from 0) number comb(n - s, m - t).
    """
    m = len(subset)
    return comb(n, m) - 1 - sum(comb(n - s, m - t) for t, s in enumerate(subset))


def _gale_interval(lo: Sequence[int], hi: Sequence[int], n: int) -> frozenset[int]:
    """The k-subsets t of {1..n} with lo[j] <= t[j] <= hi[j] for every j,
    for ascending k-subsets lo <= hi entrywise, read out of
    ``k_subset_masks(k, n)`` by rank, which the pair's store keeps.

    The walk places one element at a time and carries each prefix's part
    of ``_lex_rank``, which is a sum over the elements.  Every prefix
    extends, since lo and hi ascend.  The last element runs over an
    interval with consecutive ranks, so each prefix reads one slice of
    the table.
    """
    k = len(lo)
    table = k_subset_masks(k, n)
    # ends[p]: the rank so far of each prefix whose last element is p;
    # the slots a level leaves unused share one empty tuple, never mutated
    ends: list[Sequence[int]] = [[len(table) - 1]] + [()] * n
    for j in range(k - 1):
        step: list[Sequence[int]] = [()] * (n + 1)
        # the prefixes that the least element t = lo[j] extends
        below = list(itertools.chain.from_iterable(ends[: lo[j]]))
        for t in range(lo[j], hi[j] + 1):
            share = comb(n - t, k - j)
            step[t] = [r - share for r in below]
            below += ends[t]
        ends = step
    # the last element t, from max(lo[-1], p + 1) to hi[-1], takes n - t off
    stop = hi[-1] + 1 - n
    return frozenset(
        itertools.chain.from_iterable(
            table[r + max(lo[-1], p + 1) - n : r + stop]
            for p, ranks in enumerate(ends)
            for r in ranks
        )
    )


def flag_fixed_points(flags: Sequence[int], k: int, n: int) -> frozenset[int]:
    """k-subsets S with |S n flags[i-1]| >= i for i = 1..k.

    The flag chains of ``neighborhoods`` read this filter; Schubert
    varieties walk their Gale interval instead.
    """
    masks = k_subset_masks(k, n)
    for i, f in enumerate(flags, start=1):
        # a k-subset meets a flag of size >= n-k+i in at least i elements
        if f.bit_count() < n - k + i:
            masks = [m for m in masks if (m & f).bit_count() >= i]
    return frozenset(masks)


def fp_schubert_b(lam: Iterable[int], k: int, n: int) -> frozenset[int]:
    """Fixed points of the B-stable Schubert variety of dimension partition lam:
    the k-subsets entrywise below ``partition_subset(lam, k)``.

    >>> sorted(subset_of(m) for m in fp_schubert_b((1,), 2, 4))
    [(1, 2), (1, 3)]
    """
    lam = check_box(lam, k, n)
    return _gale_interval(range(1, k + 1), partition_subset(lam, k), n)


def fp_schubert_bminus(lam: Iterable[int], k: int, n: int) -> frozenset[int]:
    """Fixed points of the opposite Schubert variety of codimension partition lam:
    the k-subsets entrywise above ``partition_subset(lam, k)``.

    >>> sorted(subset_of(m) for m in fp_schubert_bminus((1,), 1, 2))
    [(2,)]
    """
    lam = check_box(lam, k, n)
    return _fp_schubert_bminus(lam, k, n)


@GrassmannianMemo
def _fp_schubert_bminus(lam: Partition, k: int, n: int) -> frozenset[int]:
    return _gale_interval(partition_subset(lam, k), range(n - k + 1, n + 1), n)


def translate_mask(g: Sequence[int], mask: int) -> int:
    """Image of a subset under the permutation g, elementwise."""
    return sum(1 << (g[b.bit_length() - 1] - 1) for b in bit_values(mask))


# Images of every subset of {1..8} and of {9..n} under one permutation g.
# An exhaustive sweep to n = 9 uses 44 translations and 8 reversals.
@lru_cache(maxsize=64)
def _byte_tables(g: Perm) -> tuple[tuple[int, ...], tuple[int, ...]]:
    n = len(g)
    if n > MAX_RANK:
        raise ValueError(f"rank cap exceeded: n={n} > {MAX_RANK}")
    low: list[int] = [0]
    high: list[int] = [0]
    for s, image in enumerate(g, start=1):
        # the subsets that hold s are those without it, plus its image
        half = low if s <= 8 else high
        bit = 1 << (image - 1)
        half += [m | bit for m in half]
    return tuple(low), tuple(high)


def translate_fp(g: Sequence[int], pts: Iterable[int]) -> frozenset[int]:
    """Image of a fixed-point set under the permutation g.

    >>> sorted(subset_of(m) for m in translate_fp((2, 1), [mask_of({1})]))
    [(2,)]
    """
    g = check_perm(g)
    low, high = _byte_tables(g)
    masks = tuple(pts)
    if masks:  # the extremes are the masks that could fall outside {1..n}
        check_mask(min(masks), len(g))
        check_mask(max(masks), len(g))
    return frozenset(low[m & 0xFF] | high[m >> 8] for m in masks)


def dual_mask(mask: int, n: int) -> int:
    """Complement the subset in {1..n} and relabel s -> n+1-s.

    This is the fixed-point bijection underlying ``dual_case`` and is an
    involution.
    """
    check_mask(mask, n)
    low, high = _byte_tables(longest_element(n))
    return ((1 << n) - 1) ^ low[mask & 0xFF] ^ high[mask >> 8]


def dual_fp(pts: Iterable[int], n: int) -> frozenset[int]:
    """``dual_mask`` of every subset in a fixed-point set, checked and
    looked up once for the whole set.

    >>> sorted(subset_of(m) for m in dual_fp([mask_of({1}), mask_of({2})], 3))
    [(1, 2), (1, 3)]
    """
    masks = tuple(pts)
    # the extremes are the masks that could fall outside {1..n}; an empty
    # set still has its rank checked
    check_mask(min(masks, default=0), n)
    check_mask(max(masks, default=0), n)
    return _dual_fp(masks, n)


def _dual_fp(masks: Iterable[int], n: int) -> frozenset[int]:
    """``dual_fp`` without its checks, for masks in {1..n} that the caller
    has already checked or built."""
    low, high = _byte_tables(longest_element(n))
    full = (1 << n) - 1
    return frozenset(full ^ low[m & 0xFF] ^ high[m >> 8] for m in masks)


def dual_case(lam: Iterable[int], k: int, n: int) -> tuple[Partition, int]:
    """Translate a Schubert datum across the duality with the (n-k)-plane
    Grassmannian: the partition conjugates and k becomes n-k.

    >>> dual_case((5, 4, 3, 1), 4, 9)
    ((4, 3, 3, 2, 1), 5)
    """
    lam = check_box(lam, k, n)
    return conjugate(lam), n - k


def sorted_subsets(masks: Iterable[int]) -> tuple[tuple[int, ...], ...]:
    """The subsets as increasing tuples, sorted lexicographically."""
    return tuple(sorted(subset_of(m) for m in masks))


def fmt_subsets(masks: Iterable[int]) -> list[str]:
    """Render subsets as increasing comma-separated elements, in sorted order.

    >>> fmt_subsets([mask_of({1, 10}), mask_of({1, 2})])
    ['1,2', '1,10']
    """
    return [",".join(map(str, s)) for s in sorted_subsets(masks)]


def parse_partition(text: str) -> Partition:
    """Parse "5,4,3,1" into a partition; the empty string is the empty partition."""
    if text.strip() == "":
        return ()
    return normalize_partition(parse_ints(text, "partition"))


def fmt_partition(lam: Sequence[int]) -> str:
    return ",".join(str(p) for p in lam)
