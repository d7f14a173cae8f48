"""Curve neighborhoods of Schubert pairs, computed on torus-fixed points.

The T-fixed points of the degree-d neighborhood of a pair of opposite
Schubert varieties are computed through the incidence correspondence: a
k-subset C belongs to the neighborhood when some pair A subseteq C
subseteq B with |A| = k-d, |B| = k+d joins C to both input varieties
through their own fixed points.

``verify_case`` checks that this set equals the fixed-point set of the
translated Schubert variety that the single-term quantum product
predicts, and cross-checks the explicit flag chain carving out the
neighborhood as one Schubert variety.  Only the two fixed-point sets are
compared: the neighborhood is T-stable but in general not B-stable (at
d = 0 it is a Richardson variety), so equal fixed points alone do not
identify the two varieties.

Subsets of a mask are enumerated as sums of its single-bit values.  A
projection is a ``Projection``: a variety's fixed points with the count
of its pairs, which are never listed.  The projection of the rectangle
side depends only on (beta, k, n, d).  It is memoized per Grassmannian
pair with its ``reach``, the union of its fixed points, and the near
parts (the masks L with A + L a fixed point) of each inner set A that a
join has asked for, computed on first request.  ``fp_richardson`` is the one
place that intersects two projections: it splits each opposite-side
fixed point M as A + U with A inside the reach, keeps the near parts L
at A that lie below min U, and files each such A under its difference
W = U + L, so pairs are never held as tuples.  ``gamma_fp`` turns the
larger side of each group, its inner sets or the d-subsets of W, into
one bitset indexed by mask value, 2^n bits, and unites its shifts by
the smaller side, so no member is listed twice.

A case with 0 < i < k is computed in the dual Grassmannian, in exactly
the frame of one primal case of the (n, n-k) block, its twin.  An
exhaustive sweep verifies each such case right after its twin, and each
block right after its mirror (``SweepCases.twin_order``).  The scopes of
the memos here are stated in ``grassmann``; ``sweep`` empties the store
of the per-pair memos when it returns.
"""

from __future__ import annotations

import itertools
import os
from bisect import bisect_right
from collections import abc
from functools import cached_property, lru_cache, reduce
from math import comb
from operator import or_
from typing import Callable, Iterable, Iterator, Literal, NamedTuple, Optional, Sequence

from .grassmann import (
    MAX_RANK,
    GrassmannianMemo,
    Partition,
    _dual_fp,
    _lex_rank,
    bit_values,
    check_box,
    flag_fixed_points,
    fmt_partition,
    fmt_subsets,
    fp_schubert_b,
    fp_schubert_bminus,
    interval_mask,
    mask_of,
    pair_key,
    partition_subset,
    size,
    translate_fp,
)
from .perms import Perm, fmt_perm, parabolic_quotient, seidel_element
from .quantum import _check_beta, _degree, seidel_product_check, term_records

Side = Literal["B", "Bminus"]

CHECK_NAMES = (
    "fp_equality",
    "g_chain_containment",
    "v_match",
    "length_identity",
    "product_single_term",
)


def _check_degree(d: int, k: int, n: int) -> None:
    if not 0 <= d <= min(k, n - k):
        raise ValueError(f"need 0 <= d <= min(k, n-k), got d={d}, k={k}, n={n}")


class Projection:
    """Fixed points (A, B) of the two-step image of a Schubert variety,
    kept as the variety's own fixed points ``fps`` and counted, not listed.

    A pair qualifies when some k-subset C with A subseteq C subseteq B is
    in ``fps``; |A| = k-d and |B| = k+d.  The k-subsets between A and B
    have a Gale-least member, A plus the d least elements L of B - A, and
    a Gale-greatest one, A plus the d greatest U.  The fixed points of a
    B-stable variety (side "B") form the Gale down-set of its subset
    ``partition_subset(lam, k)`` and those of an opposite variety (side
    "Bminus") the up-set of its own, so a pair qualifies
    exactly when its near extremal member (A + L for "B", A + U for
    "Bminus") is in ``fps``.  ``len`` counts the pairs by that rule.

    ``reach`` is the union of ``fps``; it holds the inner set A of every
    pair, and on side "B" it is {1..max} of the variety's k-subset.
    ``near_parts`` gives the near parts at an inner set A on side "B":
    the masks L of the d-subsets of ``reach`` - A with A + L in ``fps``.
    Each list is computed on first request and kept in the dict
    ``inner``, so a memoized projection serves every frame that reads
    it.  ``fp_richardson`` reads them for the "Bminus" fixed points and
    returns the common pairs grouped by their difference B - A.
    """

    def __init__(self, side: Side, fps: frozenset[int], d: int, k: int, n: int) -> None:
        self.side, self.fps, self.d, self.k, self.n = side, fps, d, k, n
        self.inner: dict[int, list[int]] = {}

    @cached_property
    def reach(self) -> int:
        return reduce(or_, self.fps, 0)

    def near_parts(self, a: int) -> list[int]:
        nears = self.inner.get(a)
        if nears is None:
            fps = self.fps
            nears = self.inner[a] = [
                near
                for near in map(sum, itertools.combinations(bit_values(self.reach & ~a), self.d))
                if a | near in fps
            ]
        return nears

    @cached_property
    def _size(self) -> int:
        return _count_pairs(self.side, self.fps, self.d, self.k, self.n)

    def __len__(self) -> int:
        return self._size


def _count_pairs(side: Side, fps: Iterable[int], d: int, k: int, n: int) -> int:
    """``len`` of a projection without listing it.

    Each pair is counted once, from its near extremal member C and near
    part L: the far part is any d free elements beyond L's edge.  For
    "B", the L whose largest element is the j-th element e of C
    number comb(j-1, d-1) and leave n-e-(k-j) free elements; for
    "Bminus" the L whose least element is e number comb(k-j, d-1) and
    leave e-j free elements.
    """
    if d == 0:
        return len(fps)
    total = 0
    for c in fps:
        for j, bit in enumerate(bit_values(c), start=1):
            e = bit.bit_length()
            if side == "B":
                total += comb(j - 1, d - 1) * comb(n - e - (k - j), d)
            else:
                total += comb(k - j, d - 1) * comb(e - j, d)
    return total


def fp_projected_schubert(side: Side, lam: Iterable[int], d: int, k: int, n: int) -> Projection:
    """Fixed points (A, B) of the two-step image of a Schubert variety,
    as a ``Projection``: the variety's fixed points and the pair count.

    ``lam`` indexes the B-stable variety (side "B") by dimension and the
    opposite variety (side "Bminus") by codimension.
    """
    lam = check_box(lam, k, n)
    _check_degree(d, k, n)
    if side == "B":
        return _projected_b(lam, d, k, n)
    if side == "Bminus":
        return Projection(side, fp_schubert_bminus(lam, k, n), d, k, n)
    raise ValueError(f"side must be 'B' or 'Bminus': {side!r}")


@GrassmannianMemo
def _projected_b(lam: Partition, d: int, k: int, n: int) -> Projection:
    return Projection("B", fp_schubert_b(lam, k, n), d, k, n)


def fp_richardson(
    lam_b: Iterable[int], lam_bm: Iterable[int], d: int, k: int, n: int
) -> dict[int, list[int]]:
    """Common fixed pairs (A, B) of the two projected varieties, grouped
    by their difference: a mapping W = B - A -> the inner sets A.

    At d = 0 both projections are diagonals, so the pairs form the one
    group W = 0, and ``{}`` when the two sides share no fixed point.
    Otherwise (A, B) lies in both exactly when A + L is a "B" fixed point
    and A + U a "Bminus" one, for the d least elements L and the d
    greatest U of B - A.  So each "Bminus" fixed point M is split as
    A + U, and every near part L that the "B" side holds at A with
    max L < min U files A under W = U + L.  As masks that test is
    L < U & -U, the lowest bit of U; it also keeps L and U disjoint.  A
    difference splits into its L and U one way only, so no pair is filed
    twice.

    Only an A inside the "B" side's ``reach`` has near parts, so U holds
    the e elements of M outside the reach: M is skipped when e > d, and
    otherwise U is those e plus each (d - e)-subset of M's part inside
    the reach.
    """
    p = fp_projected_schubert("B", lam_b, d, k, n)
    q = fp_projected_schubert("Bminus", lam_bm, d, k, n)
    if d == 0:
        common = p.fps & q.fps
        return {0: list(common)} if common else {}
    reach, near_parts = p.reach, p.near_parts
    groups: dict[int, list[int]] = {}
    for m in q.fps:
        beyond = m & ~reach
        free = d - beyond.bit_count()
        if free < 0:
            continue
        for rest in map(sum, itertools.combinations(bit_values(m & reach), free)):
            far = beyond | rest
            a = m - far
            nears = near_parts(a)
            if nears:
                low = far & -far
                for near in nears:
                    if near < low:
                        groups.setdefault(far | near, []).append(a)
    return groups


# turns the binary digits "0" and "1" into the bytes 0 and 1
_DIGIT_BYTES = bytes.maketrans(b"01", b"\0\1")


def _bitset(positions: Iterable[int], n: int) -> int:
    """The integer with bit a set for each a in ``positions``, all below 2^n.

    Bits are set in a buffer of 2^n bits and read as one integer, so each
    position costs one byte write instead of an OR over the whole integer.
    """
    buf = bytearray(max(1 << n >> 3, 1))
    for a in positions:
        buf[a >> 3] |= 1 << (a & 7)
    return int.from_bytes(buf, "little")


def gamma_fp(
    lam_b: Iterable[int], lam_bm: Iterable[int], d: int, k: int, n: int
) -> frozenset[int]:
    """Fixed points of the degree-d curve neighborhood of the pair.

    ``lam_b`` indexes the B-stable variety by dimension, ``lam_bm`` the
    opposite variety by codimension.

    The members are the sets A + X for the pairs (A, B) of
    ``fp_richardson`` and the d-subsets X of B - A.  For each group of
    pairs with one difference W = B - A, the larger of its two sides,
    the inner sets A or the d-subsets X of W, is held as one bitset with
    a bit set at each mask (2^n bits, 8 KB at the rank cap).  Shifting
    that bitset left by a member of the smaller side adds it to every
    member of the larger at once, since A and X are disjoint, so the
    group costs one OR per member of its smaller side.  The set bits of
    the union are read off once.

    >>> fmt_subsets(gamma_fp((), (1,), 1, 2, 4))
    ['1,2', '1,3', '1,4', '2,3', '2,4']
    """
    bits = 0
    for diff, inner in fp_richardson(lam_b, lam_bm, d, k, n).items():
        xs = list(map(sum, itertools.combinations(bit_values(diff), d)))
        small, large = (inner, xs) if len(inner) < len(xs) else (xs, inner)
        group = _bitset(large, n)
        for shift in small:
            bits |= group << shift
    # the binary digits after "0b", reversed so that byte m is 1 when bit m is set
    digits = bin(bits)[:1:-1].encode().translate(_DIGIT_BYTES)
    return frozenset(itertools.compress(itertools.count(), digits))


def g_flag_chain(lam: Iterable[int], beta: int, d: int, k: int, n: int) -> tuple[int, ...]:
    """Explicit flag chain for the neighborhood of degree d: the masks of
    nested coordinate subspaces cutting the neighborhood out as a single
    Schubert variety in the rotated opposite flag.

    For s = ``partition_subset(lam, k)`` (0-indexed) the members are
    {s[k-t]..beta} for t = d+1..k, then {1..beta} + {s[k-t]..n} for t = 1..d.
    Each is spanned by an initial segment of the basis order
    beta, ..., 1, n, ..., beta+1.

    Requires beta >= k and d = seidel_degree(lam, beta, k, n); raises
    ValueError when the requested degree is inconsistent or the resulting
    chain fails to be strictly increasing initial segments.
    """
    lam = check_box(lam, k, n)
    _check_beta(beta, k, n)
    expected = _degree(lam, beta, k)
    if d != expected:
        raise ValueError(f"degree {d} inconsistent with seidel_degree={expected}")
    order = tuple(range(beta, 0, -1)) + tuple(range(n, beta, -1))
    low = partition_subset(lam, k)
    subsets = [interval_mask(low[k - t], beta) for t in range(d + 1, k + 1)]
    subsets += [interval_mask(1, beta) | interval_mask(low[k - t], n) for t in range(1, d + 1)]
    prev = 0
    for idx, g in enumerate(subsets, start=1):
        if mask_of(order[: g.bit_count()]) != g:
            raise ValueError(f"chain member {idx} is not an initial segment")
        if not (prev & g == prev and prev != g):
            raise ValueError(f"chain not strictly increasing at member {idx}")
        prev = g
    return tuple(subsets)


def chain_fixed_points(chain: Sequence[int], k: int, n: int) -> frozenset[int]:
    """Fixed points of the Schubert variety the chain defines in Gr(k, n)."""
    return flag_fixed_points(chain, k, n)


def v_from_gflags(chain: Sequence[int], k: int, n: int) -> Partition:
    """Codimension partition of the chain's Schubert variety in Gr(k, n),
    with parts n - k + i - dim(G_i)."""
    vals = [n - k + i - g.bit_count() for i, g in enumerate(chain, start=1)]
    if any(vals[i] < vals[i + 1] for i in range(len(vals) - 1)):
        raise ValueError(f"chain dimensions give a non-partition: {vals}")
    return check_box([v for v in vals if v], k, n)


def verify_case(n: int, k: int, i: int, u: Sequence[int]) -> dict:
    """Run every check of the neighborhood theorem on one case and return
    its record.

    The neighborhood, the degree and the flag chain are computed in the
    frame of the product check (the dual Grassmannian for 0 < i < k) and
    the fixed points are mapped back; i = 0 degenerates to the
    zero-degree neighborhood being X^u itself, and has no chain.  The
    frame-level work is ``_frame_checks``, shared by the two cases of one
    frame; every check that reads the case's own (u, i) runs here.  Only a
    failing record lists the two fixed-point sets and the product's terms.
    """
    pcheck = seidel_product_check(u, i, k, n)
    frame, d, target_partition = pcheck.frame, pcheck.frame.d, pcheck.target
    target = translate_fp(seidel_element(n, -i % n), fp_schubert_bminus(target_partition, k, n))
    checks = dict.fromkeys(CHECK_NAMES, True)
    checks["product_single_term"] = pcheck.passed
    gamma, contained, v_partition = _frame_checks(frame.k, frame.lam, frame.beta, d, n)
    if frame.beta is not None:
        target_frame = frame.to_frame(target_partition)
        checks["g_chain_containment"] = contained
        checks["v_match"] = v_partition == target_frame
        checks["length_identity"] = v_partition is not None and (
            size(v_partition)
            == n * (frame.k - d) - frame.beta * frame.k + size(frame.lam)
            == size(target_frame)
        )
    if frame.dualized:
        gamma = _dual_fp(gamma, n)

    checks["fp_equality"] = gamma == target
    rec = {
        "n": n,
        "k": k,
        "i": i,
        "u": fmt_perm(u),
        "beta": frame.beta,
        "dualized": frame.dualized,
        "d": d,
        "pass": all(checks.values()),
        "checks": checks,
    }
    if not rec["pass"]:
        rec["counterexample_detail"] = {
            "gamma": fmt_subsets(gamma),
            "target": fmt_subsets(target),
            "gamma_minus_target": fmt_subsets(gamma - target),
            "target_minus_gamma": fmt_subsets(target - gamma),
            "target_partition": fmt_partition(target_partition),
            "v_partition": None if v_partition is None else fmt_partition(v_partition),
            "length_v": None if v_partition is None else size(v_partition),
            "length_target": size(target_partition),
            "product_terms": term_records(pcheck.product),
        }
    return rec


# Keyed on the frame alone, never on the case: a dual case verified right
# after the primal case of its frame (``SweepCases.twin_order``) reads the
# primal case's result.
@lru_cache(maxsize=1)
def _frame_checks(
    k: int, lam: Partition, beta: Optional[int], d: int, n: int
) -> tuple[frozenset[int], bool, Optional[Partition]]:
    """The frame-level checks of ``verify_case``: the neighborhood's fixed
    points in the frame, whether the flag chain's variety contains them,
    and the chain's codimension partition.

    With no beta (i = 0) there is no chain: the containment holds and the
    partition is None.  A chain that raises ValueError fails the
    containment and gives None.
    """
    # the rotated bottom variety, indexed by dimension: the box complement
    # (beta - k)^k of the rectangle, or the whole box when there is no beta
    side = n - k if beta is None else beta - k
    gamma = gamma_fp((side,) * k, lam, d, k, n)
    if beta is None:
        return gamma, True, None
    try:
        chain = g_flag_chain(lam, beta, d, k, n)
        return gamma, gamma <= chain_fixed_points(chain, k, n), v_from_gflags(chain, k, n)
    except ValueError:
        return gamma, False, None


Case = tuple[int, int, int, Perm]


class SweepCases(abc.Sequence):
    """All (n, k, i, u) cases with 2 <= n <= n_max, in canonical order.

    The cases run in (n, k) blocks of n * comb(n, k), one per i and
    minimal representative u.  Only block offsets are held: an index
    builds the parabolic quotient of its own block, so sampling a few
    cases never lists the other blocks.  Iteration, like ``twin_order``,
    builds each block's quotient once.

    ``twin_order`` lists the same cases in the order an exhaustive sweep
    verifies them, each dual case right after the primal case that shares
    its frame, and each block (n, n-k) right after its mirror (n, k).
    """

    def __init__(self, n_max: int) -> None:
        if not 2 <= n_max <= MAX_RANK:
            raise ValueError(f"need 2 <= n_max <= {MAX_RANK} (the rank cap), got {n_max}")
        self.blocks = [(n, k) for n in range(2, n_max + 1) for k in range(1, n)]
        self.starts = list(
            itertools.accumulate((n * comb(n, k) for n, k in self.blocks), initial=0)
        )

    def __len__(self) -> int:
        return self.starts[-1]

    def __getitem__(self, j: int) -> Case:
        if j < 0:
            j += len(self)
        if not 0 <= j < len(self):
            raise IndexError(f"case index out of range: {j}")
        b = bisect_right(self.starts, j) - 1
        n, k = self.blocks[b]
        i, r = divmod(j - self.starts[b], comb(n, k))
        return (n, k, i, _block_reps(n, k)[r])

    def __iter__(self) -> Iterator[Case]:
        for n, k in self.blocks:
            reps = _block_reps(n, k)
            for i in range(n):
                for u in reps:
                    yield (n, k, i, u)

    def twin_order(self) -> Iterator[tuple[int, Case]]:
        """Every case once with its index, block by block.

        A case with 0 < i < k is computed in the frame of the primal case
        (n, n-k, n-i, u*) with n-i > n-k, so it comes right after that
        case instead of in its own block.  The dual case is built from its
        twin, not looked up, so each block's quotient is still built once.
        Block (n, n-k) comes right after (n, k): both read the pair
        Gr(k, n) and Gr(n-k, n), so the per-pair memos build each result
        once per sweep.  The pairs run in the order of ``pair_key``, the
        largest min(k, n-k) of each n first; the sort is stable, so (n, k)
        stays before (n, n-k).
        """
        ranked = sorted(enumerate(self.blocks), key=lambda item: pair_key(item[1][1], item[1][0]))
        for b, (n, k) in ranked:
            reps = _block_reps(n, k)
            for i in itertools.chain([0], range(k, n)):
                for r, u in enumerate(reps):
                    yield self.starts[b] + i * len(reps) + r, (n, k, i, u)
                    if i > k:
                        yield self._twin(n, k, i, u)

    def _twin(self, n: int, k: int, i: int, u: Perm) -> tuple[int, Case]:
        # u* = w0 u w0: its first n-k values n+1-s, for s outside u[:k],
        # ascend, and so do the rest
        twin = tuple(n + 1 - s for s in reversed(u))
        # blocks run (2, 1), (3, 1), (3, 2), (4, 1), ...
        b = (n - 1) * (n - 2) // 2 + n - k - 1
        j = self.starts[b] + (n - i) * comb(n, k) + _lex_rank(twin[: n - k], n)
        return j, (n, n - k, n - i, twin)


def _block_reps(n: int, k: int) -> list[Perm]:
    return parabolic_quotient(n, frozenset(range(1, n)) - {k})


def sweep_cases(n_max: int) -> SweepCases:
    """All (n, k, i, u) cases with 2 <= n <= n_max, in canonical order,
    as a lazy sequence."""
    return SweepCases(n_max)


# module level so the pool can pickle it
def _verify_record(case: Case) -> dict:
    return verify_case(*case)


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not every platform reports an affinity mask
        return os.cpu_count() or 1


DEFAULT_SEED = 0


class SweepReport(NamedTuple):
    """Aggregate of a verification sweep: one ``verify_case`` record per
    case, in canonical order whatever the worker count."""

    n_max: int
    mode: str
    sample_size: Optional[int]
    seed: Optional[int]
    cases: list[dict]

    @property
    def total(self) -> int:
        return len(self.cases)

    @property
    def all_passed(self) -> bool:
        return all(c["pass"] for c in self.cases)

    def record(self) -> dict:
        fail = sum(not c["pass"] for c in self.cases)
        return {
            "n_max": self.n_max,
            "mode": self.mode,
            "sample_size": self.sample_size,
            "seed": self.seed,
            "total": self.total,
            "pass": self.total - fail,
            "fail": fail,
            "cases": self.cases,
        }


class _Order:
    """The cases of a sweep in the order it verifies them, each with its
    canonical index.  ``pairs`` starts a fresh pass.  Iterating gives the
    cases alone; with the length, ``Pool.map`` reads them as it sends them
    instead of listing them first."""

    def __init__(self, size: int, pairs: Callable[[], Iterator[tuple[int, Case]]]) -> None:
        self.size, self.pairs = size, pairs

    def __len__(self) -> int:
        return self.size

    def __iter__(self) -> Iterator[Case]:
        return (case for _, case in self.pairs())

    def slots(self) -> Iterator[int]:
        return (j for j, _ in self.pairs())


def sweep(
    n_max: int,
    mode: str = "exhaustive",
    sample_size: Optional[int] = None,
    seed: Optional[int] = None,
    jobs: Optional[int] = None,
) -> SweepReport:
    """Verify every case up to n_max, or a seeded sample of them.

    An exhaustive sweep verifies the cases in ``twin_order``.  A sampled
    one sorts its cases and verifies them grouped by their pair, in the
    order of ``pair_key``, and in sorted order within a pair.  ``jobs`` > 1
    fans them over a process pool of at most one worker per usable CPU in
    the same order.  Each record is filed at its case's canonical index,
    or its position in the sorted sample, either way, so emitted reports
    are byte-stable.  The store of the per-pair memos is emptied on
    return, so the report is rendered without the last pair's results.
    """
    if jobs is not None:
        if jobs < 1:
            raise ValueError(f"need jobs >= 1, got {jobs}")
        jobs = min(jobs, _usable_cpus())
    if mode == "sampled":
        if sample_size is None:
            raise ValueError("sampled mode needs sample_size")
        if sample_size < 1:
            raise ValueError(f"need sample_size >= 1, got {sample_size}")
        if seed is None:
            seed = DEFAULT_SEED
        import random  # only a sampled sweep draws cases

        cases = sweep_cases(n_max)
        cases = sorted(random.Random(seed).sample(cases, min(sample_size, len(cases))))
        # a case reads only the pair of its k, which the per-pair store
        # holds, so cases of one pair run together
        slots = sorted(range(len(cases)), key=lambda j: pair_key(cases[j][1], cases[j][0]))
        order = _Order(len(cases), lambda: ((j, cases[j]) for j in slots))
    elif mode == "exhaustive":
        if sample_size is not None or seed is not None:
            raise ValueError("sample_size and seed apply only to sampled mode")
        cases = sweep_cases(n_max)
        order = _Order(len(cases), cases.twin_order)
    else:
        raise ValueError(f"mode must be 'exhaustive' or 'sampled': {mode!r}")
    if jobs is not None and jobs > 1 and len(cases) > 1:
        from multiprocessing import Pool  # only a sweep with jobs > 1 starts workers

        chunk = max(1, len(cases) // (jobs * 8))
        with Pool(jobs) as pool:
            done = zip(order.slots(), pool.map(_verify_record, order, chunksize=chunk))
    else:
        done = ((j, _verify_record(case)) for j, case in order.pairs())
    records: list = [None] * len(cases)
    for j, rec in done:
        records[j] = rec
    GrassmannianMemo.cache_clear()
    return SweepReport(
        n_max=n_max,
        mode=mode,
        sample_size=sample_size,
        seed=seed,
        cases=records,
    )
