"""Curve neighborhoods of Schubert pairs, computed on torus-fixed points.

The degree-d neighborhood of a pair of opposite Schubert varieties is
B-stable and B^- stable at once, so it is a union of Schubert cells and
is pinned down by its fixed points.  Those are computed through the
incidence correspondence: a k-subset C belongs to the neighborhood when
some pair A subseteq C subseteq B with |A| = k-d, |B| = k+d joins C to
both input varieties through their own fixed points.

``verify_case`` compares that oracle against the translated fixed-point
set that the single-term quantum product predicts, and cross-checks the
explicit flag chain carving out the neighborhood as one Schubert
variety.

Subsets of a mask are enumerated as sums of its single-bit values.  The
projection of the rectangle side depends only on (beta, k, n, d) and is
cached; the opposite side changes with every case, so caching it would
only hold memory.
"""

from __future__ import annotations

import itertools
import os
import random
from dataclasses import dataclass, field
from functools import lru_cache
from multiprocessing import Pool
from typing import Iterable, Literal, Optional, Sequence

from .grassmann import (
    Partition,
    bit_values,
    check_box,
    check_rank,
    conjugate,
    dual_mask,
    flag_fixed_points,
    fp_schubert_b,
    fp_schubert_bminus,
    interval_mask,
    mask_of,
    normalize_partition,
    part,
    perm_to_partition,
    size,
    subset_of,
    translate_fp,
)
from .perms import (
    Perm,
    check_perm,
    compose,
    fmt_perm,
    inverse,
    min_coset_rep,
    parabolic_quotient,
    seidel_element,
)
from .quantum import qclass_records, seidel_degree, seidel_product_check

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


def fp_projected_schubert(
    side: Side, lam: Iterable[int], d: int, k: int, n: int
) -> frozenset[tuple[int, int]]:
    """Fixed points (A, B) of the two-step image of a Schubert variety.

    A pair qualifies when some k-subset C with A subseteq C subseteq B is
    a fixed point of the variety; |A| = k-d and |B| = k+d.
    """
    check_rank(k, n)
    _check_degree(d, k, n)
    if side == "B":
        return _projected_b(check_box(lam, k, n), d, k, n)
    if side == "Bminus":
        return _project(fp_schubert_bminus(lam, k, n), d, n)
    raise ValueError(f"side must be 'B' or 'Bminus': {side!r}")


# An exhaustive sweep needs one projection per degree of its (n, k, i) block.
@lru_cache(maxsize=16)
def _projected_b(lam: Partition, d: int, k: int, n: int) -> frozenset[tuple[int, int]]:
    return _project(fp_schubert_b(lam, k, n), d, n)


def _project(fps: Iterable[int], d: int, n: int) -> frozenset[tuple[int, int]]:
    full = (1 << n) - 1
    pairs: set[tuple[int, int]] = set()
    for c in fps:
        amasks = [c ^ sum(x) for x in itertools.combinations(bit_values(c), d)]
        bmasks = [c | sum(x) for x in itertools.combinations(bit_values(full ^ c), d)]
        pairs.update(itertools.product(amasks, bmasks))
    return frozenset(pairs)


def fp_richardson(
    lam_b: Iterable[int], lam_bm: Iterable[int], d: int, k: int, n: int
) -> frozenset[tuple[int, int]]:
    """Common fixed pairs of the two projected varieties."""
    return fp_projected_schubert("B", lam_b, d, k, n) & fp_projected_schubert(
        "Bminus", lam_bm, d, k, n
    )


def gamma_fp(
    lam_b: Iterable[int], lam_bm: Iterable[int], d: int, k: int, n: int
) -> frozenset[int]:
    """Fixed points of the degree-d curve neighborhood of the pair.

    ``lam_b`` indexes the B-stable variety by dimension, ``lam_bm`` the
    opposite variety by codimension.

    >>> sorted(subset_of(m) for m in gamma_fp((), (1,), 1, 2, 4))
    [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4)]
    """
    out: set[int] = set()
    for a, b in fp_richardson(lam_b, lam_bm, d, k, n):
        out.update(a | sum(x) for x in itertools.combinations(bit_values(b ^ a), d))
    return frozenset(out)


@dataclass(frozen=True)
class GFlagChain:
    """Nested coordinate subspaces cutting the neighborhood out as a
    single Schubert variety in the rotated opposite flag."""

    n: int
    k: int
    beta: int
    d: int
    subsets: tuple[int, ...]
    basis_order: tuple[int, ...]


def g_flag_chain(lam: Iterable[int], beta: int, d: int, k: int, n: int) -> GFlagChain:
    """Explicit flag chain for the neighborhood of degree d.

    Requires beta >= k and d = seidel_degree(lam, beta, k, n); raises
    ValueError when the requested degree is inconsistent or the resulting
    chain fails to be strictly increasing initial segments.
    """
    lam = check_box(lam, k, n)
    check_rank(k, n)
    if d != seidel_degree(lam, beta, k, n):
        raise ValueError(
            f"degree {d} inconsistent with seidel_degree={seidel_degree(lam, beta, k, n)}"
        )
    order = tuple(range(beta, 0, -1)) + tuple(range(n, beta, -1))
    subsets: list[int] = []
    for idx in range(1, k + 1):
        if idx <= k - d:
            t = idx + d
            j = n - k + t - part(lam, t)
            g = interval_mask(n - j + 1, beta)
        else:
            t = idx - (k - d)
            j = n - k + t - part(lam, t)
            g = interval_mask(1, beta) | interval_mask(n - j + 1, n)
        subsets.append(g)
    prev = 0
    for idx, g in enumerate(subsets, start=1):
        if mask_of(order[: g.bit_count()]) != g:
            raise ValueError(f"chain member {idx} is not an initial segment")
        if not (prev & g == prev and prev != g):
            raise ValueError(f"chain not strictly increasing at member {idx}")
        prev = g
    return GFlagChain(n=n, k=k, beta=beta, d=d, subsets=tuple(subsets), basis_order=order)


def chain_fixed_points(chain: GFlagChain, k: int, n: int) -> frozenset[int]:
    """Fixed points of the Schubert variety the chain defines."""
    return flag_fixed_points(chain.subsets, k, n)


def v_from_gflags(chain: GFlagChain, k: int, n: int) -> Partition:
    """Codimension partition of the chain's Schubert variety, with parts
    n - k + i - dim(G_i)."""
    vals = [n - k + i - g.bit_count() for i, g in enumerate(chain.subsets, start=1)]
    if any(vals[i] < vals[i + 1] for i in range(len(vals) - 1)):
        raise ValueError(f"chain dimensions give a non-partition: {vals}")
    return check_box([v for v in vals if v], k, n)


@dataclass
class CaseReport:
    """Verdict for one (n, k, i, u) case of the neighborhood theorem.

    The two fixed-point sets are kept as masks; ``gamma`` and ``target``
    list them as sorted subsets, which only a failing record needs.
    """

    n: int
    k: int
    i: int
    u: Perm
    beta: Optional[int]
    dualized: bool
    d: int
    checks: dict[str, bool]
    gamma_masks: frozenset[int]
    target_masks: frozenset[int]
    target_partition: Partition
    v_partition: Optional[Partition]
    length_v: Optional[int]
    length_target: int
    product_terms: list[dict] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(self.checks.values())

    @property
    def gamma(self) -> tuple[tuple[int, ...], ...]:
        return _sorted_subsets(self.gamma_masks)

    @property
    def target(self) -> tuple[tuple[int, ...], ...]:
        return _sorted_subsets(self.target_masks)

    def record(self) -> dict:
        rec = {
            "n": self.n,
            "k": self.k,
            "i": self.i,
            "u": fmt_perm(self.u),
            "beta": self.beta,
            "dualized": self.dualized,
            "d": self.d,
            "pass": self.passed,
            "checks": dict(self.checks),
        }
        if not self.passed:
            gamma = set(self.gamma)
            target = set(self.target)
            rec["counterexample_detail"] = {
                "gamma": [",".join(map(str, s)) for s in sorted(gamma)],
                "target": [",".join(map(str, s)) for s in sorted(target)],
                "gamma_minus_target": [",".join(map(str, s)) for s in sorted(gamma - target)],
                "target_minus_gamma": [",".join(map(str, s)) for s in sorted(target - gamma)],
                "target_partition": ",".join(map(str, self.target_partition)),
                "v_partition": None
                if self.v_partition is None
                else ",".join(map(str, self.v_partition)),
                "length_v": self.length_v,
                "length_target": self.length_target,
                "product_terms": list(self.product_terms),
            }
        return rec


def _sorted_subsets(masks: Iterable[int]) -> tuple[tuple[int, ...], ...]:
    return tuple(sorted(subset_of(m) for m in masks))


def verify_case(n: int, k: int, i: int, u: Sequence[int]) -> CaseReport:
    """Run every check of the neighborhood theorem on one case.

    i = 0 degenerates to the zero-degree neighborhood being X^u itself;
    cases with 0 < i < k run the degree and chain machinery in the dual
    Grassmannian and map the fixed points back.
    """
    check_rank(k, n)
    u = check_perm(u)
    if len(u) != n:
        raise ValueError(f"rank mismatch: {len(u)} vs n={n}")
    if not 0 <= i <= n - 1:
        raise ValueError(f"need 0 <= i <= n-1, got i={i}")
    xroots = frozenset(range(1, n)) - {k}
    w = seidel_element(n, i)
    lam = perm_to_partition(min_coset_rep(u, xroots), k, n)
    target_partition = perm_to_partition(min_coset_rep(compose(w, u), xroots), k, n)
    target = translate_fp(inverse(w), fp_schubert_bminus(target_partition, k, n))

    pcheck = seidel_product_check(u, i, k, n)
    d = pcheck.d
    checks = dict.fromkeys(CHECK_NAMES, True)
    checks["product_single_term"] = pcheck.passed
    v_partition: Optional[Partition] = None
    length_v: Optional[int] = None

    if i == 0:
        beta = None
        dualized = False
        gamma = gamma_fp(((n - k),) * k, lam, 0, k, n)
    elif i >= k:
        beta = i
        dualized = False
        lam_b = normalize_partition(((beta - k),) * k)
        gamma = gamma_fp(lam_b, lam, d, k, n)
        try:
            chain = g_flag_chain(lam, beta, d, k, n)
            checks["g_chain_containment"] = gamma <= chain_fixed_points(chain, k, n)
            v_partition = v_from_gflags(chain, k, n)
        except ValueError:
            checks["g_chain_containment"] = False
            checks["v_match"] = False
            checks["length_identity"] = False
        if v_partition is not None:
            length_v = size(v_partition)
            checks["v_match"] = v_partition == target_partition
            checks["length_identity"] = (
                length_v == n * (k - d) - beta * k + size(lam)
                and length_v == size(target_partition)
            )
    else:
        # dual frame: k' = n-k and beta' = n-i >= k', so the degree and
        # chain formulas apply there; fixed points map back by dual_mask
        beta = n - i
        dualized = True
        k_dual = n - k
        lam_dual = conjugate(lam)
        target_dual = conjugate(target_partition)
        lam_b = normalize_partition(((beta - k_dual),) * k_dual)
        gamma_dual = gamma_fp(lam_b, lam_dual, d, k_dual, n)
        gamma = frozenset(dual_mask(m, n) for m in gamma_dual)
        try:
            chain = g_flag_chain(lam_dual, beta, d, k_dual, n)
            checks["g_chain_containment"] = gamma_dual <= chain_fixed_points(chain, k_dual, n)
            v_partition = v_from_gflags(chain, k_dual, n)
        except ValueError:
            checks["g_chain_containment"] = False
            checks["v_match"] = False
            checks["length_identity"] = False
        if v_partition is not None:
            length_v = size(v_partition)
            checks["v_match"] = v_partition == target_dual
            checks["length_identity"] = (
                length_v == n * (k_dual - d) - beta * k_dual + size(lam_dual)
                and length_v == size(target_dual)
            )

    checks["fp_equality"] = gamma == target
    if checks["fp_equality"]:
        gamma = target  # equal sets: the report keeps one of them
    return CaseReport(
        n=n,
        k=k,
        i=i,
        u=u,
        beta=beta,
        dualized=dualized,
        d=d,
        checks=checks,
        gamma_masks=gamma,
        target_masks=target,
        target_partition=target_partition,
        v_partition=v_partition,
        length_v=length_v,
        length_target=size(target_partition),
        product_terms=qclass_records(pcheck.product),
    )


def sweep_cases(n_max: int) -> list[tuple[int, int, int, Perm]]:
    """All (n, k, i, u) cases with 2 <= n <= n_max, in canonical order."""
    if n_max < 2:
        raise ValueError(f"need n_max >= 2, got {n_max}")
    cases = []
    for n in range(2, n_max + 1):
        for k in range(1, n):
            reps = parabolic_quotient(n, frozenset(range(1, n)) - {k})
            for i in range(n):
                cases.extend((n, k, i, u) for u in reps)
    return cases


def _verify_tuple(case: tuple[int, int, int, Perm]) -> CaseReport:
    return verify_case(*case)


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not every platform reports an affinity mask
        return os.cpu_count() or 1


DEFAULT_SEED = 0


@dataclass
class SweepReport:
    """Aggregate of a verification sweep; case order is canonical and
    independent of the worker count."""

    n_max: int
    mode: str
    sample_size: Optional[int]
    seed: Optional[int]
    cases: list[CaseReport]

    @property
    def total(self) -> int:
        return len(self.cases)

    @property
    def failures(self) -> list[CaseReport]:
        return [c for c in self.cases if not c.passed]

    @property
    def all_passed(self) -> bool:
        return not self.failures

    def record(self) -> dict:
        return {
            "n_max": self.n_max,
            "mode": self.mode,
            "sample_size": self.sample_size,
            "seed": self.seed,
            "total": self.total,
            "pass": self.total - len(self.failures),
            "fail": len(self.failures),
            "cases": [c.record() for c in self.cases],
        }


def sweep(
    n_max: int,
    mode: str = "exhaustive",
    sample_size: Optional[int] = None,
    seed: Optional[int] = None,
    jobs: Optional[int] = None,
) -> SweepReport:
    """Verify every case up to n_max, or a seeded sample of them.

    ``jobs`` > 1 fans cases over a process pool of at most one worker
    per usable CPU; results keep the canonical order either way, so
    emitted reports are byte-stable.
    """
    if jobs is not None:
        if jobs < 1:
            raise ValueError(f"need jobs >= 1, got {jobs}")
        jobs = min(jobs, _usable_cpus())
    cases = sweep_cases(n_max)
    if mode == "sampled":
        if sample_size is None:
            raise ValueError("sampled mode needs sample_size")
        rng = random.Random(DEFAULT_SEED if seed is None else seed)
        cases = sorted(rng.sample(cases, min(sample_size, len(cases))))
    elif mode != "exhaustive":
        raise ValueError(f"mode must be 'exhaustive' or 'sampled': {mode!r}")
    if jobs is not None and jobs > 1 and len(cases) > 1:
        chunk = max(1, len(cases) // (jobs * 8))
        with Pool(jobs) as pool:
            reports = pool.map(_verify_tuple, cases, chunksize=chunk)
    else:
        reports = [verify_case(*case) for case in cases]
    return SweepReport(
        n_max=n_max,
        mode=mode,
        sample_size=sample_size if mode == "sampled" else None,
        seed=(DEFAULT_SEED if seed is None else seed) if mode == "sampled" else None,
        cases=reports,
    )
