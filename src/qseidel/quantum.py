"""Small quantum cohomology ring of the Grassmannian.

Classes are integer combinations of Schubert classes times powers of the
quantum parameter q, with deg q = n.  Products are computed by expanding
in Littlewood-Richardson coefficients over partitions with at most k
rows and unbounded width, then reducing each shape modulo n-rim hooks.
Every removed hook contributes one factor of q and the sign (-1)^(k-h),
h being the number of rows the hook occupies; the reduction below walks
first-column hook lengths instead of diagrams, which performs exactly
those removals in a canonical order.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Optional, Sequence

from .grassmann import (
    Partition,
    check_box,
    check_rank,
    conjugate,
    contains,
    dual_case,
    normalize_partition,
    part,
    perm_to_partition,
    size,
)
from .perms import Perm, check_perm, compose, min_coset_rep, seidel_element


@dataclass
class QClass:
    """Element of the quantum ring: terms maps (partition, q-exponent) to
    its integer coefficient, in the k-plane Grassmannian of n-space."""

    k: int
    n: int
    terms: dict[tuple[Partition, int], int]

    def items_canonical(self) -> list[tuple[tuple[Partition, int], int]]:
        """Terms sorted by partition (lexicographically), then q-exponent."""
        return sorted(self.terms.items())

    def is_zero(self) -> bool:
        return not self.terms


def min_q_degree(c: QClass) -> int:
    """Smallest q-exponent appearing in the class.

    Raises ValueError on the zero class.
    """
    if c.is_zero():
        raise ValueError("zero class has no q-degree")
    return min(q for _, q in c.terms)


@lru_cache(maxsize=1 << 16)
def lr_coeff(lam: Partition, mu: Partition, nu: Partition) -> int:
    """Littlewood-Richardson coefficient of nu in the product lam * mu.

    Counts semistandard fillings of the skew shape nu/lam with content mu
    whose reverse reading word is a lattice word.  Incompatible shapes
    give 0 rather than an error.

    >>> lr_coeff((1,), (1, 1), (2, 1))
    1
    >>> lr_coeff((1,), (2,), (3,))
    1
    """
    lam = normalize_partition(lam)
    mu = normalize_partition(mu)
    nu = normalize_partition(nu)
    if size(lam) + size(mu) != size(nu) or not contains(nu, lam):
        return 0
    if not mu:
        return 1
    # cells in reverse reading order: rows top to bottom, right to left
    cells = [
        (r, c)
        for r in range(1, len(nu) + 1)
        for c in range(part(nu, r), part(lam, r), -1)
    ]
    rows = len(mu)
    counts = [0] * (rows + 1)
    grid: dict[tuple[int, int], int] = {}
    total = 0

    def place(idx: int) -> None:
        nonlocal total
        if idx == len(cells):
            total += 1
            return
        r, c = cells[idx]
        right = grid.get((r, c + 1), rows)
        above = grid.get((r - 1, c), 0) if c > part(lam, r - 1) else 0
        for v in range(above + 1, right + 1):
            if counts[v] >= mu[v - 1]:
                continue
            if v > 1 and counts[v - 1] <= counts[v]:
                continue  # reverse reading word must stay a lattice word
            counts[v] += 1
            grid[(r, c)] = v
            place(idx + 1)
            counts[v] -= 1
        grid.pop((r, c), None)

    place(0)
    return total


def partitions_bounded(total: int, rows: int, width: int) -> Iterator[Partition]:
    """Partitions of ``total`` with at most ``rows`` parts, each <= ``width``."""
    if total == 0:
        yield ()
        return
    if rows == 0:
        return
    lo = -(-total // rows)  # smallest feasible first part
    for first in range(min(total, width), lo - 1, -1):
        for rest in partitions_bounded(total - first, rows - 1, first):
            yield (first,) + rest


def rim_hook_reduce(nu: Sequence[int], k: int, n: int) -> Optional[tuple[Partition, int, int]]:
    """Reduce a shape with at most k rows modulo n-rim hooks.

    Returns (reduced partition in the box, hooks removed, overall sign),
    or None when no removal sequence reaches the box and the class is 0.

    Works on the first-column hook lengths b_i = nu_i + k - i: removing
    one n-rim hook of height h replaces some b_i by b_i - n while passing
    h - 1 other values, so the total sign telescopes to the parity of
    d*(k-1) plus the crossings needed to re-sort the reduced values.
    """
    nu = normalize_partition(nu)
    if len(nu) > k:
        raise ValueError(f"shape {nu} has more than {k} rows")
    beta = [part(nu, i) + k - i for i in range(1, k + 1)]
    residues = [b % n for b in beta]
    if len(set(residues)) < k:
        return None
    d = sum((b - r) // n for b, r in zip(beta, residues))
    crossings = sum(
        1
        for a in range(k)
        for b in range(a + 1, k)
        if residues[a] < residues[b]
    )
    sign = -1 if (d * (k - 1) + crossings) % 2 else 1
    ordered = sorted(residues, reverse=True)
    reduced = normalize_partition(r - (k - i) for i, r in enumerate(ordered, start=1))
    return reduced, d, sign


def classical_product(lam: Sequence[int], mu: Sequence[int], k: int, n: int) -> QClass:
    """Cup product of two Schubert classes; terms outside the box are dropped.

    >>> classical_product((1,), (1,), 2, 4).terms
    {((1, 1), 0): 1, ((2,), 0): 1}
    """
    lam = check_box(lam, k, n)
    mu = check_box(mu, k, n)
    check_rank(k, n)
    total = size(lam) + size(mu)
    terms: dict[tuple[Partition, int], int] = {}
    for nu in partitions_bounded(total, k, n - k):
        c = lr_coeff(lam, mu, nu)
        if c:
            terms[(nu, 0)] = c
    return QClass(k=k, n=n, terms=dict(sorted(terms.items())))


class DegreeMismatchError(ArithmeticError):
    """A rim-hook reduction broke the grading |shape| + d*n = |nu|.

    This is an internal fault, not bad input, so it is not a ValueError.
    """

    def __init__(self, nu: Partition, shape: Partition, d: int, total: int, n: int) -> None:
        super().__init__(
            f"reducing {nu} gave shape {shape} with q-degree {d}: "
            f"{size(shape)} + {d}*{n} != {total}"
        )
        self.nu = nu
        self.shape = shape
        self.d = d
        self.total = total


def quantum_product(lam: Sequence[int], mu: Sequence[int], k: int, n: int) -> QClass:
    """Quantum product of two Schubert classes.

    >>> quantum_product((1,), (1,), 1, 2).terms
    {((), 1): 1}
    """
    lam = check_box(lam, k, n)
    mu = check_box(mu, k, n)
    check_rank(k, n)
    total = size(lam) + size(mu)
    width = part(lam, 1) + part(mu, 1)
    terms: dict[tuple[Partition, int], int] = {}
    for nu in partitions_bounded(total, k, width):
        if not contains(nu, lam):
            continue
        c = lr_coeff(lam, mu, nu)
        if c == 0:
            continue
        red = rim_hook_reduce(nu, k, n)
        if red is None:
            continue
        shape, d, sign = red
        if size(shape) + d * n != total:
            raise DegreeMismatchError(nu, shape, d, total, n)
        key = (shape, d)
        terms[key] = terms.get(key, 0) + sign * c
    terms = {key: coeff for key, coeff in sorted(terms.items()) if coeff}
    return QClass(k=k, n=n, terms=terms)


def seidel_degree(lam: Sequence[int], beta: int, k: int, n: int) -> int:
    """Smallest quantum degree in the product with the Schubert class of
    the cocharacter at beta, read off from the diagram overlap.

    The degree is the largest j with lam_j - (beta - k) >= j, or 0.

    >>> seidel_degree((5, 4, 3, 1), 5, 4, 9)
    2
    """
    lam = check_box(lam, k, n)
    if not k <= beta <= n - 1:
        raise ValueError(f"need k <= beta <= n-1, got beta={beta}, k={k}, n={n}")
    hits = [j for j in range(1, k + 1) if part(lam, j) - (beta - k) >= j]
    return max(hits, default=0)


def seidel_class(beta: int, k: int, n: int) -> Partition:
    """Codimension partition of the cocharacter Schubert class: the
    rectangle (n-beta)^k.

    >>> seidel_class(5, 4, 9)
    (4, 4, 4, 4)
    """
    check_rank(k, n)
    if not k <= beta <= n - 1:
        raise ValueError(f"need k <= beta <= n-1, got beta={beta}, k={k}, n={n}")
    return ((n - beta),) * k


@dataclass(frozen=True)
class SeidelCheck:
    """Outcome of the single-term product test for one (u, i) case.

    ``target`` is always reported in the original k-plane frame;
    ``product`` lives in the dual frame when ``dualized`` is set.
    """

    d: int
    target: Partition
    passed: bool
    dualized: bool
    beta: Optional[int]
    product: QClass


def seidel_product_check(u: Sequence[int], i: int, k: int, n: int) -> SeidelCheck:
    """Check that multiplying by the i-th cocharacter class shifts X^u to
    a single term q^d X^(wu), with d given by ``seidel_degree``.

    Cases with 0 < i < k are routed through ``dual_case`` so that the
    degree formula's hypothesis beta >= k holds; the verdict transfers
    back unchanged.
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
    target = perm_to_partition(min_coset_rep(compose(w, u), xroots), k, n)
    if i == 0:
        prod = quantum_product((), lam, k, n)
        d = 0
        want = {(target, 0): 1}
        dualized, beta = False, None
    elif i >= k:
        beta = i
        d = seidel_degree(lam, beta, k, n)
        prod = quantum_product(seidel_class(beta, k, n), lam, k, n)
        want = {(target, d): 1}
        dualized = False
    else:
        lam_dual, k_dual = dual_case(lam, k, n)
        beta = n - i
        d = seidel_degree(lam_dual, beta, k_dual, n)
        prod = quantum_product(seidel_class(beta, k_dual, n), lam_dual, k_dual, n)
        want = {(conjugate(target), d): 1}
        dualized = True
    return SeidelCheck(
        d=d,
        target=target,
        passed=prod.terms == want,
        dualized=dualized,
        beta=beta,
        product=prod,
    )


def qclass_records(c: QClass) -> list[dict]:
    """Serializable term records in canonical order."""
    return [
        {"partition": ",".join(str(p) for p in shape), "q": q, "coeff": coeff}
        for (shape, q), coeff in c.items_canonical()
    ]
