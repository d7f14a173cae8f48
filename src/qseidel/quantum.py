"""Small quantum cohomology ring of the Grassmannian.

Classes are integer combinations of Schubert classes times powers of the
quantum parameter q, with deg q = n.  Products are computed by expanding
in Littlewood-Richardson coefficients over the partitions with at most k
rows that lie between two bounds, then reducing each shape modulo n-rim
hooks.  A shape of lam * mu contains both factors (the floor) and lies
under ``weyl_ceiling(lam, mu, k)`` (the ceiling); for a rectangle class
times any class the two bounds leave one shape.
Every removed hook contributes one factor of q and the sign (-1)^(k-h),
h being the number of rows the hook occupies; the reduction below lowers
the elements of each shape's k-subset instead of walking diagrams, which
performs exactly those removals in a canonical order.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import Iterator, NamedTuple, Optional, Sequence

from .grassmann import (
    Partition,
    check_box,
    check_rank,
    conjugate,
    contains,
    fmt_partition,
    normalize_partition,
    part,
    partition_subset,
    partitions_bounded,
    perm_to_partition,
    size,
    subset_partition,
)
from .perms import _compose, check_index, seidel_element


# an element of the quantum ring: (partition, q-exponent) -> integer coefficient
Terms = dict[tuple[Partition, int], int]


def min_q_degree(terms: Terms) -> int:
    """Smallest q-exponent appearing in the class.

    Raises ValueError on the zero class.
    """
    if not terms:
        raise ValueError("zero class has no q-degree")
    return min(q for _, q in terms)


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


def weyl_ceiling(lam: Sequence[int], mu: Sequence[int], rows: int) -> Partition:
    """Upper bound on the shapes of the product lam * mu: the first
    ``rows`` parts of the partition whose t-th part is the least
    lam_i + mu_j over i + j = t + 1.  Trailing parts may be zero.

    A nonzero ``lr_coeff(lam, mu, nu)`` implies nu_t <= lam_i + mu_j
    whenever i + j = t + 1: these are Weyl's inequalities for the
    eigenvalues of Hermitian matrices A + B = C, and c^nu_{lam,mu} != 0
    exactly when lam, mu and nu are such eigenvalues (Fulton, "Eigenvalues,
    invariant factors, highest weights, and Schubert calculus", Bull. AMS
    2000).

    >>> weyl_ceiling((2, 1), (1, 1), 5)
    (3, 2, 1, 1, 0)
    """
    return tuple(
        min(part(lam, i) + part(mu, t + 1 - i) for i in range(1, t + 1))
        for t in range(1, rows + 1)
    )


def rim_hook_reduce(nu: Sequence[int], k: int, n: int) -> Optional[tuple[Partition, int, int]]:
    """Reduce a shape with at most k rows modulo n-rim hooks.

    Returns (reduced partition in the box, hooks removed, overall sign),
    or None when no removal sequence reaches the box and the class is 0.

    Works on the k-subset ``partition_subset(nu, k)``: removing one n-rim
    hook of height h lowers one element by n past h - 1 others, so each
    element drops to its residue in {1..n} and the total sign telescopes to
    the parity of d*(k-1) plus the crossings needed to re-sort the residues.
    """
    check_rank(k, n)
    subset = partition_subset(normalize_partition(nu), k)
    residues = [(t - 1) % n + 1 for t in subset]
    if len(set(residues)) < k:
        return None
    d = sum((t - r) // n for t, r in zip(subset, residues))
    crossings = sum(
        1
        for a in range(k)
        for b in range(a + 1, k)
        if residues[a] > residues[b]
    )
    sign = -1 if (d * (k - 1) + crossings) % 2 else 1
    return subset_partition(sorted(residues)), d, sign


def classical_product(lam: Sequence[int], mu: Sequence[int], k: int, n: int) -> Terms:
    """Cup product of two Schubert classes; terms outside the box are dropped.

    >>> classical_product((1,), (1,), 2, 4)
    {((1, 1), 0): 1, ((2,), 0): 1}
    """
    lam = check_box(lam, k, n)
    mu = check_box(mu, k, n)
    # the box cuts the ceiling to the terms kept
    ceiling = tuple(min(c, n - k) for c in weyl_ceiling(lam, mu, k))
    return {(nu, 0): c for nu, c in sorted(_lr_terms(lam, mu, ceiling))}


def _lr_terms(
    lam: Partition, mu: Partition, ceiling: Sequence[int]
) -> Iterator[tuple[Partition, int]]:
    """The shapes nu under ``ceiling`` with c^nu_{lam,mu} != 0, each with
    its coefficient.

    c^nu_{lam,mu} vanishes unless nu contains lam and mu, so only the
    shapes above lam | mu are tried.
    """
    floor = tuple(map(max, itertools.zip_longest(lam, mu, fillvalue=0)))
    for nu in partitions_bounded(size(lam) + size(mu), ceiling, floor):
        c = lr_coeff(lam, mu, nu)
        if c:
            yield nu, c


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
        self.n = n

    def __reduce__(self):
        # pickle the five fields, not the message, so a pool worker can
        # send the error back to the parent
        return type(self), (self.nu, self.shape, self.d, self.total, self.n)


def quantum_product(lam: Sequence[int], mu: Sequence[int], k: int, n: int) -> Terms:
    """Quantum product of two Schubert classes, its terms in sorted order.

    >>> quantum_product((1,), (1,), 1, 2)
    {((), 1): 1}
    """
    return dict(_quantum_terms(check_box(lam, k, n), check_box(mu, k, n), k, n))


# the product of one frame, shared by the two cases of that frame
@lru_cache(maxsize=1)
def _quantum_terms(
    lam: Partition, mu: Partition, k: int, n: int
) -> tuple[tuple[tuple[Partition, int], int], ...]:
    total = size(lam) + size(mu)
    terms: Terms = {}
    for nu, c in _lr_terms(lam, mu, weyl_ceiling(lam, mu, k)):
        red = rim_hook_reduce(nu, k, n)
        if red is None:
            continue
        shape, d, sign = red
        if size(shape) + d * n != total:
            raise DegreeMismatchError(nu, shape, d, total, n)
        key = (shape, d)
        terms[key] = terms.get(key, 0) + sign * c
    return tuple((key, coeff) for key, coeff in sorted(terms.items()) if coeff)


def _check_beta(beta: int, k: int, n: int) -> None:
    if not k <= beta <= n - 1:
        raise ValueError(f"need k <= beta <= n-1, got beta={beta}, k={k}, n={n}")


def seidel_degree(lam: Sequence[int], beta: int, k: int, n: int) -> int:
    """Smallest quantum degree in the product with the Schubert class of
    the cocharacter at beta, read off from the diagram overlap.

    The degree is the largest j with lam_j - (beta - k) >= j, or 0.

    >>> seidel_degree((5, 4, 3, 1), 5, 4, 9)
    2
    """
    lam = check_box(lam, k, n)
    _check_beta(beta, k, n)
    return _degree(lam, beta, k)


def _degree(lam: Partition, beta: int, k: int) -> int:
    """``seidel_degree`` without its checks, for a box partition and a
    beta in k..n-1 that the caller has already checked or built."""
    return max((j for j in range(1, k + 1) if part(lam, j) - (beta - k) >= j), default=0)


def seidel_class(beta: int, k: int, n: int) -> Partition:
    """Codimension partition of the cocharacter Schubert class: the
    rectangle (n-beta)^k.

    >>> seidel_class(5, 4, 9)
    (4, 4, 4, 4)
    """
    check_rank(k, n)
    _check_beta(beta, k, n)
    return _rectangle(beta, k, n)


def _rectangle(beta: int, k: int, n: int) -> Partition:
    """``seidel_class`` without its checks, for a rank and a beta in
    k..n-1 that the caller has already checked or built."""
    return ((n - beta),) * k


class Frame(NamedTuple):
    """The Grassmannian in which the shift by index i is computed.

    The degree and chain formulas need beta >= k.  For i >= k the frame
    is Gr(k, n) itself with beta = i; for 0 < i < k it is the dual
    Gr(n-k, n) with beta = n - i, where partitions are conjugated; i = 0
    is the identity shift, with no beta and degree 0.  ``lam`` is the
    input class and ``d`` the shift degree, both in this frame.
    """

    k: int
    lam: Partition
    beta: Optional[int]
    dualized: bool
    d: int

    def to_frame(self, lam: Partition) -> Partition:
        """A partition of the original Grassmannian, read in this frame."""
        return conjugate(lam) if self.dualized else lam

    def rectangle(self, n: int) -> Partition:
        """Codimension partition of the class that multiplies by the shift."""
        return () if self.beta is None else _rectangle(self.beta, self.k, n)


def resolve_frame(lam: Sequence[int], i: int, k: int, n: int) -> Frame:
    """Choose the frame for shifting the class ``lam`` of Gr(k, n) by index i.

    >>> resolve_frame((4, 3, 3, 2, 1), 4, 5, 9)
    Frame(k=4, lam=(5, 4, 3, 1), beta=5, dualized=True, d=2)
    """
    lam = check_box(lam, k, n)
    check_index(i, n)
    return _frame(lam, i, k, n)


def _frame(lam: Partition, i: int, k: int, n: int) -> Frame:
    """``resolve_frame`` without its checks, for a box partition and an
    index that the caller has already checked or built."""
    if i == 0:
        return Frame(k=k, lam=lam, beta=None, dualized=False, d=0)
    if i >= k:
        return Frame(k=k, lam=lam, beta=i, dualized=False, d=_degree(lam, i, k))
    lam = conjugate(lam)  # the dual Grassmannian, where beta = n - i >= n - k
    return Frame(k=n - k, lam=lam, beta=n - i, dualized=True, d=_degree(lam, n - i, n - k))


class SeidelCheck(NamedTuple):
    """Outcome of the single-term product test for one (u, i) case.

    ``target`` is always reported in the original k-plane frame;
    ``product`` lives in ``frame``, the dual one when ``frame.dualized``
    is set.
    """

    target: Partition
    passed: bool
    product: Terms
    frame: Frame


def seidel_product_check(u: Sequence[int], i: int, k: int, n: int) -> SeidelCheck:
    """Check that multiplying by the i-th cocharacter class shifts X^u to
    a single term q^d X^(wu), with d given by ``seidel_degree``.

    The product is computed in the frame ``resolve_frame`` picks, where
    the degree formula's hypothesis beta >= k holds; the verdict
    transfers back unchanged.
    """
    lam = perm_to_partition(u, k, n)
    # perm_to_partition has checked u and the rank, seidel_element checks i
    shift = seidel_element(n, i)
    frame = _frame(lam, i, k, n)
    target = perm_to_partition(_compose(shift, u), k, n)
    prod = quantum_product(frame.rectangle(n), frame.lam, frame.k, n)
    return SeidelCheck(
        target=target,
        passed=prod == {(frame.to_frame(target), frame.d): 1},
        product=prod,
        frame=frame,
    )


def term_records(terms: Terms) -> list[dict]:
    """Serializable term records, sorted by partition, then q-exponent."""
    return [
        {"partition": fmt_partition(shape), "q": q, "coeff": coeff}
        for (shape, q), coeff in sorted(terms.items())
    ]
