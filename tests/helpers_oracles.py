"""Independent brute-force oracles used to freeze expected test values.

Everything here recomputes results from first principles by exhaustive
search, deliberately avoiding the algorithms under test: the Bruhat
order is grown from transposition steps or read from rank matrices,
neighborhoods from raw pair enumeration, and quantum reductions from
literal border-strip removal on diagrams.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

from qseidel.grassmann import mask_of, normalize_partition, part, size
from qseidel.perms import length


@lru_cache(maxsize=4096)
def oracle_downset(v: tuple[int, ...]) -> frozenset[tuple[int, ...]]:
    """All u <= v, grown by swapping entries whenever the length drops."""
    n = len(v)
    seen = {v}
    frontier = [v]
    while frontier:
        nxt = []
        for x in frontier:
            lx = length(x)
            for a in range(n):
                for b in range(a + 1, n):
                    y = list(x)
                    y[a], y[b] = y[b], y[a]
                    yt = tuple(y)
                    if length(yt) < lx and yt not in seen:
                        seen.add(yt)
                        nxt.append(yt)
        frontier = nxt
    return frozenset(seen)


def oracle_bruhat_leq(u: tuple[int, ...], v: tuple[int, ...]) -> bool:
    return u in oracle_downset(v)


def oracle_rank_leq(u: tuple[int, ...], v: tuple[int, ...]) -> bool:
    """Bruhat order by the rank-matrix criterion: u <= v exactly when
    #{t <= i : u(t) >= j} <= #{t <= i : v(t) >= j} for all i and j
    (Björner-Brenti, "Combinatorics of Coxeter Groups", Ch. 2)."""
    n = len(u)
    return all(
        sum(1 for t in range(i) if u[t] >= j) <= sum(1 for t in range(i) if v[t] >= j)
        for i in range(1, n + 1)
        for j in range(1, n + 1)
    )


def oracle_join(u, v, roots, n):
    """Join by scanning every representative and taking minima naively.

    The minimal representatives are the permutations with x(i) < x(i+1)
    at every root i of the parabolic.
    """
    quotient = [
        x
        for x in itertools.permutations(range(1, n + 1))
        if all(x[i - 1] < x[i] for i in roots)
    ]
    ubs = [x for x in quotient if oracle_bruhat_leq(u, x) and oracle_bruhat_leq(v, x)]
    minima = [
        x for x in ubs if not any(y != x and oracle_bruhat_leq(y, x) for y in ubs)
    ]
    return minima[0] if len(minima) == 1 else None


def is_horizontal_strip(outer, inner) -> bool:
    """Whether outer/inner is a horizontal strip (no two cells stacked):
    outer_r >= inner_r >= outer_{r+1} in every row r."""
    rows = max(len(outer), len(inner))
    return all(
        part(outer, r) >= part(inner, r) >= part(outer, r + 1) for r in range(1, rows + 1)
    )


def oracle_pieri_coeff(lam, mu, nu) -> int:
    """LR coefficient when mu is a single row, straight from Pieri."""
    assert len(mu) <= 1
    if size(lam) + size(mu) != size(nu):
        return 0
    return 1 if is_horizontal_strip(nu, lam) else 0


def cells(shape) -> frozenset[tuple[int, int]]:
    return frozenset(
        (r, c) for r in range(1, len(shape) + 1) for c in range(1, shape[r - 1] + 1)
    )


def is_border_strip(strip: frozenset[tuple[int, int]]) -> bool:
    """Connected skew cell set containing no 2x2 square."""
    if not strip:
        return False
    for r, c in strip:
        if {(r, c + 1), (r + 1, c), (r + 1, c + 1)} <= strip:
            return False
    todo = [next(iter(strip))]
    seen = {todo[0]}
    while todo:
        r, c = todo.pop()
        for nb in ((r - 1, c), (r + 1, c), (r, c - 1), (r, c + 1)):
            if nb in strip and nb not in seen:
                seen.add(nb)
                todo.append(nb)
    return seen == strip


def strip_removals(nu, n):
    """All shapes left after removing one n-cell border strip from nu."""
    out = []
    total = size(nu)
    for xi in sub_partitions(total - n, nu):
        strip = cells(nu) - cells(xi)
        if len(strip) == n and is_border_strip(strip):
            height = len({r for r, _ in strip})
            out.append((xi, height))
    return out


def sub_partitions(total, bound):
    """Partitions of ``total`` contained in the partition ``bound``."""
    def gen(remaining, row, cap):
        if remaining == 0:
            yield ()
            return
        if row > len(bound):
            return
        hi = min(cap, bound[row - 1], remaining)
        for first in range(hi, 0, -1):
            for rest in gen(remaining - first, row + 1, first):
                yield (first,) + rest

    if total < 0:
        return
    yield from gen(total, 1, total if total else 1)


def oracle_reduce(nu, k, n):
    """Literal rim-hook reduction: remove explicit n-cell border strips
    until the shape fits the k x (n-k) box, tracking q-power and signs.

    Returns (shape, d, sign) or None, and asserts every removal order
    agrees (path independence).
    """
    nu = normalize_partition(nu)
    assert len(nu) <= k
    if not nu or (nu[0] <= n - k):
        return (nu, 0, 1)
    outcomes = set()
    for xi, height in strip_removals(nu, n):
        step_sign = -1 if (k - height) % 2 else 1
        deeper = oracle_reduce(xi, k, n)
        if deeper is not None:
            shape, d, sign = deeper
            outcomes.add((shape, d + 1, sign * step_sign))
    if not outcomes:
        return None
    assert len(outcomes) == 1, f"path-dependent reduction for {nu}: {outcomes}"
    return next(iter(outcomes))


def oracle_gamma(fp_b: frozenset[int], fp_bm: frozenset[int], d: int, k: int, n: int) -> frozenset[int]:
    """Neighborhood fixed points from the raw definition: scan every
    (A, B) pair and ask for witnesses in both fixed-point sets."""
    universe = range(1, n + 1)
    out = set()
    ks = [mask_of(c) for c in itertools.combinations(universe, k)]
    for a_t in itertools.combinations(universe, k - d):
        a = mask_of(a_t)
        for b_t in itertools.combinations(universe, k + d):
            b = mask_of(b_t)
            if a & b != a:
                continue
            if not any(a & c1 == a and c1 & b == c1 for c1 in fp_b):
                continue
            if not any(a & c2 == a and c2 & b == c2 for c2 in fp_bm):
                continue
            out.update(c for c in ks if a & c == a and c & b == c)
    return frozenset(out)


def oracle_projection(fps, d: int, k: int, n: int) -> frozenset[tuple[int, int]]:
    """Projected fixed points from the raw definition: every (A, B) with
    |A| = k-d, |B| = k+d and A <= C <= B for some C in ``fps``, found by
    scanning all pairs, with no use of the Gale order."""
    universe = range(1, n + 1)
    out = set()
    for a_t in itertools.combinations(universe, k - d):
        a = mask_of(a_t)
        for b_t in itertools.combinations(universe, k + d):
            b = mask_of(b_t)
            if a & b == a and any(a & c == a and c & b == c for c in fps):
                out.add((a, b))
    return frozenset(out)


def oracle_neighborhood_partition(mu, d: int, k: int) -> tuple[int, ...]:
    """Codimension partition of the degree-d curve neighborhood of X^mu in
    Gr(k, n): mu less its first d rows and d columns, mu_hat_i =
    max(mu_{i+d} - d, 0) (Buch-Kresch-Tamvakis, JAMS 2003; Buch-Mihalcea,
    "Curve neighborhoods of Schubert varieties", J. Differential Geom.
    2015)."""
    return normalize_partition(max(part(mu, i + d) - d, 0) for i in range(1, k - d + 1))


def oracle_rotated_target(u, i: int, k: int, n: int) -> tuple[int, ...]:
    """Partition of the Schubert cell of sigma_i * u in Gr(k, n), read off
    Postnikov's rotation ("Affine approach to quantum Schubert calculus",
    Duke Math. J. 2005): multiplying by the i-th cocharacter class rotates
    the k-subset {u(1), ..., u(k)} by -i mod n.  The rotated set, sorted as
    a_1 < ... < a_k, indexes the partition (a_k - k, ..., a_1 - 1)."""
    a = sorted((u[t] - 1 - i) % n + 1 for t in range(k))
    return normalize_partition(a[t - 1] - t for t in range(k, 0, -1))


def oracle_subset_partition(subset) -> tuple[int, ...]:
    """Partition of a finite set of positive integers: for each member,
    largest first, the number of non-members below it.  These are the row
    lengths of the Young diagram cut off by the lattice path that steps up
    at members and right at non-members."""
    members = set(subset)
    return normalize_partition(
        sum(1 for t in range(1, s) if t not in members) for s in sorted(members, reverse=True)
    )
