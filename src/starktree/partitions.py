"""Distinct-part integer partitions behind the branch-counting function.

Every multi-site stationary branch of the tilted lattice is born when nu/f
crosses a positive integer n, and the number born at n is Q(n), the number
of ways to write n as a sum of distinct positive integers.  This module
provides the exact counts, from the recurrence that Gauss's identity and
Euler's pentagonal theorem give (O(n^1.5) exact integer work), the explicit
partition lists in the zero-anchored set form used by the solution-set
enumeration, capped at MAX_ENUMERATION entries, and the classical
exponential asymptotics of Q and of its running sum F.
"""

from __future__ import annotations

import math

from .errors import DomainError, check_int, check_real

__all__ = ["counting_function", "enumerate_distinct_partitions",
           "f_asymptotic", "q_asymptotic", "q_distinct"]

# The exact counts cost O(n^1.5) integer additions, but counts this deep are
# astronomically beyond anything the bifurcation analysis can use, so cap.
MAX_N = 5000

# Most partitions or solution sets one enumeration may return; larger lists
# are refused from their exact count, before any entry is built.
MAX_ENUMERATION = 1 << 20

# Largest argument of the asymptotics: exp(pi sqrt(n/3)) is finite in IEEE
# double precision up to here and overflows from the next integer on.
MAX_ASYMPTOTIC_N = 153134


def _q_table(nmax: int) -> list[int]:
    """q[m] for m = 0..nmax: partitions of m into distinct positive parts.

    Multiplying prod(1 + x^k) by the theta series 1 + 2 sum_k (-1)^k x^(k^2)
    gives Euler's pentagonal series (Gauss), so
    q(m) = e(m) + 2 sum_{k >= 1, k^2 <= m} (-1)^(k+1) q(m - k^2), where
    e(m) = (-1)^j at the generalized pentagonal numbers m = j(3j-1)/2 and 0
    elsewhere.  The alternating terms are added in pairs,
    q(m - k^2) - q(m - (k+1)^2) for odd k, with a lone last odd term where
    (k+1)^2 > m, and the sum is doubled once per m, so no term is
    multiplied by its sign.  Exact integers, O(nmax^1.5).  Built per call
    so concurrent callers never share mutable state.
    """
    q = [0] * (nmax + 1)
    # e(m), with j and -j visited together
    j = 0
    while j * (3 * j - 1) // 2 <= nmax:
        sign = -1 if j % 2 else 1
        q[j * (3 * j - 1) // 2] = sign
        if j * (3 * j + 1) // 2 <= nmax:
            q[j * (3 * j + 1) // 2] = sign
        j += 1
    # (k^2, (k+1)^2) for odd k, up to the first pair reaching past nmax
    squares = [k * k for k in range(1, math.isqrt(nmax) + 3)]
    pairs = list(zip(squares[::2], squares[1::2]))
    for m in range(1, nmax + 1):
        acc = 0
        for odd, even in pairs:
            if even > m:
                if odd <= m:
                    acc += q[m - odd]
                break
            acc += q[m - odd] - q[m - even]
        q[m] += 2 * acc
    return q


def q_distinct(n) -> int:
    """Number of partitions of n into distinct positive parts; q_distinct(0) = 1."""
    n = check_int(n, "partition size", 0, MAX_N)
    return _q_table(n)[n]


def enumerate_distinct_partitions(n) -> list[tuple[int, ...]]:
    """All zero-anchored distinct partitions with the given sum.

    Each is a strictly increasing tuple that starts at 0, returned in
    lexicographic order, so for n = 3 the list is [(0, 1, 2), (0, 3)].
    Length equals q_distinct(n); an n with more than MAX_ENUMERATION
    partitions is refused before any is built.
    """
    n = check_int(n, "partition size", 0, MAX_N)
    count = _q_table(n)[n]
    if count > MAX_ENUMERATION:
        raise DomainError(
            f"partition size {n} has {count} distinct partitions, above the "
            f"enumeration cap of {MAX_ENUMERATION}"
        )
    if n == 0:
        return [(0,)]
    out: list[tuple[int, ...]] = []

    def extend(parts: tuple[int, ...], remaining: int, smallest: int):
        # a part followed by more parts leaves remaining - part >= part + 1,
        # so parts up to (remaining - 1) // 2 lead on; from `leaves` on, too
        # little is left for two more, and each ends in one two-part leaf
        leaves = max(smallest, (remaining - 3) // 3 + 1)
        for part in range(smallest, leaves):
            extend(parts + (part,), remaining - part, part + 1)
        out.extend([parts + (part, remaining - part)
                    for part in range(leaves, (remaining - 1) // 2 + 1)])
        # the lone last part, remaining >= smallest, sorts after all of them
        out.append(parts + (remaining,))

    extend((0,), n, 1)
    return out


def counting_function(x) -> int:
    """Running branch count F(x) = sum of q_distinct(n) over integers 0 < n < x.

    Strictly below x: at integer x the branches born there are not yet
    counted (pre-jump convention).  The lone zero-hopping ladder state is
    not included; callers wanting the total branch count add 1.
    """
    x = check_real(x, "ratio", above=0)
    top = math.ceil(x) - 1
    if top <= 0:
        return 0
    if top > MAX_N:
        raise DomainError(f"ratio {x} exceeds supported counting range ({MAX_N})")
    q = _q_table(top)
    return sum(q[1:])


def q_asymptotic(n) -> float:
    """Exponential asymptotic of q_distinct: exp(pi sqrt(n/3)) / (4 3^(1/4) n^(3/4))."""
    n = check_int(n, "asymptotic argument", 1, MAX_ASYMPTOTIC_N)
    return math.exp(math.pi * math.sqrt(n / 3.0)) / (4.0 * 3.0 ** 0.25 * n ** 0.75)


def f_asymptotic(n) -> float:
    """Exponential asymptotic of the running sum: exp(pi sqrt(n/3)) / (2 pi (n/3)^(1/4))."""
    n = check_int(n, "asymptotic argument", 1, MAX_ASYMPTOTIC_N)
    return math.exp(math.pi * math.sqrt(n / 3.0)) / (2.0 * math.pi * (n / 3.0) ** 0.25)
