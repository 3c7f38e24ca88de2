"""Distinct-part integer partitions behind the branch-counting function.

Every multi-site stationary branch of the tilted lattice is born when nu/f
crosses a positive integer n, and the number born at n is Q(n), the number
of ways to write n as a sum of distinct positive integers.  This module
provides the exact counts, the explicit partition lists in the zero-anchored
set form used by the solution-set enumeration, and the classical exponential
asymptotics of Q and of its running sum F.
"""

from __future__ import annotations

import math

from .errors import DomainError, check_int, check_real

# Exact DP is quadratic in n; counts this deep are astronomically beyond
# anything the bifurcation analysis can use, so cap rather than crawl.
MAX_N = 5000


def _q_table(nmax: int) -> list[int]:
    """q[m] for m = 0..nmax: partitions of m into distinct positive parts.

    0/1-knapsack DP over the largest allowed part, exact integers.  Built
    per call so concurrent callers never share mutable state.
    """
    q = [0] * (nmax + 1)
    q[0] = 1
    for part in range(1, nmax + 1):
        for total in range(nmax, part - 1, -1):
            q[total] += q[total - part]
    return q


def q_distinct(n) -> int:
    """Number of partitions of n into distinct positive parts; q_distinct(0) = 1."""
    n = check_int(n, "partition size", 0, MAX_N)
    return _q_table(n)[n]


def enumerate_distinct_partitions(n) -> list[tuple[int, ...]]:
    """All zero-anchored distinct partitions with the given sum.

    Each is a strictly increasing tuple that starts at 0, returned in
    lexicographic order, so for n = 3 the list is [(0, 1, 2), (0, 3)].
    Length equals q_distinct(n).
    """
    n = check_int(n, "partition size", 0, MAX_N)
    out: list[tuple[int, ...]] = []

    def extend(parts: tuple[int, ...], remaining: int, smallest: int):
        if remaining == 0:
            out.append(parts)
            return
        for part in range(smallest, remaining + 1):
            extend(parts + (part,), remaining - part, part + 1)

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
    n = check_int(n, "asymptotic argument", 1)
    return math.exp(math.pi * math.sqrt(n / 3.0)) / (4.0 * 3.0 ** 0.25 * n ** 0.75)


def f_asymptotic(n) -> float:
    """Exponential asymptotic of the running sum: exp(pi sqrt(n/3)) / (2 pi (n/3)^(1/4))."""
    n = check_int(n, "asymptotic argument", 1)
    return math.exp(math.pi * math.sqrt(n / 3.0)) / (2.0 * math.pi * (n / 3.0) ** 0.25)
