import itertools
import math

import pytest

from starktree import partitions
from starktree import (
    DomainError,
    counting_function,
    enumerate_distinct_partitions,
    f_asymptotic,
    q_asymptotic,
    q_distinct,
)

# ---------------------------------------------------------------------------
# independent oracles


def brute_force_distinct_count(n):
    """Count partitions of n into distinct positive parts by direct search."""
    def go(remaining, smallest):
        if remaining == 0:
            return 1
        return sum(go(remaining - p, p + 1)
                   for p in range(smallest, remaining + 1))
    return go(n, 1) if n > 0 else 1


def knapsack_distinct_table(nmax):
    """q(0..nmax) by the 0/1 knapsack over the largest allowed part, O(n^2)."""
    q = [0] * (nmax + 1)
    q[0] = 1
    for part in range(1, nmax + 1):
        for total in range(nmax, part - 1, -1):
            q[total] += q[total - part]
    return q


def brute_force_partition_list(n):
    """Zero-anchored distinct partitions of n from subsets of 1..n, sorted."""
    found = []
    r = 0
    while r * (r + 1) // 2 <= n:  # r distinct parts sum to at least this
        found += [(0,) + c for c in itertools.combinations(range(1, n + 1), r)
                  if sum(c) == n]
        r += 1
    return sorted(found)


def odd_parts_table(nmax):
    """Partitions of 0..nmax into odd parts (repetition allowed), Euler's
    twin of the distinct-part counts."""
    ways = [1] + [0] * nmax
    for part in range(1, nmax + 1, 2):
        for total in range(part, nmax + 1):
            ways[total] += ways[total - part]
    return ways


def odd_parts_count(n):
    return odd_parts_table(n)[n]


# ---------------------------------------------------------------------------
# q_distinct


def test_q_distinct_reference_values():
    assert q_distinct(1) == 1
    assert q_distinct(2) == 1
    assert q_distinct(3) == 2
    # frozen from the brute-force oracle
    assert q_distinct(9) == brute_force_distinct_count(9) == 8
    assert q_distinct(0) == 1


def test_q_distinct_against_brute_force_to_60():
    for n in range(61):
        assert q_distinct(n) == brute_force_distinct_count(n), n


def test_q_distinct_euler_identity_to_100():
    for n in range(101):
        assert q_distinct(n) == odd_parts_count(n), n


def test_q_distinct_frozen_large_value():
    # verified once against the odd-parts oracle, kept as a regression pin
    assert q_distinct(100) == odd_parts_count(100) == 444793


def test_q_table_matches_knapsack_to_1500():
    assert partitions._q_table(1500) == knapsack_distinct_table(1500)


def test_q_table_matches_euler_odd_parts_to_max_n():
    # every table _q_table(n), n <= MAX_N, is a prefix of this one
    assert partitions._q_table(partitions.MAX_N) == odd_parts_table(partitions.MAX_N)


def test_q_distinct_domain():
    with pytest.raises(DomainError):
        q_distinct(-1)
    with pytest.raises(DomainError):
        q_distinct(2.5)
    with pytest.raises(DomainError):
        q_distinct(True)
    with pytest.raises(DomainError):
        q_distinct(5001)


# ---------------------------------------------------------------------------
# enumeration


def test_enumeration_reference_lists():
    assert enumerate_distinct_partitions(1) == [(0, 1)]
    assert enumerate_distinct_partitions(3) == [(0, 1, 2), (0, 3)]
    assert enumerate_distinct_partitions(0) == [(0,)]


def test_enumeration_structure_to_60():
    for n in range(1, 61):
        parts_list = enumerate_distinct_partitions(n)
        assert len(parts_list) == q_distinct(n)
        seen = set()
        for p in parts_list:
            assert p[0] == 0
            assert all(b > a for a, b in zip(p, p[1:]))
            assert sum(p) == n
            seen.add(p)
        assert len(seen) == len(parts_list)


def test_enumeration_is_lexicographic():
    for n in (5, 12, 25):
        parts = enumerate_distinct_partitions(n)
        assert parts == sorted(parts)


def test_enumeration_count_only_to_100():
    for n in range(61, 101, 13):
        assert len(enumerate_distinct_partitions(n)) == q_distinct(n)


def test_enumeration_matches_brute_force_in_order_to_25():
    for n in range(26):
        assert enumerate_distinct_partitions(n) == brute_force_partition_list(n), n


def test_enumeration_cap():
    # q(111) = 1,087,744 is the first count above 2^20
    assert q_distinct(110) <= partitions.MAX_ENUMERATION < q_distinct(111)
    for n in (111, 5000):
        with pytest.raises(DomainError, match="cap"):
            enumerate_distinct_partitions(n)


def test_enumeration_of_exactly_the_cap_is_admitted(monkeypatch):
    monkeypatch.setattr(partitions, "MAX_ENUMERATION", q_distinct(20))
    assert len(enumerate_distinct_partitions(20)) == q_distinct(20)
    with pytest.raises(DomainError, match="cap"):
        enumerate_distinct_partitions(21)


# ---------------------------------------------------------------------------
# counting function


def test_counting_function_reference_values():
    assert counting_function(3.1) == 4
    assert counting_function(0.5) == 0
    assert counting_function(10.0) == 32  # frozen oracle sum of q(1..9)


def test_counting_function_strict_at_integers():
    # pre-jump: the branches born at n are not counted at x = n
    for n in range(1, 13):
        assert counting_function(float(n)) == counting_function(n - 0.5)
        jump = counting_function(n + 0.5) - counting_function(n - 0.5)
        assert jump == q_distinct(n)


def test_counting_function_monotone():
    xs = [0.3, 0.9, 1.0, 1.1, 2.7, 3.0, 5.5, 9.99, 10.0, 11.2, 48.0]
    values = [counting_function(x) for x in xs]
    assert values == sorted(values)


def test_counting_function_domain():
    for bad in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(DomainError):
            counting_function(bad)


# ---------------------------------------------------------------------------
# asymptotics


def test_q_asymptotic_closed_forms():
    assert q_asymptotic(3) == pytest.approx(math.exp(math.pi) / 12.0, rel=1e-14)
    expected_1 = math.exp(math.pi / math.sqrt(3.0)) / (4.0 * 3.0 ** 0.25)
    assert q_asymptotic(1) == pytest.approx(expected_1, rel=1e-14)


def test_f_asymptotic_closed_forms():
    assert f_asymptotic(3) == pytest.approx(math.exp(math.pi) / (2.0 * math.pi),
                                            rel=1e-14)
    expected_12 = math.exp(2.0 * math.pi) / (2.0 * math.pi * math.sqrt(2.0))
    assert f_asymptotic(12) == pytest.approx(expected_12, rel=1e-14)


def test_q_asymptotic_accuracy_at_100():
    assert q_asymptotic(100) == pytest.approx(q_distinct(100), rel=0.10)


def test_f_asymptotic_accuracy_at_48():
    assert f_asymptotic(48) / counting_function(48) == pytest.approx(1.0, abs=0.25)


def test_asymptotic_ratio_approaches_one():
    r100 = q_distinct(100) / q_asymptotic(100)
    r400 = q_distinct(400) / q_asymptotic(400)
    assert abs(r400 - 1.0) < abs(r100 - 1.0)


def test_asymptotic_domain():
    for fn in (q_asymptotic, f_asymptotic):
        with pytest.raises(DomainError):
            fn(0)
        with pytest.raises(DomainError):
            fn(-3)


def test_asymptotic_upper_bound():
    bound = partitions.MAX_ASYMPTOTIC_N
    # the bound is the last n before exp(pi sqrt(n/3)) overflows
    math.exp(math.pi * math.sqrt(bound / 3.0))
    with pytest.raises(OverflowError):
        math.exp(math.pi * math.sqrt((bound + 1) / 3.0))
    for fn in (q_asymptotic, f_asymptotic):
        assert math.isfinite(fn(bound))
        for too_large in (bound + 1, 160_000, 10 ** 6, 10 ** 400):
            with pytest.raises(DomainError):
                fn(too_large)
