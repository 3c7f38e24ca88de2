import copy
import itertools
import math
import pickle
import re
from collections import Counter

import numpy as np
import pytest

from starktree import anticontinuum
from starktree import (
    ConfigurationError,
    DomainError,
    InadmissibleSetError,
    LatticeParams,
    SolutionSet,
    admissible,
    bifurcation_tree,
    birth_threshold,
    build_state,
    complementary_set,
    consecutive_threshold,
    counting_function,
    dnls_residual,
    energy_of_set,
    enumerate_distinct_partitions,
    enumerate_solution_sets,
    q_distinct,
)

# ---------------------------------------------------------------------------
# independent oracle: exhaustive subset search with the energy-form test
# mu/f = x/N + sum(S)/N > max S, never touching the threshold-form code path


def brute_force_sets(x, site_max=None):
    if site_max is None:
        site_max = math.ceil(x) + 1
    found = []
    pool = range(1, site_max + 1)
    for r in range(site_max + 1):
        for combo in itertools.combinations(pool, r):
            sites = (0,) + combo
            n = len(sites)
            if x / n + sum(sites) / n > max(sites):
                found.append(sites)
    return sorted(found)


# ---------------------------------------------------------------------------
# types


def test_solution_set_sorts_and_validates():
    s = SolutionSet((3, 0, 1))
    assert s.sites == (0, 1, 3)
    assert len(s) == 3
    assert not hasattr(s, "cardinality")  # len(s) is the set's size
    assert s.sites[0] == 0
    assert SolutionSet((2, 5)).sites[0] != 0
    assert [type(site) for site in SolutionSet((np.int64(2), 0)).sites] == [
        int, int]
    for sites, message in (
            ((), "a solution set needs at least one site"),
            ((0, 1, 1), "duplicate sites in (0, 1, 1)"),
            ((0, 1.0), "site index must be an integer, got 1.0"),
            ((0, True), "site index must be an integer, got True")):
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            SolutionSet(sites)


def test_solution_set_is_the_sorted_tuple_of_its_sites():
    s = SolutionSet((3, 0, 1))
    assert isinstance(s, tuple)
    assert s == (0, 1, 3)
    assert hash(s) == hash((0, 1, 3))
    assert repr(s) == "SolutionSet(sites=(0, 1, 3))"
    assert type(s.sites) is tuple
    with pytest.raises(AttributeError):
        s.sites_copy = (0, 1, 3)
    for twin in (copy.copy(s), copy.deepcopy(s), pickle.loads(pickle.dumps(s))):
        assert type(twin) is SolutionSet
        assert twin == s


def test_lattice_params_validation():
    with pytest.raises(DomainError):
        LatticeParams(nu=0.0, f=1.0)
    with pytest.raises(DomainError):
        LatticeParams(nu=1.0, f=-1.0)
    with pytest.raises(DomainError):
        LatticeParams(nu=1.0, f=1.0, beta=-0.1)
    with pytest.raises(ConfigurationError):
        LatticeParams(nu=1.0, f=1.0, window=(3, 3))
    p = LatticeParams.for_set(SolutionSet((0, 2)), nu=3.0, f=1.0)
    assert p.window == (-5, 7)
    assert p.ratio == 3.0
    # np.arange(lo, hi + 1) is int64 up to hi = 2**63 - 2; at 2**63 - 1 it
    # turns float64, and past int64 it holds Python ints
    for window in ((-2 ** 63, -2 ** 63 + 12), (2 ** 63 - 14, 2 ** 63 - 2)):
        sites = LatticeParams(nu=1.0, f=1.0, window=window).window_sites
        assert sites.dtype == np.int64
        assert sites.tolist() == list(range(window[0], window[1] + 1))
    for window in ((-2 ** 63 - 1, -2 ** 63 + 11), (2 ** 63 - 13, 2 ** 63 - 1),
                   (10 ** 20, 10 ** 20 + 12)):
        with pytest.raises(DomainError, match="window bound"):
            LatticeParams(nu=1.0, f=1.0, window=window)
    # the operator scale nu + 4 beta + f max(|lo|, |hi|) must be finite
    edge = (2 ** 63 - 14, 2 ** 63 - 2)
    for accepted, refused in (
            ({"nu": 1.5e307, "f": 1e307, "window": (-5, 6)},
             {"nu": 1.5e308, "f": 1e308, "window": (-5, 6)}),
            ({"nu": 1.0, "f": 1.0, "beta": 1e307},
             {"nu": 1.0, "f": 1.0, "beta": 1e308}),
            ({"nu": 1.0, "f": 1e289, "window": edge},
             {"nu": 1.0, "f": 1e290, "window": edge})):
        LatticeParams(**accepted)
        with pytest.raises(DomainError, match="operator scale"):
            LatticeParams(**refused)
    # so must nu/f and 4 beta/f, which overflow where the scale does not
    for accepted, refused, name in (
            ({"nu": 1e300, "f": 1e-7}, {"nu": 1e300, "f": 1e-300}, "nu/f"),
            ({"nu": 1.0, "f": 1e-7, "beta": 1e300},
             {"nu": 1.0, "f": 1e-300, "beta": 1e300}, "4 beta/f")):
        LatticeParams(**accepted)
        with pytest.raises(DomainError, match=f"^ratio {name} must be a "
                                              "finite real number, got inf$"):
            LatticeParams(**refused)


# ---------------------------------------------------------------------------
# complementary set / admissibility / energy


def test_complementary_set_examples():
    assert complementary_set(SolutionSet((0, 1, 3))).sites == (0, 2, 3)
    assert complementary_set(SolutionSet((0,))).sites == (0,)
    assert complementary_set(SolutionSet((0, 2))).sites == (0, 2)


def test_complementary_set_is_involution_and_translation_invariant():
    rng = np.random.default_rng(11)
    for _ in range(50):
        sites = tuple(sorted(rng.choice(20, size=rng.integers(1, 6),
                                        replace=False).tolist()))
        s = SolutionSet(sites)
        comp = complementary_set(s)
        assert 0 in comp
        assert len(comp) == len(s)
        if s.sites[0] == 0:
            assert complementary_set(comp) == s
        moved = SolutionSet(tuple(site + 7 for site in sites))
        assert birth_threshold(s) == birth_threshold(moved)


def test_admissible_examples():
    s01 = SolutionSet((0, 1))
    assert admissible(s01, 1.5)
    assert not admissible(s01, 1.0)  # strict at the threshold
    s0123 = SolutionSet((0, 1, 2, 3))
    assert not admissible(s0123, 5.9)
    assert admissible(s0123, 6.1)


def test_dual_admissibility_forms_agree():
    # threshold form vs energy form mu/f > max S on a random grid
    rng = np.random.default_rng(23)
    for _ in range(300):
        sites = tuple(sorted(rng.choice(12, size=rng.integers(1, 5),
                                        replace=False).tolist()))
        s = SolutionSet(sites)
        x = float(rng.uniform(0.05, 14.0))
        energy_form = energy_of_set(s, x, 1.0) > max(s.sites)
        assert admissible(s, x) == energy_form


def test_energy_of_set_examples():
    assert energy_of_set(SolutionSet((0,)), 2.0, 1.0) == 2.0
    nu, f, l1 = 1.7, 0.6, 3
    assert energy_of_set(SolutionSet((0, l1)), nu, f) == pytest.approx(
        nu / 2 + f * l1 / 2, rel=1e-15)
    assert energy_of_set(SolutionSet((0, 1, 2)), 3.0, 1.0) == 2.0


def test_consecutive_threshold():
    assert consecutive_threshold(2) == 1
    assert consecutive_threshold(1) == 0
    assert consecutive_threshold(5) == 10
    for n in range(2, 9):
        assert consecutive_threshold(n) == birth_threshold(
            SolutionSet(tuple(range(n))))
    with pytest.raises(DomainError):
        consecutive_threshold(0)


# ---------------------------------------------------------------------------
# build_state


def test_build_singleton():
    p = LatticeParams.for_set(SolutionSet((0,)), nu=2.0, f=1.0)
    st = build_state(SolutionSet((0,)), p)
    assert st.coefficient_at(0) == 1.0
    assert st.mu == 2.0
    assert np.count_nonzero(st.coefficients) == 1
    with pytest.raises(ConfigurationError, match="outside window"):
        st.coefficient_at(6)


def test_build_two_mode_reference_amplitudes():
    p = LatticeParams.for_set(SolutionSet((0, 1)), nu=1.5, f=1.0)
    st = build_state(SolutionSet((0, 1)), p)
    assert st.coefficient_at(0) == pytest.approx(math.sqrt(5.0 / 6.0), rel=1e-15)
    assert st.coefficient_at(1) == pytest.approx(math.sqrt(1.0 / 6.0), rel=1e-15)
    assert st.mu == pytest.approx(1.25, rel=1e-15)


def test_build_inadmissible_reports_threshold():
    p = LatticeParams.for_set(SolutionSet((0, 2)), nu=2.0, f=1.0)
    with pytest.raises(InadmissibleSetError) as err:
        build_state(SolutionSet((0, 2)), p)
    assert err.value.threshold == 2


def test_build_window_margin_enforced():
    p = LatticeParams(nu=3.0, f=1.0, window=(0, 3))
    with pytest.raises(ConfigurationError):
        build_state(SolutionSet((0, 2)), p)


def test_build_normalization_and_residual_everywhere():
    rng = np.random.default_rng(5)
    for _ in range(60):
        x = float(rng.uniform(0.2, 11.0))
        sets = enumerate_solution_sets(x)
        s = sets[rng.integers(len(sets))]
        p = LatticeParams.for_set(s, nu=x * 0.7, f=0.7)
        st = build_state(s, p)
        assert abs(np.sum(st.coefficients ** 2) - 1.0) < 1e-12
        assert np.max(np.abs(dnls_residual(st))) < 1e-12


def test_sign_degeneracy():
    s = SolutionSet((0, 1, 2))
    p = LatticeParams.for_set(s, nu=4.0, f=1.0)
    reference = build_state(s, p)
    for signs in itertools.product((1, -1), repeat=3):
        st = build_state(s, p, signs=signs)
        assert st.mu == reference.mu
        assert np.max(np.abs(dnls_residual(st))) < 1e-12
        assert np.allclose(np.abs(st.coefficients),
                           np.abs(reference.coefficients), atol=1e-15)


def test_sign_strings_accepted():
    s = SolutionSet((0, 1))
    p = LatticeParams.for_set(s, nu=1.5, f=1.0)
    st = build_state(s, p, signs="+-")
    assert st.coefficient_at(1) < 0
    with pytest.raises(DomainError):
        build_state(s, p, signs="+")
    with pytest.raises(DomainError):
        build_state(s, p, signs="+x")


def test_signs_that_are_not_plus_minus_one_are_refused():
    s = SolutionSet((0, 1))
    p = LatticeParams.for_set(s, nu=1.5, f=1.0)
    with pytest.raises(DomainError, match="must be \\+-1"):
        build_state(s, p, signs=(1, 0))
    with pytest.raises(DomainError, match="sequence"):
        build_state(s, p, signs=5)


# ---------------------------------------------------------------------------
# the ladder shift: a state on rung j is build_state of the moved set on
# params.shifted(j)


def test_translate_examples():
    s = SolutionSet((0,))
    p = LatticeParams(nu=2.0, f=1.0, window=(-5, 8))
    st = build_state(s, p)
    shifted = build_state(SolutionSet((3,)), p.shifted(3))
    assert shifted.set.sites == (3,)
    assert shifted.params.window == (-2, 11)
    assert shifted.mu == st.mu + 3.0
    assert shifted.coefficient_at(3) == 1.0
    assert np.array_equal(shifted.coefficients, st.coefficients)
    # identity and group property
    assert np.array_equal(build_state(s, p.shifted(0)).coefficients,
                          st.coefficients)
    back = build_state(s, p.shifted(-1).shifted(1))
    assert np.array_equal(back.coefficients, st.coefficients)
    assert back.mu == st.mu


def test_translate_refuses_a_shift_beyond_int64_or_not_an_integer():
    p = LatticeParams(nu=2.0, f=1.0, window=(-3, 3))
    with pytest.raises(DomainError, match="window bound"):
        p.shifted(2 ** 63)
    for j in (1.0, 0.5, True):
        with pytest.raises(DomainError, match="translation must be an integer"):
            p.shifted(j)


# one ulp above the threshold x = nu/f, (mu - f l)/nu of the top site
# rounds below zero at these f, though not at f = 1
@pytest.mark.parametrize("sites, f", [((0, 7, 8, 9), 0.7), ((0, 5, 9), 1.3),
                                      ((0, 4, 5, 6, 7), 0.3)])
def test_build_just_above_the_threshold_beyond_double_precision(sites, f):
    s = SolutionSet(sites)
    x = math.nextafter(float(anticontinuum.birth_threshold(s)), math.inf)
    p = LatticeParams.for_set(s, nu=x * f, f=f)
    assert p.ratio > anticontinuum.birth_threshold(s)
    with pytest.raises(DomainError, match="beyond double precision"):
        build_state(s, p)


def test_translate_beyond_double_precision_raises():
    # mu grows to 4e4 on the far rung, where round-off alone leaves a
    # residual above the 1e-12 tolerance
    p = LatticeParams(nu=15.0, f=10.0, window=(-5, 4000))
    build_state(SolutionSet((0, 1)), p)  # passes on rung 0
    with pytest.raises(DomainError, match="double precision"):
        build_state(SolutionSet((3990, 3991)), p.shifted(3990))


# ---------------------------------------------------------------------------
# enumeration of solution sets


def test_enumerate_reference_lists():
    assert [s.sites for s in enumerate_solution_sets(3.1)] == [
        (0,), (0, 1), (0, 2), (0, 3), (0, 1, 2)]
    assert [s.sites for s in enumerate_solution_sets(0.5)] == [(0,)]
    assert len(enumerate_solution_sets(10.0 - 1e-12)) == 33


def test_enumerate_matches_brute_force():
    rng = np.random.default_rng(17)
    for _ in range(25):
        x = float(rng.uniform(0.1, 12.0))
        mine = sorted(s.sites for s in enumerate_solution_sets(x))
        assert mine == brute_force_sets(x)


def test_enumerate_count_is_f_plus_one():
    for x in (0.5, 1.5, 3.1, 6.0, 9.2, 11.7):
        assert len(enumerate_solution_sets(x)) == counting_function(x) + 1


def test_enumerated_sets_of_the_enum_slice_equal_validated_ones():
    # the enumerator builds its sets without SolutionSet's checks; these
    # are the 35,680 of the benchmark's enum slice
    sets = enumerate_solution_sets(52)
    assert len(sets) == counting_function(52) + 1 == 35680
    for s in sets:
        assert s == SolutionSet(s.sites)
        assert hash(s) == hash(SolutionSet(s.sites))
        assert type(s.sites) is tuple
        assert all(type(site) is int for site in s.sites)
        assert min(s.sites) == 0
    keys = [(birth_threshold(s), len(s.sites), s.sites) for s in sets]
    assert keys == sorted(keys)


def test_set_table_is_a_read_only_sequence_of_solution_sets():
    sets = enumerate_solution_sets(12)
    assert isinstance(sets, anticontinuum.SetTable)
    listed = list(sets)
    assert len(sets) == len(listed) == counting_function(12) + 1
    assert all(type(s) is SolutionSet for s in listed)
    # each entry is made again on each read, equal to the one listed
    for i in (0, 7, len(sets) - 1, -1, -len(sets), np.int64(5), np.intp(-2)):
        assert sets[i] == listed[i]
        assert type(sets[i]) is SolutionSet
    assert sets[3:9] == listed[3:9]
    assert sets[::-5] == listed[::-5]
    for i in (len(sets), -len(sets) - 1, np.int64(len(sets))):
        with pytest.raises(IndexError):
            sets[i]
    with pytest.raises(TypeError):
        sets[1.0]
    assert listed.index(SolutionSet((0, 2, 4))) == sets.index((0, 2, 4))
    assert (0, 1, 5) in sets and (0, 1, 12) not in sets
    assert list(reversed(sets)) == listed[::-1]
    with pytest.raises(TypeError):
        sets[0] = SolutionSet((0,))


@pytest.mark.parametrize("x", [0.5, 3.1, 12, 52])
def test_set_table_arrays_hold_each_threshold_by_size(x):
    # site_arrays[n]: one read-only (count, N) int64 array per cardinality
    # N, in ascending N, of ascending rows from 0, in lexicographic order
    sets = enumerate_solution_sets(x)
    assert len(sets.site_arrays) == math.ceil(x)
    listed = iter(sets)
    for n, arrays in enumerate(sets.site_arrays):
        widths = [array.shape[1] for array in arrays]
        assert widths == sorted(set(widths))
        assert sum(map(len, arrays)) == q_distinct(n)
        for array in arrays:
            assert array.dtype == np.int64 and array.ndim == 2
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0, 0] = 1
            rows = array.tolist()
            assert rows == sorted(rows)
            for row in rows:
                assert row[0] == 0
                assert all(a < b for a, b in zip(row, row[1:]))
                assert birth_threshold(row) == n
                assert next(listed).sites == tuple(row)
    assert next(listed, None) is None


def test_enumeration_calls_the_partitions_once_per_threshold(monkeypatch):
    # the benchmark's tracer wraps enumerate_distinct_partitions in the
    # anticontinuum namespace and counts its lists as `parts`, which must
    # equal the 35,680 sets of the enum slice
    calls = []
    real = anticontinuum.enumerate_distinct_partitions

    def spy(n):
        out = real(n)
        calls.append((n, len(out)))
        return out

    monkeypatch.setattr(anticontinuum, "enumerate_distinct_partitions", spy)
    sets = enumerate_solution_sets(52)
    assert [n for n, _ in calls] == list(range(52))
    assert sum(size for _, size in calls) == len(sets) == 35680


def test_enumeration_order_is_the_sorted_then_stable_by_length_order():
    # the order the enumerator made by two sorts of each threshold's
    # reflected partitions: sorted, then stably by cardinality
    def reference(x):
        sets = []
        for n in range(math.ceil(x)):
            batch = [tuple(parts[-1] - p for p in reversed(parts))
                     for parts in enumerate_distinct_partitions(n)]
            batch.sort()
            batch.sort(key=len)
            sets += batch
        return sets

    for x in [k / 2 for k in range(1, 61)] + [52]:
        sites = [s.sites for s in enumerate_solution_sets(x)]
        assert sites == reference(x)
        assert all(type(t) is tuple and all(type(site) is int for site in t)
                   for t in sites)
    assert len(sites) == 35680


def test_enumerate_all_admissible_and_canonical():
    for s in enumerate_solution_sets(9.5):
        assert s.sites[0] == 0
        assert admissible(s, 9.5)


def test_enumerate_refused_above_the_cap(monkeypatch):
    def partitions_must_not_run(*args, **kwargs):
        raise AssertionError("an over-cap enumeration reached the partitions")

    monkeypatch.setattr(anticontinuum, "enumerate_distinct_partitions",
                        partitions_must_not_run)
    # F(124) + 1 = 35,998,808 sets
    with pytest.raises(DomainError, match="cap"):
        enumerate_solution_sets(124)


def test_enumerate_of_exactly_the_cap_is_admitted(monkeypatch):
    monkeypatch.setattr(anticontinuum, "MAX_ENUMERATION", counting_function(10) + 1)
    assert len(enumerate_solution_sets(10.0)) == counting_function(10) + 1
    with pytest.raises(DomainError, match="cap"):
        enumerate_solution_sets(10.5)


# ---------------------------------------------------------------------------
# bifurcation tree


def test_tree_branch_count_and_births():
    tree = bifurcation_tree(0.0, 10.0, samples=1001)
    assert len(tree.branches) == 33
    births = Counter(b.birth for b in tree.branches)
    assert births[0] == 1
    for n in range(1, 10):
        assert births[n] == q_distinct(n)


def test_tree_singleton_is_identity_line():
    tree = bifurcation_tree(0.0, 10.0, samples=101)
    singleton = next(b for b in tree.branches if b.set.sites == (0,))
    assert singleton.birth == 0
    assert np.array_equal(singleton.mu_over_f, singleton.xs)


def test_tree_two_mode_line():
    tree = bifurcation_tree(0.0, 10.0, samples=101)
    pair = next(b for b in tree.branches if b.set.sites == (0, 1))
    assert pair.birth == 1
    assert np.all(pair.xs > 1.0)
    assert np.array_equal(pair.mu_over_f, pair.xs / 2 + 0.5)


def test_tree_samples_strictly_above_birth_and_exact_energies():
    tree = bifurcation_tree(0.5, 8.5, samples=257)
    assert any(float(n) in tree.x_grid for n in range(1, 9))
    for branch in tree.branches:
        assert branch.birth == birth_threshold(branch.set)
        assert np.all(branch.xs > branch.birth)
        n = len(branch.set)
        expected = branch.xs / n + sum(branch.set.sites) / n
        assert np.array_equal(branch.mu_over_f, expected)


@pytest.mark.parametrize("samples", [1024, 1000, 7])
def test_tree_energies_per_threshold_block_are_exact(samples):
    tree = bifurcation_tree(0.0, 20.0, samples=samples)
    assert len(tree.branches) == counting_function(20) + 1
    assert len(tree.blocks) == len(tree.curves) == 20
    rows = tree.rows
    # one row per distinct (N, sum S) in the whole tree
    keys = {(len(b.set), sum(b.set.sites)) for b in tree.branches}
    assert len(rows) == len(keys)
    start = offset = 0
    for n, (block, curve) in enumerate(zip(tree.blocks, tree.curves)):
        assert len(curve) == q_distinct(n)
        born = tree.branches[start:start + len(curve)]
        # block n holds the curves first seen at threshold n, sampled from
        # its first grid point and numbered on from the blocks before
        assert block.shape[1] == born[0].xs.size
        assert set(curve[curve >= offset].tolist()) == set(
            range(offset, offset + len(block)))
        offset += len(block)
        for branch, row in zip(born, curve):
            assert branch.birth == n
            m = len(branch.set)
            expected = branch.xs / m + sum(branch.set.sites) / m
            assert np.array_equal(branch.mu_over_f, expected)
            # the suffix of the curve's row from the branch's first point;
            # the row starts no later and, as every row, ends at the grid's
            # last point
            values = rows[row]
            assert np.shares_memory(branch.mu_over_f, values)
            assert np.array_equal(branch.mu_over_f,
                                  values[values.size - branch.xs.size:])
            assert values.size >= branch.xs.size
        start += len(curve)
    assert start == len(tree.branches)


@pytest.mark.parametrize("x_min, x_max, samples, branches, curves", [
    (0.0, 30.0, 1001, 1739, 317), (0.0, 24.0, 1001, 640, 195),
    (51.0, 52.0, 2, 35680, 1033),
])
def test_branches_on_one_curve_share_one_block_row(x_min, x_max, samples,
                                                   branches, curves):
    # mu/f = x/N + sum(S)/N: the branches with equal N and sum S share one
    # row of the whole tree, whatever their threshold, each reading the
    # suffix from its own first grid point, bit-identical to its own
    # xs / N + sum(S) / N; the branches of one threshold on one curve share
    # one view
    tree = bifurcation_tree(x_min, x_max, samples=samples)
    rows = tree.rows
    keys = {}  # (N, sum S) -> its row
    start = 0
    for curve in tree.curves:
        views = {}
        for b, row in zip(tree.branches[start:start + len(curve)],
                          curve.tolist()):
            n, total = key = (len(b.set), sum(b.set.sites))
            assert keys.setdefault(key, row) == row
            assert b.mu_over_f.tobytes() == (b.xs / n + total / n).tobytes()
            assert np.shares_memory(b.mu_over_f, rows[row])
            assert views.setdefault(row, b.mu_over_f) is b.mu_over_f
        start += len(curve)
    # distinct keys get distinct rows, numbered in order of first
    # appearance, and every row has a branch
    assert list(keys.values()) == list(range(len(rows)))
    assert (len(tree.branches), len(rows)) == (branches, curves)
    # equal N and sum S, born at 6 and at 9: one row, first seen at 6
    pair = [b for b in tree.branches if b.set.sites in ((0, 2, 4), (0, 1, 5))]
    assert [b.birth for b in pair] == [6, 9]
    assert np.shares_memory(pair[0].mu_over_f, pair[1].mu_over_f)


def test_tree_branches_are_views_of_a_read_only_grid():
    tree = bifurcation_tree(0.5, 8.5, samples=257)
    assert not tree.x_grid.flags.writeable
    with pytest.raises(ValueError):
        tree.x_grid[0] = 1.0
    firsts = []
    for branch in tree.branches:
        assert np.shares_memory(branch.xs, tree.x_grid)
        first = tree.x_grid.size - branch.xs.size
        assert np.array_equal(branch.xs, tree.x_grid[first:])
        firsts.append(first)
    # branches come in threshold order: live ones form a prefix at every x
    assert firsts == sorted(firsts)


def test_tree_consecutive_family_births():
    # range past 10 so the five-mode branch (born exactly at 10) exists
    tree = bifurcation_tree(0.0, 10.5, samples=101)
    for n_modes, birth in ((2, 1), (3, 3), (4, 6), (5, 10)):
        branch = next(b for b in tree.branches
                      if b.set.sites == tuple(range(n_modes)))
        assert branch.birth == birth


def test_tree_ladder_energies_densify():
    # more distinct mu/f values (mod 1) among live branches at 9.5 than at 2.5
    tree = bifurcation_tree(0.0, 10.0, samples=1001)

    def distinct_mod_f(x):
        values = set()
        for b in tree.branches:
            if x > b.birth:
                n = len(b.set)
                values.add(round((x / n + sum(b.set.sites) / n) % 1.0, 9))
        return len(values)

    assert distinct_mod_f(9.5) > distinct_mod_f(2.5)


def test_tree_domain():
    with pytest.raises(DomainError):
        bifurcation_tree(2.0, 1.0)
    with pytest.raises(DomainError):
        bifurcation_tree(-1.0, 4.0)
    with pytest.raises(DomainError):
        bifurcation_tree(0.0, 4.0, samples=1)


@pytest.mark.parametrize("x_min, x_max, samples", [
    (0.0, 12.0, 101), (0.5, 7.3, 97), (3.0, 9.0, 2), (51.0, 52.0, 2),
])
def test_tree_sample_count_is_exact(monkeypatch, x_min, x_max, samples):
    # sum over thresholds n of q(n) times the grid points above n
    tree = bifurcation_tree(x_min, x_max, samples=samples)
    total = sum(b.xs.size for b in tree.branches)
    assert total == sum(q_distinct(n) * int(np.count_nonzero(tree.x_grid > n))
                        for n in range(math.ceil(x_max)))
    # the cap admits a tree of exactly its size and refuses one sample less
    monkeypatch.setattr(anticontinuum, "MAX_TREE_SAMPLES", total)
    bifurcation_tree(x_min, x_max, samples=samples)
    monkeypatch.setattr(anticontinuum, "MAX_TREE_SAMPLES", total - 1)
    with pytest.raises(DomainError, match="cap"):
        bifurcation_tree(x_min, x_max, samples=samples)


def test_tree_refused_before_enumeration(monkeypatch):
    def enumeration_must_not_run(*args, **kwargs):
        raise AssertionError("an over-cap tree reached the set enumeration")

    monkeypatch.setattr(anticontinuum, "enumerate_solution_sets",
                        enumeration_must_not_run)
    # 4.83M sets and about 541M samples
    with pytest.raises(DomainError, match="cap"):
        bifurcation_tree(0.0, 100.0, samples=1001)
    # counted from the thresholds below 4000, before any set is enumerated
    with pytest.raises(DomainError, match="cap"):
        bifurcation_tree(0.0, 4000.0, samples=1001)


def test_tree_of_many_integers_refused_before_the_grid(monkeypatch):
    def grid_must_not_be_built(*args, **kwargs):
        raise AssertionError("an over-cap tree reached the grid allocation")

    monkeypatch.setattr(np, "linspace", grid_must_not_be_built)
    # each integer m in (0, 4e6] is sampled by the branches born at 0..m-1:
    # 8e12 samples or more, though the 4e6 integers alone are under the cap
    with pytest.raises(DomainError, match="cap"):
        bifurcation_tree(0.0, 4e6)


@pytest.mark.parametrize("x_min, x_max, count", [
    (4999.0, 5000.0, "1.24479e+57"),
    # past the largest double, where the int cannot become a float
    (1e300, 1e301, "4.05000e+601"),
])
def test_tree_cap_message_gives_six_significant_digits(x_min, x_max, count):
    with pytest.raises(DomainError, match=rf"needs {re.escape(count)} or more"):
        bifurcation_tree(x_min, x_max)
