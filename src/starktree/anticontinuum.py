"""Exact stationary states of the tilted DNLS in the zero-hopping limit.

With the hopping switched off the stationary equation decouples site by
site: mu c_l = nu c_l^3 + f l c_l.  A state is then fixed by the finite set
S of occupied sites, and on S the amplitudes are c_l = +-sqrt((mu - f l)/nu)
with mu = nu/N + (f/N) sum(S).  Reality of the amplitudes demands
nu/f > sum of the complementary set {max S - l}, which is the branch's
birth threshold.  This module enumerates the admissible sets, builds the
states, and assembles the bifurcation tree of energies over nu/f.

`LatticeParams` holds the lattice operator once: the hopping stencil and,
beside it, the full stationary residual at any beta, which the self-check
of `build_state` and the Newton continuation both evaluate.
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_right
from collections.abc import Sequence
from dataclasses import dataclass, field, replace
from decimal import Decimal
from functools import cached_property, partial
from itertools import accumulate, chain, islice, repeat

import numpy as np

from .errors import (ConfigurationError, DomainError, InadmissibleSetError,
                     check_int, check_real, check_signs, check_site)
from .partitions import (MAX_ENUMERATION, MAX_N, _q_table, counting_function,
                         enumerate_distinct_partitions)

__all__ = ["BifurcationTree", "Branch", "LatticeParams", "SetTable",
           "SolutionSet", "StationaryState", "admissible", "bifurcation_tree",
           "birth_threshold", "build_state", "complementary_set",
           "consecutive_threshold", "energy_of_set", "enumerate_solution_sets"]

# Margin giving finite-hopping tails below 1e-12 for the beta ranges the
# continuation targets (beta' <= 0.05).
DEFAULT_WINDOW_MARGIN = 5

# Window must exceed the support by at least this much on each side.
MIN_WINDOW_MARGIN = 2

NORMALIZATION_TOL = 1e-12

# Points of a tree's uniform nu/f grid when the caller gives none.
DEFAULT_TREE_SAMPLES = 1001

# Largest number of (x, mu/f) samples one bifurcation tree may hold; larger
# requests are refused before any set is enumerated.
MAX_TREE_SAMPLES = 1 << 25

# Most sites one lattice window may hold; the dense (W+1)^2 continuation
# Jacobian is then 134 MB.  Wider windows are refused before any vector is
# allocated.
MAX_WINDOW_SITES = 1 << 12


class SolutionSet(tuple):
    """Finite set of occupied lattice sites: the ascending tuple of them.

    Canonical representatives have min = 0; the set moved j rungs down
    the ladder (min = j), built on the window moved by j
    (`LatticeParams.shifted`), behaves identically up to the energy shift
    j*f.
    """

    __slots__ = ()

    def __new__(cls, sites):
        sites = tuple(check_int(s, "site index") for s in sites)
        if not sites:
            raise DomainError("a solution set needs at least one site")
        if len(set(sites)) != len(sites):
            raise DomainError(f"duplicate sites in {sites}")
        return super().__new__(cls, sorted(sites))

    @classmethod
    def _trusted(cls, sites: list[list[int]]) -> list["SolutionSet"]:
        """One set per row of distinct ascending ints, wrapped unchecked."""
        return list(map(partial(tuple.__new__, cls), sites))

    @property
    def sites(self) -> tuple[int, ...]:
        """The sites as a plain tuple, a copy."""
        return tuple(self)

    def __repr__(self):
        return f"SolutionSet(sites={tuple(self)!r})"


class SetTable(Sequence):
    """The canonical sets of one enumeration, in order, as int arrays, as
    `enumerate_solution_sets` makes them.

    `site_arrays[n]` holds the sets of birth threshold n: one read-only
    (count, N) int64 array per cardinality N, in ascending N, whose rows
    are the sets' ascending sites, each starting at 0, in lexicographic
    order.  The table is a sequence of `SolutionSet`s in threshold, then
    array, then row order; an entry read by index or by iteration is made
    from its row then and not kept.
    """

    __slots__ = ("site_arrays", "_arrays", "_starts")

    def __init__(self, site_arrays):
        self.site_arrays = tuple(map(tuple, site_arrays))
        self._arrays = list(chain.from_iterable(self.site_arrays))
        # the index of each array's first set, then the total
        self._starts = [0, *accumulate(map(len, self._arrays))]

    def __len__(self):
        return self._starts[-1]

    def __getitem__(self, index):
        if isinstance(index, slice):
            return list(self)[index]
        i = operator.index(index)
        if i < 0:
            i += len(self)
        if not 0 <= i < len(self):
            raise IndexError(f"set index {index} out of range for "
                             f"{len(self)} sets")
        k = bisect_right(self._starts, i) - 1
        sites = self._arrays[k][i - self._starts[k]]
        return SolutionSet._trusted([sites.tolist()])[0]

    def __iter__(self):
        for sites in self._arrays:
            yield from SolutionSet._trusted(sites.tolist())

    def __repr__(self):
        return (f"SetTable({len(self)} sets over {len(self.site_arrays)} "
                f"thresholds)")


@dataclass(frozen=True)
class LatticeParams:
    """Model constants: nonlinearity nu > 0, tilt f > 0, hopping beta >= 0,
    and the finite window [lo, hi] of retained sites."""

    nu: float
    f: float
    beta: float = 0.0
    window: tuple[int, int] = (-5, 5)

    def __post_init__(self):
        object.__setattr__(self, "nu", check_real(self.nu, "nu", above=0))
        object.__setattr__(self, "f", check_real(self.f, "f", above=0))
        object.__setattr__(self, "beta", check_real(self.beta, "beta", at_least=0))
        # within int64, and hi + 1 too, so that window_sites stays int64
        lo, hi = (check_int(v, "window bound", -2 ** 63, 2 ** 63 - 2)
                  for v in self.window)
        if lo >= hi:
            raise ConfigurationError(f"window must satisfy lo < hi, got ({lo}, {hi})")
        if hi - lo + 1 > MAX_WINDOW_SITES:
            raise DomainError(
                f"window ({lo}, {hi}) holds {hi - lo + 1} sites, above the cap "
                f"of {MAX_WINDOW_SITES}"
            )
        # a bound on the operator's terms at |c_l| <= 1; where it is finite,
        # so are the residual, the tilt and the energy of a normalized state
        check_real(self.nu + 4.0 * self.beta + self.f * max(abs(lo), abs(hi)),
                   "operator scale nu + 4 beta + f max(|lo|, |hi|)")
        # the drive and the hopping rate in units of the tilt, which
        # build_state and evolve's step bound read
        check_real(self.nu / self.f, "ratio nu/f")
        check_real(4.0 * self.beta / self.f, "ratio 4 beta/f")
        object.__setattr__(self, "window", (lo, hi))

    @property
    def ratio(self) -> float:
        """The dimensionless drive nu/f."""
        return self.nu / self.f

    @property
    def window_sites(self) -> np.ndarray:
        lo, hi = self.window
        return np.arange(lo, hi + 1)

    @property
    def window_size(self) -> int:
        lo, hi = self.window
        return hi - lo + 1

    def hopping(self, c: np.ndarray) -> np.ndarray:
        """Hopping term -beta (c_{l+1} + c_{l-1} + 2 c_l) of the lattice
        operator.  `residual` calls it, and the continuation Jacobian and
        `dynamics.evolve`'s linear propagator start from `hopping(np.eye(m))`,
        the operator's matrix, since the stencil acts along the first axis.

        Dirichlet window ends: neighbours outside the window are zero.
        """
        hop = np.zeros_like(c)
        hop[:-1] += c[1:]
        hop[1:] += c[:-1]
        return -self.beta * (hop + 2.0 * c)

    def residual(self, c: np.ndarray, mu: float) -> np.ndarray:
        """The stationary equation every branch solves, mu c_l = -beta
        (c_{l+1} + c_{l-1} + 2 c_l) + nu c_l^3 + f l c_l, as one residual
        row per site, with the normalization row sum c^2 - 1 appended."""
        r = (self.hopping(c) + self.nu * c ** 3
             + self.f * self.window_sites * c - mu * c)
        return np.append(r, np.sum(c ** 2) - 1.0)

    def shifted(self, j) -> "LatticeParams":
        """The same model on the window moved j sites along the tilt: the
        ladder shift l -> l + j.  The constructor refuses a window moved
        beyond int64 or to a non-finite operator scale."""
        j = check_int(j, "translation")
        lo, hi = self.window
        return replace(self, window=(lo + j, hi + j))

    @classmethod
    def for_set(cls, sset: SolutionSet, nu, f, beta=0.0) -> "LatticeParams":
        """Params with the default window: support padded by
        DEFAULT_WINDOW_MARGIN sites."""
        return cls(nu=nu, f=f, beta=beta,
                   window=(sset[0] - DEFAULT_WINDOW_MARGIN,
                           sset[-1] + DEFAULT_WINDOW_MARGIN))


@dataclass
class StationaryState:
    """Coefficient vector over the window plus its energy mu.

    `set` records the zero-hopping support; it becomes None once Newton
    continuation has smeared the support over the whole window.
    """

    params: LatticeParams
    coefficients: np.ndarray = field(repr=False)
    mu: float
    set: SolutionSet | None = None

    def coefficient_at(self, site: int) -> float:
        return self.coefficients[check_site(site, self.params.window)]


@dataclass(frozen=True, slots=True)
class Branch:
    """One bifurcation branch: a set, its birth threshold, and the energy
    samples mu/f over the grid points strictly above the threshold, `xs`,
    a view of the tree's x_grid."""

    set: SolutionSet
    birth: int
    xs: np.ndarray = field(repr=False)
    mu_over_f: np.ndarray = field(repr=False)


@dataclass(frozen=True)
class BifurcationTree:
    """Sets in threshold order, with each distinct energy curve held once.

    mu/f = x/N + sum(S)/N depends on a set only through N and sum S, so the
    branches lie on fewer curves than there are branches, and one curve is
    born again at many thresholds.  The curves are numbered tree-wide in
    order of first appearance.  `blocks[n]` is the (curves, samples) array
    of mu/f of the curves first seen at threshold n, sampled from n's first
    grid point on (it may have no rows), and its rows follow those of the
    blocks before.  `sets.site_arrays[n]` holds the sites of the sets born
    at n, `curves[n]` the tree-wide row of each of them, in set order, and
    `rows[c]`, built on first read, is row c itself.
    `branches`, built on first read, gives each set's `mu_over_f` as the
    suffix of that row from its first grid point, one view shared by the
    branches of threshold n on the curve.  Every row is
    computed as xs / N, then += sum(S) / N, elementwise from N and sum S
    alone, so each suffix is bit for bit its branch's xs / N + sum(S) / N.
    """

    sets: SetTable = field(repr=False)
    x_grid: np.ndarray = field(repr=False)
    blocks: list[np.ndarray] = field(repr=False)
    curves: list[np.ndarray] = field(repr=False)

    @cached_property
    def rows(self) -> list[np.ndarray]:
        """The rows of `blocks` in tree-wide order, built on first read: row
        c is curve c's mu/f from its first grid point to the grid's last,
        so a branch's samples are the last `xs.size` entries of its row."""
        return list(chain.from_iterable(self.blocks))

    @cached_property
    def branches(self) -> list[Branch]:
        """One `Branch` per set, in set order, built on first read, with
        the `SolutionSet`s it makes from `sets`."""
        branches = []
        born = iter(self.sets)
        for birth, (block, curve) in enumerate(zip(self.blocks, self.curves)):
            n = block.shape[1]  # the samples of each set born here, n >= 1
            views = {c: self.rows[c][-n:] for c in np.unique(curve).tolist()}
            branches.extend(map(Branch, islice(born, len(curve)), repeat(birth),
                                repeat(self.x_grid[-n:]),
                                map(views.__getitem__, curve.tolist())))
        return branches


def complementary_set(sset: SolutionSet) -> SolutionSet:
    """Reflect the set about its maximum: {max S - l : l in S}.

    Always contains 0 and has the same cardinality; an involution on
    canonical sets.
    """
    top = sset[-1]
    return SolutionSet([top - s for s in sset])


def birth_threshold(sset: SolutionSet) -> int:
    """Sum of the complementary set: the integer nu/f must strictly exceed
    for the branch to exist.  Translation invariant."""
    top = sset[-1]
    return sum(top - s for s in sset)


def admissible(sset: SolutionSet, x) -> bool:
    """True iff nu/f = x strictly exceeds the birth threshold of the set."""
    return check_real(x, "ratio", above=0) > birth_threshold(sset)


def energy_of_set(sset: SolutionSet, nu, f) -> float:
    """Branch energy mu = nu/N + (f/N) sum(S)."""
    nu, f = check_real(nu, "nu", above=0), check_real(f, "f", above=0)
    n = len(sset)
    return nu / n + f * sum(sset) / n


def consecutive_threshold(n_modes) -> int:
    """Birth threshold N(N-1)/2 of the consecutive-site family {0,..,N-1}."""
    n_modes = check_int(n_modes, "mode count", 1)
    return n_modes * (n_modes - 1) // 2


def build_state(sset: SolutionSet, params: LatticeParams,
                signs=None) -> StationaryState:
    """Exact zero-hopping state on the set with the given sign pattern.

    Amplitudes are +-sqrt((mu - f l)/nu) on the set and zero elsewhere;
    sum c^2 = 1 and the stationary equation at zero hopping hold
    identically and are checked together through `LatticeParams.residual`.

    The state carries the params at beta = 0, the model it is stationary
    in, whatever beta they were given with.

    Raises InadmissibleSetError below the birth threshold,
    ConfigurationError when the window does not pad the support by at
    least two sites, and DomainError where round-off breaks those checks
    or, just above the threshold, makes a squared amplitude negative.
    """
    params = replace(params, beta=0.0)
    threshold = birth_threshold(sset)
    x = params.ratio
    if not x > threshold:
        raise InadmissibleSetError(
            f"set {sset.sites} needs nu/f > {threshold}, got nu/f = {x}",
            threshold=threshold,
        )
    lo, hi = params.window
    if not (lo <= sset[0] - MIN_WINDOW_MARGIN
            and hi >= sset[-1] + MIN_WINDOW_MARGIN):
        raise ConfigurationError(
            f"window {params.window} must pad support {sset.sites} "
            f"by >= {MIN_WINDOW_MARGIN} sites"
        )
    sign_array = np.array(check_signs(signs, len(sset)))
    mu = energy_of_set(sset, params.nu, params.f)
    sites = np.array(sset)
    coeff = np.zeros(params.window_size)
    # a squared amplitude rounded below zero gives NaN: the self-check fails
    with np.errstate(invalid="ignore"):
        coeff[sites - lo] = sign_array * np.sqrt((mu - params.f * sites)
                                                 / params.nu)
    # the stationary equation at beta = 0 and the normalization, both to
    # NORMALIZATION_TOL
    residual = np.max(np.abs(params.residual(coeff, mu)))
    if not residual < NORMALIZATION_TOL:
        raise DomainError(f"set {sset.sites} at nu/f = {x} is beyond double "
                          f"precision (self-check over {NORMALIZATION_TOL})")
    return StationaryState(params=params, coefficients=coeff, mu=mu, set=sset)


def enumerate_solution_sets(x) -> SetTable:
    """All canonical sets admissible at nu/f = x, singleton included.

    Each birth-threshold integer n < x contributes the zero-anchored
    distinct partitions of n, mapped through the (involutive) complementary
    reflection.  Ordered by threshold, then cardinality, then sites; length
    is counting_function(x) + 1.  More than MAX_ENUMERATION sets are
    refused before any is built.

    Each threshold's partitions are bucketed by size, and each bucket is
    one int array, reflected as a whole and ordered by one lexsort: the
    table's array of that threshold and cardinality.  No `SolutionSet` is
    made until a caller reads one from the table.
    """
    x = check_real(x, "ratio", above=0)
    count = counting_function(x) + 1
    if count > MAX_ENUMERATION:
        raise DomainError(
            f"ratio {x} admits {count} solution sets, above the enumeration "
            f"cap of {MAX_ENUMERATION}"
        )
    site_arrays = []
    for n in range(math.ceil(x)):
        buckets = {}
        for parts in enumerate_distinct_partitions(n):
            buckets.setdefault(len(parts), []).append(parts)
        site_arrays.append([])
        for size in sorted(buckets):
            bucket = buckets[size]
            rows = np.fromiter(chain.from_iterable(bucket), dtype=np.int64,
                               count=len(bucket) * size).reshape(-1, size)
            # each row {max - l}, read backwards so that it ascends
            rows = rows[:, -1:] - rows[:, ::-1]
            # lexsort's last key is its first: column 0, then 1, ...
            rows = rows[np.lexsort(rows.T[::-1])]
            rows.flags.writeable = False
            site_arrays[-1].append(rows)
    return SetTable(site_arrays)


def _check_tree_size(n_samples: int, x_min: float, x_max: float):
    if n_samples > MAX_TREE_SAMPLES:
        try:
            count = f"{n_samples:.6g}"
        except OverflowError:  # an int beyond the largest double
            count = f"{Decimal(n_samples):.6g}"
        raise DomainError(
            f"the tree over nu/f in [{x_min}, {x_max}] needs {count} or "
            f"more branch samples, above the cap of {MAX_TREE_SAMPLES}; "
            f"narrow the range or use fewer grid samples"
        )


def bifurcation_tree(x_min, x_max, samples: int = DEFAULT_TREE_SAMPLES
                     ) -> BifurcationTree:
    """Energy branches mu/f over a uniform nu/f grid with the integer birth
    points inserted exactly.

    Each set admissible anywhere in [x_min, x_max] yields a branch sampled
    strictly above its threshold, where mu/f = x/N + sum(S)/N.  Branches
    come in threshold order, so each samples a suffix of the read-only
    x_grid that starts no earlier than the one before, and `xs` is a view
    of that suffix.  The q(n) branches born at threshold n share `xs`.
    Their energies are rows of the whole tree, one per distinct (N, sum S):
    `blocks[n]` holds those first seen at n, and `curves[n]` gives each
    set's row, keyed from the table's arrays with no `SolutionSet` made;
    the tree's `branches` are built on first read.
    A tree of more than MAX_TREE_SAMPLES samples is refused before any set
    is enumerated.
    """
    x_min = check_real(x_min, "x_min", at_least=0)
    x_max = check_real(x_max, "x_max", above=x_min)
    samples = check_int(samples, "samples", 2, MAX_TREE_SAMPLES + 1)
    # refused before the grid is built: each of the n_int positive integers
    # m in range is sampled by the branches born at 0..m-1, so m times or more
    n_int = math.floor(x_max) - max(math.ceil(x_min), 1) + 1
    _check_tree_size(n_int * (n_int + 1) // 2, x_min, x_max)
    base = np.linspace(x_min, x_max, samples)
    integers = np.arange(math.ceil(x_min), math.floor(x_max) + 1, dtype=float)
    grid = np.unique(np.concatenate([base, integers]))
    grid.flags.writeable = False
    # q(n) sets are born at each threshold n < x_max, each sampled on the
    # grid from first[n] on; the count up to MAX_N is far over the cap already
    q = _q_table(min(math.ceil(x_max) - 1, MAX_N))
    first = np.searchsorted(grid, np.arange(len(q)), side="right")
    _check_tree_size(sum(q_n * (grid.size - int(k)) for q_n, k in zip(q, first)),
                     x_min, x_max)
    # the sets in threshold order: site_arrays[n] holds the q[n] born at n
    sets = enumerate_solution_sets(x_max)
    blocks, curves = [], []
    index = {}  # (N, sum S) -> its tree-wide row, in order of first appearance
    for birth, (arrays, k) in enumerate(zip(sets.site_arrays, first.tolist())):
        seen = len(index)
        # a set born here has sum S = N max S - birth and max S <= birth, so
        # here its (N, sum S) is fixed by the one int N (birth + 1) + max S
        keys = np.concatenate([sites[:, -1] + sites.shape[1] * (birth + 1)
                               for sites in arrays])
        keys, where, inverse = np.unique(keys, return_index=True,
                                         return_inverse=True)
        order = np.argsort(where)  # the distinct keys by first appearance
        widths, tops = np.divmod(keys[order], birth + 1)
        rows = np.empty_like(order)
        rows[order] = [index.setdefault(key, len(index)) for key in
                       zip(widths.tolist(), (widths * tops - birth).tolist())]
        curves.append(rows[inverse])
        # the (N, sum S) first seen here, as columns; there may be none
        n, sums = np.array(list(index)[seen:], dtype=float).reshape(-1, 2).T[..., None]
        # sum(S) and N are exact floats; the in-place add allocates once
        mus = grid[k:] / n
        mus += sums / n
        blocks.append(mus)
    return BifurcationTree(sets, grid, blocks, curves)
