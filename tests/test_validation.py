"""The one real-number check behind every real-valued argument.

Each public entry point that takes a real must refuse a string, None, NaN,
+inf, an integer beyond the double range and the first value outside its
bound with DomainError, and accept a numpy scalar.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from starktree import (
    DomainError,
    LatticeParams,
    SolutionSet,
    admissible,
    beat_periods,
    beating_profile,
    bifurcation_tree,
    build_state,
    continue_in_beta,
    counting_function,
    energy_of_set,
    enumerate_solution_sets,
    evolve,
    jacobian_diagonal_t0,
    newton_solve,
    superposition_state,
)
from starktree.errors import check_real

S01 = SolutionSet((0, 1))
P01 = LatticeParams.for_set(S01, nu=2.0, f=1.0)
STATE01 = build_state(S01, P01)
BEAT = LatticeParams(nu=0.05, f=0.05 / 1.5, window=(-6, 6))
BEAT_VECTOR = superposition_state(0, BEAT)


def below(bound):
    """The largest double under `bound`: first value an `at_least` check refuses."""
    return float(np.nextafter(bound, -np.inf))


# name -> (call with the real under test, first refused value, accepted value)
ENTRY_POINTS = {
    "LatticeParams.nu": (lambda v: LatticeParams(nu=v, f=1.0), 0.0, 2.0),
    "LatticeParams.f": (lambda v: LatticeParams(nu=1.0, f=v), 0.0, 0.5),
    "LatticeParams.beta": (lambda v: LatticeParams(nu=1.0, f=1.0, beta=v),
                           below(0.0), 0.0),
    "admissible": (lambda v: admissible(S01, v), 0.0, 3.0),
    "energy_of_set.nu": (lambda v: energy_of_set(S01, v, 1.0), 0.0, 2.0),
    "energy_of_set.f": (lambda v: energy_of_set(S01, 2.0, v), 0.0, 1.0),
    "enumerate_solution_sets": (enumerate_solution_sets, 0.0, 3.5),
    "bifurcation_tree.x_min": (lambda v: bifurcation_tree(v, 3.0, samples=5),
                               below(0.0), 0.5),
    "bifurcation_tree.x_max": (lambda v: bifurcation_tree(1.0, v, samples=5),
                               1.0, 3.0),
    "counting_function": (counting_function, 0.0, 3.1),
    "jacobian_diagonal_t0.mu": (
        lambda v: jacobian_diagonal_t0(replace(STATE01, mu=v)), 0.0,
        STATE01.mu),
    "continue_in_beta.beta_target": (lambda v: continue_in_beta(S01, P01, v),
                                     below(0.0), 0.0),
    "newton_solve.beta": (lambda v: newton_solve(STATE01, v), below(0.0), 0.0),
    "beat_periods": (beat_periods, 1.0, 1.5),
    "beating_profile": (lambda v: beating_profile(v, None, 0.0), 1.0, 1.5),
    "evolve.t_end": (lambda v: evolve(BEAT_VECTOR, BEAT, t_end=v, dt=0.01),
                     0.0, 0.05),
    "evolve.dt": (lambda v: evolve(BEAT_VECTOR, BEAT, t_end=0.05, dt=v),
                  0.0, 0.01),
}


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_real_arguments_are_checked(entry):
    call, refused, accepted = ENTRY_POINTS[entry]
    for bad in ("3", None, True, math.nan, math.inf, 10 ** 400, refused):
        with pytest.raises(DomainError):
            call(bad)
    call(np.float64(accepted))


def test_check_real_bounds_and_messages():
    assert check_real(np.float64(2.5), "x") == 2.5
    assert type(check_real(np.int64(3), "x")) is float
    assert check_real(0, "beta", at_least=0) == 0.0
    with pytest.raises(DomainError, match="x must be positive, got 0.0"):
        check_real(0.0, "x", above=0)
    with pytest.raises(DomainError, match="beta must be non-negative"):
        check_real(-1.0, "beta", at_least=0)
    with pytest.raises(DomainError, match="x must be > 1, got 1.0"):
        check_real(1.0, "x", above=1)
    with pytest.raises(DomainError, match="finite real number, got '3'"):
        check_real("3", "x")
    # float() of these raises OverflowError, which must not escape
    for huge in (10 ** 400, -10 ** 400):
        with pytest.raises(DomainError, match="nu must be a finite real number"):
            check_real(huge, "nu")
