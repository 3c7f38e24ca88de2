"""The argument checks of `errors`, each rule stated once.

Each public entry point that takes a real must refuse a string, None, NaN,
+inf, an integer beyond the double range and the first value outside its
bound with DomainError, and accept a numpy scalar.  Each that takes a sign
pattern must refuse booleans and floats, as `check_int` does, and accept
numpy integers.  The three site lookups refuse a site outside the window
with one text, and the three entry points of the three-state beating
refuse nu/f = 1 with one text.
"""

import json
import math
from dataclasses import replace

import numpy as np
import pytest

from starktree import (
    ConfigurationError,
    DomainError,
    DynamicsTrace,
    LatticeParams,
    SolutionSet,
    admissible,
    beat_periods,
    beating_profile,
    beating_trace,
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
from starktree.cli import load_state_vector
from starktree.errors import check_real, check_signs

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


S012 = SolutionSet((0, 1, 2))
P012 = LatticeParams.for_set(S012, nu=4.0, f=1.0)

# name -> call with a pattern of three signs
SIGN_ENTRY_POINTS = {
    "build_state": lambda signs: build_state(S012, P012, signs=signs),
    "continue_in_beta": lambda signs: continue_in_beta(S012, P012,
                                                       signs=signs),
    "beating_profile": lambda signs: beating_profile(1.5, signs, 0.0),
}


@pytest.mark.parametrize("signs, message", [
    ((True, -1, 1), "sign must be an integer, got True"),
    ((1.0, -1.0, 1.0), "sign must be an integer, got 1.0"),
    (np.array([1.0, -1.0, 1.0]),
     f"sign must be an integer, got {np.float64(1.0)!r}"),
    ((1, np.True_, -1), f"sign must be an integer, got {np.True_!r}"),
    ((1, 0, -1), "signs must be +-1, got (1, 0, -1)"),
    (np.array([1, 2, 1]), "signs must be +-1, got (1, 2, 1)"),
], ids=["bool", "float", "numpy-float", "numpy-bool", "zero", "numpy-two"])
@pytest.mark.parametrize("entry", sorted(SIGN_ENTRY_POINTS))
def test_sign_arguments_are_checked(entry, signs, message):
    call = SIGN_ENTRY_POINTS[entry]
    with pytest.raises(DomainError) as err:
        call(signs)
    assert str(err.value) == message
    call(np.array([1, -1, 1]))


@pytest.mark.parametrize("signs, message", [
    ("+x", "sign string may only contain '+'/'-', got '+x'"),
    (5, "signs must be a '+-' string or +-1 sequence, got 5"),
    ((), "expected 2 signs, got 0"),
    ("+-+", "expected 2 signs, got 3"),
])
def test_check_signs_messages(signs, message):
    with pytest.raises(DomainError) as err:
        check_signs(signs, 2)
    assert str(err.value) == message


def test_numpy_integer_signs_build_the_same_state():
    signs = check_signs(np.array([1, -1]), 2)
    assert signs == (1, -1) and all(type(s) is int for s in signs)
    reference = build_state(S01, P01, signs=(1, -1))
    state = build_state(S01, P01, signs=np.array([1, -1]))
    assert state.coefficients.tobytes() == reference.coefficients.tobytes()


@pytest.mark.parametrize("site", [-6, 7])
def test_site_lookups_refuse_one_text(tmp_path, site):
    window = P01.window
    message = f"site {site} outside window (-5, 6)"
    assert window == (-5, 6)
    trace = DynamicsTrace(dt=0.1,
                          states=np.zeros((2, P01.window_size), dtype=complex),
                          window=window, norm_drift=0.0, energy_drift=0.0)
    for lookup in (STATE01.coefficient_at, trace.site_column):
        with pytest.raises(ConfigurationError) as err:
            lookup(site)
        assert str(err.value) == message
    path = tmp_path / "state.json"
    path.write_text(json.dumps({"nu": 2.0, "f": 1.0, "beta": 0.0,
                                "window": list(window),
                                "coefficients": {str(site): 1.0}}))
    with pytest.raises(DomainError) as err:
        load_state_vector(str(path))
    assert isinstance(err.value.__cause__, ConfigurationError)
    assert str(err.value) == f"state file {path} is not usable: {message}"


UNIT_RATIO = LatticeParams(nu=1.0, f=1.0, window=(-6, 6))


@pytest.mark.parametrize("call", [
    lambda: superposition_state(0, UNIT_RATIO),
    lambda: beating_trace(0, UNIT_RATIO, t_end=1.0),
    lambda: beating_profile(1.0, None, 0.0),
], ids=["superposition_state", "beating_trace", "beating_profile"])
def test_three_state_beating_refuses_unit_ratio_with_one_text(call):
    with pytest.raises(DomainError) as err:
        call()
    assert str(err.value) == "beating ratio nu/f must be > 1, got 1.0"
