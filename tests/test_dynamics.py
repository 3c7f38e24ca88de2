import dataclasses
import hashlib
import math
import tracemalloc

import numpy as np
import pytest

from starktree import (
    BLOCH_PERIOD,
    ConfigurationError,
    DomainError,
    DynamicsTrace,
    IntegrationError,
    LatticeParams,
    SolutionSet,
    beat_periods,
    beating_profile,
    beating_trace,
    build_state,
    continue_in_beta,
    enumerate_solution_sets,
    evolve,
    spectrum,
    superposition_state,
)
from starktree import dynamics
from starktree.anticontinuum import MAX_WINDOW_SITES
from starktree.dynamics import DEFAULT_DT, MAX_TRACE_BYTES

WINDOW = (-6, 6)


def beating_params(x, nu=0.05, beta=0.0):
    return LatticeParams(nu=nu, f=nu / x, beta=beta, window=WINDOW)


def trace_from_series(dt, values):
    """Wrap a scalar complex series sampled every dt as a one-site trace for
    spectrum tests."""
    states = np.asarray(values, dtype=complex).reshape(-1, 1)
    norms = np.abs(states[:, 0]) ** 2
    return DynamicsTrace(dt=dt, states=states, window=(0, 0),
                         norm_drift=float(np.max(np.abs(norms - 1.0))),
                         energy_drift=0.0)


# ---------------------------------------------------------------------------
# beat periods and profile


def test_beat_periods_reference_values():
    two_pi = 2.0 * math.pi
    assert beat_periods(1.5) == pytest.approx(
        (two_pi, 8.0 * math.pi / 5.0, 8.0 * math.pi), rel=1e-15)
    assert beat_periods(3.0) == pytest.approx((two_pi, math.pi, two_pi), rel=1e-15)


def test_beat_period_divergence_near_one():
    x = 1.0 + 1e-5  # below the 4 pi 1e-6 scale, T2 blows past 1e6
    assert beat_periods(x)[2] > 1e6


def test_beat_periods_domain():
    for bad in (1.0, 0.5, -2.0):
        with pytest.raises(DomainError):
            beat_periods(bad)


def test_beating_profile_at_zero():
    q0 = beating_profile(1.5, "+++", 0.0)
    expected = 1.0 + math.sqrt(5.0 / 6.0) + math.sqrt(1.0 / 6.0)
    assert q0 == pytest.approx(expected, rel=1e-14)
    assert isinstance(q0, complex)
    # None means all-plus, as in build_state
    assert beating_profile(1.5, None, 0.0) == q0
    t = np.linspace(0.0, 10.0, 7)
    assert np.array_equal(beating_profile(1.5, None, t),
                          beating_profile(1.5, (1, 1, 1), t))


def _pair(x, signs, other, t):
    """|q| of the two states on which two sign patterns agree: half the sum
    of their profiles cancels the state where they differ."""
    return np.abs(beating_profile(x, signs, t) + beating_profile(x, other, t)) / 2


def test_beating_profile_pairwise_realignment():
    # each two-state pair is periodic with its own beat period
    x = 1.5
    _, t1, t2 = beat_periods(x)
    t = np.linspace(0.0, 12.0, 7)
    assert np.allclose(_pair(x, "+++", "+-+", t), _pair(x, "+++", "+-+", t + t1),
                       atol=1e-12)
    assert np.allclose(_pair(x, "+++", "++-", t), _pair(x, "+++", "++-", t + t2),
                       atol=1e-12)
    # the third pair, {j, j+1} and {j-1, j}, beats with the Bloch period,
    # so a shift by T1 moves it
    assert not np.allclose(_pair(x, "+++", "-++", t),
                           _pair(x, "+++", "-++", t + t1), atol=1e-3)


def test_beating_profile_domain():
    with pytest.raises(DomainError):
        beating_profile(1.0, "+++", 0.0)
    with pytest.raises(DomainError):
        beating_profile(2.0, "++", 0.0)


def test_beating_prediction_amplitudes_match_built_states():
    x = 1.5
    p = beating_params(x)
    # at t' = 0 each amplitude is half the difference of two sign patterns
    q = beating_profile(x, "+++", 0.0)
    c1, c2, c3 = ((q - beating_profile(x, signs, 0.0)) / 2
                  for signs in ("-++", "+-+", "++-"))
    for sites, amplitude in (((0,), c1), ((0, 1), c2), ((-1, 0), c3)):
        built = build_state(SolutionSet(sites), p).coefficient_at(0)
        assert amplitude == pytest.approx(built, rel=1e-14)


# ---------------------------------------------------------------------------
# evolve


def test_single_site_phase_rotation():
    # delta at site 2: |c| stays 1, phase advances at (nu + 2 f)/f
    p = LatticeParams(nu=0.8, f=1.0, beta=0.0, window=(-2, 6))
    initial = np.zeros(p.window_size, dtype=complex)
    initial[2 - p.window[0]] = 1.0
    trace = evolve(initial, p, t_end=3.0, dt=1e-3)
    column = trace.site_column(2)
    assert np.max(np.abs(np.abs(column) - 1.0)) < 1e-12
    expected = np.exp(1j * (p.nu + 2.0 * p.f) / p.f * trace.times)
    assert np.max(np.abs(column / column[0] - expected)) < 1e-9


@pytest.mark.parametrize("t_end, dt, n_steps", [(3.0, 1e-3, 3000),
                                                (1e-3, 1e-3, 1),
                                                (1.4e-3, 1e-3, 1)])
def test_trace_times_are_its_step_grid(t_end, dt, n_steps):
    # the trace keeps dt, not an array of times; a t_end of one step or a
    # little more still makes one step
    p = LatticeParams(nu=0.8, f=1.0, beta=0.1, window=(-2, 6))
    initial = np.zeros(p.window_size, dtype=complex)
    initial[2 - p.window[0]] = 1.0
    trace = evolve(initial, p, t_end=t_end, dt=dt)
    assert "times" not in {f.name for f in dataclasses.fields(trace)}
    assert trace.dt == dt
    assert trace.states.shape[0] == n_steps + 1
    np.testing.assert_array_equal(trace.times, np.arange(n_steps + 1) * dt)


def test_nonlinear_frequency_shift_on_home_site():
    # delta at site 0 with nu > 0: phase rate nu/f in t'
    p = LatticeParams(nu=1.3, f=0.7, beta=0.0, window=(-4, 4))
    initial = np.zeros(p.window_size, dtype=complex)
    initial[0 - p.window[0]] = 1.0
    trace = evolve(initial, p, t_end=2.0, dt=1e-3)
    column = trace.site_column(0)
    expected = np.exp(1j * (p.nu / p.f) * trace.times)
    assert np.max(np.abs(column - expected)) < 1e-9


def test_stationary_state_is_stationary_under_evolution():
    s = SolutionSet((0, 1))
    p = LatticeParams.for_set(s, nu=1.5, f=1.0)
    result = continue_in_beta(s, p, 0.02, steps=5)
    state = result.state
    trace = evolve(state.coefficients.astype(complex), state.params,
                   t_end=10.0 * BLOCH_PERIOD)
    drift = np.max(np.abs(np.abs(trace.states) - np.abs(trace.states[0])))
    assert drift < 1e-8
    # phase rotates as e^{i mu t'/f}
    column = trace.site_column(0)
    expected = state.coefficient_at(0) * np.exp(
        1j * state.mu / p.f * trace.times)
    assert np.max(np.abs(column - expected)) < 1e-7


def test_conservation_over_twenty_bloch_periods():
    p = beating_params(1.5)
    initial = superposition_state(0, p)
    trace = evolve(initial, p, t_end=20.0 * BLOCH_PERIOD)
    assert trace.norm_drift < 1e-9
    assert trace.energy_drift < 1e-8


def test_summed_vector_is_flat_at_zero_hopping():
    # the site-decoupled equation freezes |c_l|; beats need beating_trace
    p = beating_params(1.5)
    initial = superposition_state(0, p)
    trace = evolve(initial, p, t_end=2.0 * BLOCH_PERIOD)
    assert np.max(np.abs(np.abs(trace.states) - np.abs(trace.states[0]))) < 1e-10


def test_integrator_fourth_order():
    p = LatticeParams(nu=1.5, f=1.0, beta=0.1, window=WINDOW)
    initial = superposition_state(0, p)

    def final(dt):
        return evolve(initial, p, t_end=2.0 * math.pi, dt=dt).states[-1]

    h = 2.0 * math.pi / 256.0
    reference = final(h / 8.0)
    e_coarse = np.max(np.abs(final(h) - reference))
    e_fine = np.max(np.abs(final(h / 2.0) - reference))
    assert 12.0 < e_coarse / e_fine < 20.0


def rk4_trace(initial, p, t_end, dt):
    """Textbook classical RK4 of the lattice equation, written with
    LatticeParams.hopping (the operator continuation also uses) and the
    absolute tilt f l: the reference for evolve at finite hopping."""
    sites = p.window_sites

    def rhs(c):
        return 1j / p.f * (p.hopping(c) + p.nu * np.abs(c) ** 2 * c
                           + p.f * sites * c)

    n_steps = round(t_end / dt)
    states = np.empty((n_steps + 1, initial.size), dtype=complex)
    states[0] = c = initial
    for k in range(1, n_steps + 1):
        k1 = rhs(c)
        k2 = rhs(c + 0.5 * dt * k1)
        k3 = rhs(c + 0.5 * dt * k2)
        k4 = rhs(c + dt * k3)
        states[k] = c = c + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return states


def window_operator(p):
    """H/f over the whole window: LatticeParams.hopping applied to the
    identity's columns, plus the absolute tilt f l."""
    columns = [p.hopping(column) for column in np.eye(p.window_size)]
    return np.column_stack(columns) / p.f + np.diag(p.window_sites.astype(float))


def split_step(c, p, dt):
    """Yoshida's triple jump of Strang steps (phase, propagator, phase),
    unmerged, with dense propagators from one full-window eigh."""
    eigenvalues, vectors = np.linalg.eigh(window_operator(p))
    w1 = 1.0 / (2.0 - 2.0 ** (1.0 / 3.0))
    for w in (w1, 1.0 - 2.0 * w1, w1):
        tau = w * dt
        c = c * np.exp(0.5j * tau * p.nu / p.f * np.abs(c) ** 2)
        c = vectors @ (np.exp(1j * tau * eigenvalues) * (vectors.T @ c))
        c = c * np.exp(0.5j * tau * p.nu / p.f * np.abs(c) ** 2)
    return c


@pytest.mark.parametrize("window, dt", [
    (WINDOW, 0.01),
    # 300 sites: the edge rows come from edge blocks, the rest from one row
    ((-150, 149), 0.01),
    # beta |tau|/f up to 0.24, so the band reaches 14 sites on each side
    ((-150, 149), 1.0),
], ids=["13_sites", "300_sites", "300_sites_wide_band"])
def test_evolve_step_is_the_split_step_of_the_full_window_propagator(window,
                                                                    dt):
    rng = np.random.default_rng(4)
    p = LatticeParams(nu=1.5, f=0.7, beta=0.1, window=window)
    c0 = rng.normal(size=p.window_size) + 1j * rng.normal(size=p.window_size)
    c0 /= np.linalg.norm(c0)
    step = evolve(c0, p, t_end=dt, dt=dt).states[1]
    assert np.max(np.abs(step - split_step(c0, p, dt))) < 1e-13


def band_step(c, p, dt):
    """split_step with each propagator cut to its band and applied as a sum
    over the band's diagonals, as windows wider than 4b+5 apply it; the
    window's middle site must be 0, so that evolve turns no phase back."""
    w1 = 1.0 / (2.0 - 2.0 ** (1.0 / 3.0))
    w0 = 1.0 - 2.0 * w1
    b = dynamics._band_width(2.0 * p.beta * abs(w0) * dt / p.f)
    for w in (w1, w0, w1):
        tau = w * dt
        u = dynamics._propagator(p, tau, b)
        # band[b + k, l] = u[l, l + k], zero where l + k is off the window
        band = np.zeros((2 * b + 1, c.size), dtype=complex)
        for k in range(-b, b + 1):
            band[b + k, max(-k, 0):c.size - max(k, 0)] = np.diagonal(u, k)
        c = c * np.exp(0.5j * tau * p.nu / p.f * np.abs(c) ** 2)
        padded = np.concatenate([np.zeros(b), c, np.zeros(b)])
        c = sum(band[b + k] * padded[b + k:b + k + c.size]
                for k in range(-b, b + 1))
        c = c * np.exp(0.5j * tau * p.nu / p.f * np.abs(c) ** 2)
    return c


def test_dense_small_window_step_matches_the_band_step():
    # b = 5 here, so the 13 sites fit one 4b+5-site block and each stage
    # is one dense product
    rng = np.random.default_rng(4)
    p = LatticeParams(nu=1.5, f=0.7, beta=0.1, window=WINDOW)
    c0 = rng.normal(size=p.window_size) + 1j * rng.normal(size=p.window_size)
    c0 /= np.linalg.norm(c0)
    step = evolve(c0, p, t_end=0.01, dt=0.01).states[1]
    assert np.max(np.abs(step - band_step(c0, p, 0.01))) < 1e-13


@pytest.mark.parametrize("case, digest", [
    # b = 3: 64 sites are wider than the 17-site block, and the window's
    # middle is not site 0, so the trace is turned back as well
    pytest.param(
        "64_sites",
        "73680e89af8588255e765fe8b7db6ed5e9c3deafae5e41847aa20a1ccfb16b63",
        id="64_sites"),
    # b = 14 on 300 sites, from a random state
    pytest.param(
        "300_sites_wide_band",
        "e858bfa8406c0593e4459d614b49b0720ce3456b1903bc88a40a599c42fe3fd5",
        id="300_sites_wide_band"),
])
def test_banded_evolve_trace_is_pinned_bit_for_bit(case, digest):
    """The sha256 of the trace's states on windows wider than 4b+5 sites,
    which apply U as its band.  Like the evolve_hopping golden, the digest
    depends on LAPACK's eigh: it was recorded with numpy 2.4.6 and its
    bundled OpenBLAS 0.3.31 (DYNAMIC_ARCH) on x86-64.

    Both digests were re-recorded when the split step began to take each
    phase exponent from the squared float view of the state, whose sum
    re^2 s + im^2 s rounds differently from s (re^2 + im^2).  The states
    moved by at most 1.1e-15 (64 sites) and 2.3e-16 (300 sites), |c|^2 by
    1.8e-15 and 5.9e-17; the norm drifts went 5.81e-14 -> 5.65e-14 and
    2.33e-15 -> 2.00e-15, and the energy drifts moved in their last
    digits.  The test ids no longer carry the digest, so a re-record
    keeps them."""
    if case == "64_sites":
        p = LatticeParams(nu=1.5, f=1.0, beta=0.01, window=(-30, 33))
        trace = evolve(superposition_state(0, p), p, t_end=512 * DEFAULT_DT)
    else:
        rng = np.random.default_rng(4)
        p = LatticeParams(nu=1.5, f=0.7, beta=0.1, window=(-150, 149))
        c0 = (rng.normal(size=p.window_size)
              + 1j * rng.normal(size=p.window_size))
        trace = evolve(c0 / np.linalg.norm(c0), p, t_end=20.0, dt=1.0)
    assert hashlib.sha256(trace.states.tobytes()).hexdigest() == digest


@pytest.mark.parametrize("beta", [0.01, 0.1])
def test_evolve_matches_rk4_at_finite_hopping(beta):
    p = LatticeParams(nu=1.5, f=1.0, beta=beta, window=WINDOW)
    initial = superposition_state(0, p)
    t_end = 0.5 * BLOCH_PERIOD
    trace = evolve(initial, p, t_end=t_end)
    reference = rk4_trace(initial, p, t_end, DEFAULT_DT / 8)[::8]
    assert reference.shape == trace.states.shape
    assert np.max(np.abs(trace.states - reference)) < 1e-11


def test_evolve_validation():
    p = beating_params(1.5)
    good = superposition_state(0, p)
    with pytest.raises(DomainError):
        evolve(good, p, t_end=-1.0)
    with pytest.raises(DomainError):
        evolve(good, p, t_end=1.0, dt=0.0)
    with pytest.raises(DomainError):
        evolve(2.0 * good, p, t_end=1.0)
    # a NaN coefficient is bad input, not an integration failure
    with pytest.raises(DomainError, match="normalized"):
        evolve(np.where(np.arange(good.size) == 3, np.nan, good), p, t_end=1.0)
    with pytest.raises(ConfigurationError):
        evolve(good[:-1], p, t_end=1.0)
    with pytest.raises(ConfigurationError):
        evolve(np.stack([good, good]), p, t_end=1.0)


def test_evolve_matches_exact_zero_hopping_solution():
    # at beta = 0 every site rotates alone:
    # c_l(t) = c_l(0) exp(i (nu |c_l|^2/f + l) t)
    rng = np.random.default_rng(9)
    p = LatticeParams(nu=0.8, f=1.3, beta=0.0, window=(-3, 4))
    initial = rng.normal(size=p.window_size) + 1j * rng.normal(size=p.window_size)
    initial /= np.linalg.norm(initial)
    trace = evolve(initial, p, t_end=3.0, dt=1e-3)
    rates = p.nu * np.abs(initial) ** 2 / p.f + p.window_sites
    exact = initial * np.exp(1j * rates * trace.times[:, None])
    assert np.max(np.abs(trace.states - exact)) < 1e-10


def test_zero_hopping_step_is_exact_at_any_resolved_dt():
    # at beta = 0 the phase and the tilt commute, so the one-stage step is
    # the exact per-site solution however coarse the step
    rng = np.random.default_rng(9)
    p = LatticeParams(nu=0.8, f=1.3, beta=0.0, window=(-3, 4))
    initial = rng.normal(size=p.window_size) + 1j * rng.normal(size=p.window_size)
    initial /= np.linalg.norm(initial)
    trace = evolve(initial, p, t_end=200.0, dt=1.0)
    rates = p.nu * np.abs(initial) ** 2 / p.f + p.window_sites
    exact = initial * np.exp(1j * rates * trace.times[:, None])
    assert np.max(np.abs(trace.states - exact)) < 1e-12


def test_zero_hopping_trace_is_exact_over_twenty_bloch_periods():
    # criterion 7's 40,960 steps: each well state turns site by site as
    # c_l(0) exp(i (nu |c_l|^2/f + l) t'), and their sum beats as the
    # closed form
    x = 1.5
    p = beating_params(x)
    t_end = 20.0 * BLOCH_PERIOD
    for sites in ((0,), (0, 1), (-1, 0)):
        initial = build_state(SolutionSet(sites), p).coefficients.astype(complex)
        trace = evolve(initial, p, t_end=t_end)
        rates = p.nu * np.abs(initial) ** 2 / p.f + p.window_sites
        exact = initial * np.exp(1j * rates * trace.times[:, None])
        assert np.max(np.abs(trace.states - exact)) < 1e-12
    beating = beating_trace(0, p, t_end=t_end)
    closed_form = np.abs(beating_profile(x, "+++", beating.times)) ** 2
    assert np.max(np.abs(np.abs(beating.site_column(0)) ** 2
                         - closed_form)) < 1e-12


def test_zero_hopping_evolve_allocates_only_its_trace():
    # the closed form is written into the trace in place and the ledger
    # sums rows by einsum; 2,049 steps of 512 sites make a 16.8 MB trace,
    # so any trace-sized temporary would show
    p = LatticeParams(nu=1.5, f=1.0, beta=0.0, window=(-256, 255))
    initial = superposition_state(0, p)
    tracemalloc.start()
    try:
        trace = evolve(initial, p, t_end=2048 * DEFAULT_DT)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert trace.times.size == 2049
    assert peak - trace.states.nbytes < 1 << 20


def test_zero_hopping_evolve_rotates_only_the_occupied_span():
    # {0, 2} on a window centred on site 0, so evolve runs in the window's
    # own frame; the closed form is evaluated on sites 0..2 only, and each
    # occupied column must equal, bit for bit, the full-window formula
    # c0_l (cos k theta_l + i sin k theta_l) written in place as before
    p = LatticeParams(nu=2.5, f=1.0, beta=0.0, window=(-4, 4))
    c0 = build_state(SolutionSet((0, 2)), p).coefficients.astype(complex)
    dt, n_steps = DEFAULT_DT, 2048
    trace = evolve(c0, p, t_end=n_steps * dt, dt=dt)
    full = np.empty((n_steps + 1, p.window_size), dtype=complex)
    rate = dt * (p.window_sites + p.nu / p.f * np.abs(c0) ** 2)
    np.multiply.outer(np.arange(n_steps + 1), rate, out=full.imag)
    np.cos(full.imag, out=full.real)
    np.sin(full.imag, out=full.imag)
    full *= c0
    occupied = [0 - p.window[0], 2 - p.window[0]]
    empty = [c for c in range(p.window_size) if c not in occupied]
    assert np.array_equal(trace.states[:, occupied], full[:, occupied])
    assert np.all(np.abs(trace.states[:, occupied]) > 0)
    assert np.all(trace.states[:, empty] == 0)


def test_evolve_flags_an_unresolved_step():
    # absurdly large steps must be reported: here dt nu/f = 75 rad a step.
    # A unitary step keeps the norm, so the norm alone cannot show it.
    p = LatticeParams(nu=1.5, f=0.01, beta=0.5, window=WINDOW)
    initial = superposition_state(0, p)
    with pytest.raises(IntegrationError, match="reduce dt"):
        evolve(initial, p, t_end=40.0, dt=0.5)


def test_evolve_flags_energy_drift():
    # resolved (dt max(nu, 4 beta)/f = 2 < pi) but far too coarse: the
    # norm holds to round-off and the energy drifts
    p = LatticeParams(nu=1.5, f=1.0, beta=0.5, window=WINDOW)
    initial = superposition_state(0, p)
    with pytest.raises(IntegrationError, match="energy"):
        evolve(initial, p, t_end=40.0, dt=1.0)


def test_energy_drift_scale_does_not_vanish():
    # a delta one site below l0 with nu = 2f has energy nu/2 - f = 0 in
    # the l0 frame; relative to |E(0)| its round-off would read as breakdown
    p = LatticeParams(nu=1.0, f=0.5, beta=0.0, window=(-4, 4))
    initial = np.zeros(p.window_size, dtype=complex)
    initial[-1 - p.window[0]] = 1.0
    trace = evolve(initial, p, t_end=4.0 * BLOCH_PERIOD)
    assert trace.energy_drift < 1e-10


@pytest.mark.parametrize("n_rows, width, block, nan_row", [
    # 1,260 rows a block: two full blocks and a ragged one of 480
    (3000, 13, dynamics._LEDGER_BLOCK, None),
    # wider than the block, so each block holds one row
    (7, 40, 16, None),
    (1, 13, dynamics._LEDGER_BLOCK, None),
    # four rows a block; a NaN in the second must reach evolve's check
    (10, 4, 16, 6),
])
def test_drift_ledger_matches_its_direct_formula(n_rows, width, block,
                                                 nan_row, monkeypatch):
    monkeypatch.setattr(dynamics, "_LEDGER_BLOCK", block)
    rng = np.random.default_rng(n_rows + width)
    states = (rng.normal(size=(n_rows, width))
              + 1j * rng.normal(size=(n_rows, width)))
    # the last row, in the ragged block, carries both largest drifts
    states[-1] *= 1.5
    if nan_row is not None:
        states[nan_row, 1] = np.nan
    p = LatticeParams(nu=1.5, f=0.7, beta=0.1, window=(-5, width - 6))
    # the DynamicsTrace definitions, from |c|^2 and conj(c_l) c_{l+1}
    abs2 = np.abs(states) ** 2
    norms = abs2.sum(axis=1)
    bonds = (states[:, :-1].conj() * states[:, 1:]).real.sum(axis=1)
    hops = -p.beta * (2.0 * bonds + 2.0 * norms)
    nonlinear = 0.5 * p.nu * (abs2 ** 2).sum(axis=1)
    tilt = p.f * p.window_sites
    energies = hops + nonlinear + abs2 @ tilt
    scale = abs(hops[0]) + nonlinear[0] + abs2[0] @ np.abs(tilt)
    expected = (np.max(np.abs(norms - 1.0)),
                np.max(np.abs(energies - energies[0])) / scale)
    assert np.isnan(expected).all() == (nan_row is not None)
    np.testing.assert_allclose(dynamics._drifts(states, p), expected,
                               rtol=1e-14, atol=0)


def test_wide_window_step_stays_banded():
    # at the window cap one dense W x W complex propagator is 268 MB
    lo = -(MAX_WINDOW_SITES // 2)
    p = LatticeParams(nu=1.5, f=1.0, beta=0.01,
                      window=(lo, lo + MAX_WINDOW_SITES - 1))
    initial = superposition_state(0, p)
    tracemalloc.start()
    try:
        trace = evolve(initial, p, t_end=8 * DEFAULT_DT)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert trace.times.size == 9
    assert peak - trace.states.nbytes < 32 << 20


def test_evolve_refuses_oversized_trace_before_allocating():
    p = beating_params(1.5)
    good = superposition_state(0, p)
    # about 3.3e8 steps of 13 sites: some 70 GB of samples
    with pytest.raises(DomainError, match="bytes"):
        evolve(good, p, t_end=1e6)
    # the first step count whose trace is over the cap
    steps = MAX_TRACE_BYTES // (16 * p.window_size)
    with pytest.raises(DomainError, match="bytes"):
        evolve(good, p, t_end=steps * 0.01, dt=0.01)
    # t_end / dt is infinite: refused, not rounded into an OverflowError
    for t_end, dt in ((1e308, 1e-10), (20.0 * BLOCH_PERIOD, 5e-324)):
        with pytest.raises(DomainError, match="inf samples"):
            evolve(good, p, t_end=t_end, dt=dt)


# ---------------------------------------------------------------------------
# superposition


def test_superposition_state_support_and_norm():
    p = beating_params(1.5)
    vec = superposition_state(0, p)
    support = {int(s) for s, v in zip(p.window_sites, vec) if abs(v) > 1e-14}
    assert support == {-1, 0, 1}
    assert np.sum(np.abs(vec) ** 2) == pytest.approx(1.0, abs=1e-12)
    # site 0 proportional to the three-amplitude sum before normalization
    expected = 1.0 + math.sqrt(5.0 / 6.0) + math.sqrt(1.0 / 6.0)
    raw_norm = math.sqrt(5.0 / 6.0 + expected ** 2 + 1.0 / 6.0)
    site0 = vec[0 - p.window[0]]
    assert (site0 * raw_norm).real == pytest.approx(expected, rel=1e-12)
    assert abs(site0.imag) < 1e-15


@pytest.mark.parametrize("j", [1, -7, 1000, 10_000_000])
def test_superposition_on_the_shifted_window_is_well_zero_bit_for_bit(j):
    # the well-j states are the well-0 states shifted with their window
    p = beating_params(1.5)
    assert np.array_equal(superposition_state(j, p.shifted(j)),
                          superposition_state(0, p))


@pytest.mark.parametrize("j", [0.5, 1.0, True, "1"])
def test_well_index_must_be_an_integer(j):
    p = beating_params(1.5)
    with pytest.raises(DomainError, match="well index must be an integer"):
        superposition_state(j, p)
    with pytest.raises(DomainError, match="well index must be an integer"):
        beating_trace(j, p, t_end=BLOCH_PERIOD)


def test_superposition_requires_consistent_ratio():
    # the three well states coexist only above nu/f = 1, read from params
    for nu in (0.9, 1.0):
        with pytest.raises(DomainError, match="nu/f"):
            superposition_state(0, LatticeParams(nu=nu, f=1.0, window=WINDOW))


# ---------------------------------------------------------------------------
# spectrum


def test_spectrum_of_analytic_beating_profile_one_bin():
    for x in (1.5, 2.5, 4.0):
        _, t1, t2 = beat_periods(x)
        dt = BLOCH_PERIOD / 512.0
        t_end = 40.0 * BLOCH_PERIOD
        times = np.arange(0.0, t_end + dt / 2, dt)
        trace = trace_from_series(dt, beating_profile(x, "+++", times))
        peaks = spectrum(trace, 0)
        bin_width = 2.0 * math.pi / (times.size * dt)
        freqs = [f for f, _ in peaks]
        for expected in (2.0 * math.pi / t1, 2.0 * math.pi / t2):
            assert min(abs(f - expected) for f in freqs) <= bin_width, (x, expected)


def test_spectrum_constant_trace_single_dc_peak():
    times = np.arange(2048) * 0.01
    trace = trace_from_series(0.01, np.full(times.size, 0.8 + 0.0j))
    peaks = spectrum(trace, 0)
    assert len(peaks) == 1
    assert peaks[0][0] == 0.0


def test_spectrum_peaks_at_both_array_ends():
    # |c|^2 = 0.5 + 0.25 (-1)^k: the DC line and the last rfft bin, pi/dt,
    # are maxima with one neighbour each
    dt = 0.01
    k = np.arange(2048)
    trace = trace_from_series(dt, np.sqrt(0.5 + 0.25 * (-1.0) ** k))
    peaks = spectrum(trace, 0)
    assert [f for f, _ in peaks] == [
        0.0, 2.0 * math.pi * np.fft.rfftfreq(k.size, d=dt)[-1]]
    assert peaks[1][0] == pytest.approx(math.pi / dt, rel=1e-15)
    assert [p for _, p in peaks] == pytest.approx([262144.0, 65536.0],
                                                  rel=1e-9)


def test_spectrum_short_trace_rejected():
    times = np.arange(512) * 0.01
    trace = trace_from_series(0.01, np.exp(1j * times))
    with pytest.raises(DomainError):
        spectrum(trace, 0)


@pytest.mark.parametrize("site", [1.5, True, "1"])
@pytest.mark.parametrize("read", ["coefficient_at", "site_column", "spectrum"])
def test_site_must_be_an_integer(read, site):
    p = beating_params(1.5)
    state = build_state(SolutionSet((0, 1)), p)
    trace = trace_from_series(0.01, np.ones(2048))
    call = {"coefficient_at": state.coefficient_at,
            "site_column": trace.site_column,
            "spectrum": lambda s: spectrum(trace, s)}[read]
    with pytest.raises(DomainError, match="site must be an integer"):
        call(site)


def test_beating_trace_around_other_wells():
    x = 2.5
    nu = 0.05
    p = LatticeParams(nu=nu, f=nu / x, beta=0.0, window=(-3, 9))
    trace = beating_trace(3, p, t_end=6.0 * BLOCH_PERIOD)
    peaks = spectrum(trace, 3)
    bin_width = 2.0 * math.pi / (trace.times.size * trace.dt)
    _, t1, t2 = beat_periods(x)
    freqs = [f for f, _ in peaks]
    for expected in (2.0 * math.pi / t1, 2.0 * math.pi / t2):
        assert min(abs(f - expected) for f in freqs) <= 2.0 * bin_width


@pytest.mark.parametrize("j", [1000, 10_000_000])
@pytest.mark.parametrize("beta", [0.0, 0.01])
def test_beating_trace_on_a_far_well_matches_well_zero(beta, j):
    # the lattice is translation invariant: moving the three states and the
    # window by j only adds the phase e^{i j t'}
    x = 1.5
    near = beating_trace(0, beating_params(x, beta=beta),
                         t_end=2.0 * BLOCH_PERIOD)
    far = beating_trace(j, beating_params(x, beta=beta).shifted(j),
                        t_end=2.0 * BLOCH_PERIOD)
    assert far.norm_drift < 1e-10
    # abs=0: approx would otherwise admit any drift within 1e-12
    assert far.energy_drift == pytest.approx(near.energy_drift, rel=0.1, abs=0)
    np.testing.assert_array_equal(far.times, near.times)
    np.testing.assert_allclose(np.abs(far.states) ** 2,
                               np.abs(near.states) ** 2, rtol=0, atol=1e-10)
    phase = np.exp(1j * j * near.times)[:, None]
    np.testing.assert_allclose(far.states, near.states * phase,
                               rtol=0, atol=1e-9)


def test_beating_trace_sums_its_members_in_place():
    # the criterion-7 beating: 20 Bloch periods of three 13-site traces,
    # 8.5 MB each
    p = beating_params(1.5)
    t_end = 20 * BLOCH_PERIOD
    members = [evolve(build_state(SolutionSet(s), p).coefficients
                      .astype(complex), p, t_end)
               for s in ((0,), (0, 1), (-1, 0))]
    tracemalloc.start()
    try:
        trace = beating_trace(0, p, t_end)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    a, b, c = (m.states for m in members)
    np.testing.assert_array_equal(trace.states, (a + b) + c)
    assert trace.norm_drift == max(m.norm_drift for m in members)
    assert trace.energy_drift == max(m.energy_drift for m in members)
    # the running sum and one member: a third trace would add 8.5 MB
    extra = peak - 2 * trace.states.nbytes
    assert extra < 4 << 20


# ---------------------------------------------------------------------------
# frequency-count growth


def test_pairwise_frequency_count_grows_with_ratio():
    def distinct_differences(x):
        energies = set()
        for s in enumerate_solution_sets(x):
            n = s.cardinality
            mu_over_f = x / n + sum(s.sites) / n
            for site in s.sites:
                # translate so the tracked well is site 0
                energies.add(round(mu_over_f - site, 9))
        diffs = {round(abs(a - b), 9)
                 for a in energies for b in energies if a != b}
        return len(diffs)

    assert distinct_differences(6.0) > distinct_differences(2.0)
