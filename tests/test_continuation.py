import warnings
from dataclasses import replace

import numpy as np
import pytest

from starktree import continuation
from starktree import (
    ConfigurationError,
    DomainError,
    LatticeParams,
    ResonanceError,
    SolutionSet,
    SolverError,
    StationaryState,
    build_state,
    continue_in_beta,
    dnls_residual,
    energy_of_set,
    enumerate_solution_sets,
    extended_jacobian,
    jacobian_diagonal_t0,
    newton_solve,
)

S0 = SolutionSet((0,))
S01 = SolutionSet((0, 1))


def params_for(sset, x, f=1.0, beta=0.0):
    return LatticeParams.for_set(sset, nu=x * f, f=f, beta=beta)


# ---------------------------------------------------------------------------
# residual


def test_residual_zero_on_anticontinuum_state():
    st = build_state(S01, params_for(S01, 1.5))
    assert np.max(np.abs(dnls_residual(st))) < 1e-15


def test_residual_hand_computed_for_hopped_singleton():
    # c = delta_0, mu = nu, beta = 0.1: the hopping term alone survives
    p = params_for(S0, 2.0)
    st = build_state(S0, p)
    r = dnls_residual(replace(st, params=replace(p, beta=0.1)))
    lo = p.window[0]
    assert r[0 - lo] == pytest.approx(-0.2, rel=1e-12)
    assert r[1 - lo] == pytest.approx(-0.1, rel=1e-12)
    assert r[-1 - lo] == pytest.approx(-0.1, rel=1e-12)
    assert np.max(np.abs(r)) == pytest.approx(0.2, rel=1e-12)
    assert abs(r[-1]) < 1e-15  # normalization row untouched


def test_residual_translation_covariance():
    # the beta = 0.07 residuals of a zero-hopping state and of its copy two
    # rungs down, each read on its own window at that hopping
    p = LatticeParams(nu=1.5, f=1.0, beta=0.07, window=(-7, 8))
    r = dnls_residual(replace(build_state(S01, p), params=p))
    assert np.max(np.abs(r)) > 0.01
    shifted = build_state(SolutionSet((2, 3)), p.shifted(2))
    np.testing.assert_allclose(
        dnls_residual(replace(shifted, params=p.shifted(2))), r,
        rtol=0.0, atol=1e-14)


def test_each_state_is_stationary_in_its_own_params():
    # a state's params are the model it solves: build_state's the beta = 0
    # model whatever beta it is given, newton_solve's and continue_in_beta's
    # the model at their beta
    p = params_for(S01, 1.5, beta=0.07)
    built = build_state(S01, p)
    continued = continue_in_beta(S01, p).state
    assert built.params == replace(p, beta=0.0)
    assert continued.params == p
    for state in (built, newton_solve(built, 0.01), continued):
        assert np.max(np.abs(state.params.residual(state.coefficients,
                                                   state.mu))) < 1e-12


# ---------------------------------------------------------------------------
# zero-hopping Jacobian diagonal


def test_t0_on_support_closed_form():
    rng = np.random.default_rng(3)
    for _ in range(40):
        x = float(rng.uniform(0.3, 9.0))
        sets = enumerate_solution_sets(x)
        s = sets[rng.integers(len(sets))]
        p = params_for(s, x, f=0.8)
        st = build_state(s, p)
        mu_over_f = st.mu / p.f
        if any(abs(mu_over_f - site) < 1e-6 for site in p.window_sites
               if site not in s):
            continue  # resonant draw, refused by design
        t_diag, min_abs = jacobian_diagonal_t0(st)
        assert min_abs > 0
        lo = p.window[0]
        for site in s.sites:
            expected = 2.0 * (1.0 - p.f * site / st.mu)
            assert t_diag[site - lo] == pytest.approx(expected, rel=1e-12)
            assert t_diag[site - lo] > 0


def test_t0_empty_sites_half_ratio_example():
    # S = {0}, nu/f = 1/2: off the support T_l = 2l - 1, never zero
    p = params_for(S0, 0.5)
    st = build_state(S0, p)
    t_diag, min_abs = jacobian_diagonal_t0(st)
    lo = p.window[0]
    for site in p.window_sites:
        if site != 0:
            assert t_diag[site - lo] == pytest.approx(2.0 * site - 1.0, rel=1e-12)
    assert min_abs == pytest.approx(1.0, rel=1e-12)


def test_t0_resonance_detected():
    p = params_for(S0, 1.0)
    st = build_state(S0, p)
    with pytest.raises(ResonanceError):
        jacobian_diagonal_t0(st)


def test_t0_zero_certificate_is_resonance():
    # nu/f = 1 + 2^-52 on {0, 1}: T_1 = 2(1 - f/mu) rounds to 0.0 on an
    # occupied site, far from any empty rung
    sset = SolutionSet((0, 1))
    st = build_state(sset, params_for(sset, 1.0000000000000002))
    with pytest.raises(ResonanceError, match="certificate"):
        jacobian_diagonal_t0(st)


def test_t0_requires_positive_energy():
    # {-5} at nu = f = 1 is admissible with mu = 1 - 5 = -4: the rescaling
    # by mu behind the certificate is undefined
    sset = SolutionSet((-5,))
    st = build_state(sset, LatticeParams.for_set(sset, nu=1.0, f=1.0))
    assert st.mu == -4.0
    with pytest.raises(DomainError):
        jacobian_diagonal_t0(st)


@pytest.mark.parametrize("x", [1e-320, 1.5e-308])
def test_t0_refuses_a_ratio_beyond_double_precision(x):
    # f/mu at mu/f = x overflows: T_l would be inf, or NaN on site 0, and
    # numpy's warning would only repeat the refusal
    st = build_state(S0, params_for(S0, x))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="beyond double precision"):
            jacobian_diagonal_t0(st)


def test_t0_requires_exact_support():
    # a continued state has no exact support (set None) to certify
    st = continue_in_beta(S0, params_for(S0, 2.5, beta=0.01), steps=1).state
    assert st.set is None
    with pytest.raises(ConfigurationError, match="exact support"):
        jacobian_diagonal_t0(st)


# ---------------------------------------------------------------------------
# Jacobian vs central finite differences


def fd_jacobian(state, h=1e-6):
    size = state.coefficients.size + 1
    jac = np.zeros((size, size))
    for k in range(size - 1):
        cp = state.coefficients.copy()
        cm = state.coefficients.copy()
        cp[k] += h
        cm[k] -= h
        rp = dnls_residual(replace(state, coefficients=cp))
        rm = dnls_residual(replace(state, coefficients=cm))
        jac[:, k] = (rp - rm) / (2.0 * h)
    rp = dnls_residual(replace(state, mu=state.mu + h))
    rm = dnls_residual(replace(state, mu=state.mu - h))
    jac[:, -1] = (rp - rm) / (2.0 * h)
    return jac


def random_states(seed, count, window=(-4, 5)):
    """Normalized random states with random nu, f, beta and mu."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        p = LatticeParams(nu=float(rng.uniform(0.5, 3.0)),
                          f=float(rng.uniform(0.4, 2.0)),
                          beta=float(rng.uniform(0.0, 0.3)),
                          window=window)
        c = rng.normal(size=p.window_size)
        c /= np.linalg.norm(c)
        yield StationaryState(params=p, coefficients=c,
                              mu=float(rng.uniform(-1.0, 3.0)))


def test_jacobian_matches_finite_differences():
    for st in random_states(29, 10):
        analytic = extended_jacobian(st.coefficients, st.mu, st.params)
        numeric = fd_jacobian(st)
        scale = np.max(np.abs(analytic))
        assert np.max(np.abs(analytic - numeric)) / scale < 1e-6


def test_jacobian_is_bit_for_bit_the_written_out_formula():
    # every Newton iterate, and with it every continuation golden, rests on
    # these entries; the finite-difference check cannot see how the
    # diagonal terms are associated
    for st in random_states(37, 200, window=(-7, 6)):
        p, c, w = st.params, st.coefficients, st.coefficients.size
        expected = np.zeros((w + 1, w + 1))
        expected[:w, :w] = np.diag(-2.0 * p.beta + 3.0 * p.nu * c ** 2
                                   + p.f * p.window_sites - st.mu)
        expected[:w, :w] += (np.diag(np.full(w - 1, -p.beta), 1)
                             + np.diag(np.full(w - 1, -p.beta), -1))
        expected[:w, w] = -c
        expected[w, :w] = 2.0 * c
        assert np.array_equal(extended_jacobian(c, st.mu, p), expected)


def test_hopping_operator_is_the_jacobian_off_diagonal():
    # the stencil shared by the stationary and the time-dependent equation
    # must stay the one the analytic Jacobian differentiates
    rng = np.random.default_rng(31)
    beta = 0.3
    p = LatticeParams(nu=1.0, f=1.0, beta=beta, window=(-6, 6))
    w = p.window_size
    tri = extended_jacobian(np.zeros(w), 0.5, p)[:w, :w]
    off = tri - np.diag(np.diag(tri))
    for c in (rng.normal(size=w), rng.normal(size=w) + 1j * rng.normal(size=w)):
        np.testing.assert_allclose(p.hopping(c), off @ c - 2.0 * beta * c,
                                   rtol=0.0, atol=1e-14)


# ---------------------------------------------------------------------------
# Newton


def test_newton_exact_guess_returns_unchanged():
    p = params_for(S01, 1.5)
    st = build_state(S01, p)
    out = newton_solve(st, p.beta)
    assert out.set == S01  # zero iterations keep the exact-support tag
    assert np.array_equal(out.coefficients, st.coefficients)
    assert not np.shares_memory(out.coefficients, st.coefficients)
    assert out.mu == st.mu


def test_newton_small_hopping_singleton():
    p = params_for(S0, 0.5)
    st = build_state(S0, p)
    beta = 0.01 * st.mu  # beta' = 0.01
    out = newton_solve(st, beta)
    assert np.max(np.abs(dnls_residual(out))) < 1e-12
    assert abs(out.coefficient_at(1)) > 0
    assert abs(out.coefficient_at(-1)) > 0
    assert out.set is None


def test_newton_at_resonance_finds_only_spurious_root():
    # At nu/f = 1 the implicit-function argument fails: the nearby root has
    # |c_1| ~ beta^(1/3), far off the O(beta) perturbative scale.  Refusal is
    # the certificate's job (exercised below), not raw Newton's.
    p = params_for(S0, 1.0)
    st = build_state(S0, p)
    beta = 0.01 * st.mu
    try:
        out = newton_solve(st, beta)
    except SolverError:
        return
    assert abs(out.coefficient_at(1)) > 5.0 * beta


def test_newton_rejects_unnormalized_guess():
    p = params_for(S0, 2.0)
    st = build_state(S0, p)
    bad = replace(st, coefficients=2.0 * st.coefficients)
    with pytest.raises(DomainError):
        newton_solve(bad, p.beta)
    # a NaN coefficient is bad input, not a singular Jacobian
    nan_guess = replace(st, coefficients=np.where(st.coefficients != 0.0,
                                                  st.coefficients, np.nan))
    with pytest.raises(DomainError, match="normalized"):
        newton_solve(nan_guess, p.beta)


def test_newton_nonconvergence_carries_residual(monkeypatch):
    p = params_for(S0, 2.0)
    st = build_state(S0, p)
    monkeypatch.setattr(continuation, "NEWTON_MAX_ITER", 1)
    with pytest.raises(SolverError) as err:
        newton_solve(st, 0.3)
    assert err.value.residual is not None


def test_newton_singular_jacobian_raises():
    # at nu = f = 1 the singleton {0} has mu = 1, resonant with the empty
    # site 1; at beta = 0 that site's Jacobian row is zero while c_1 = 0
    p = params_for(S0, 1.0)
    st = build_state(S0, p)
    c = st.coefficients.copy()
    lo = p.window[0]
    c[0 - lo], c[-1 - lo] = 0.9, 0.3
    c /= np.sqrt(np.sum(c ** 2))
    assert c[1 - lo] == 0.0 and st.mu == 1.0
    with pytest.raises(SolverError,
                       match=r"^singular Jacobian at beta = 0\.0: ") as err:
        newton_solve(replace(st, coefficients=c, set=None), 0.0)
    assert err.value.residual > 0


def test_newton_divergence_keeps_only_the_start_of_the_path():
    p = LatticeParams.for_set(S01, nu=1.5, f=1.0, beta=1e307)
    with pytest.raises(SolverError,
                       match=r"^Newton diverged at beta = 1e\+307$") as err:
        continue_in_beta(S01, p, steps=1)
    assert len(err.value.path) == 1
    assert err.value.path[0][0] == 0.0


# ---------------------------------------------------------------------------
# continuation


def test_continuation_zero_target_is_build_state():
    p = params_for(S01, 1.5)
    result = continue_in_beta(S01, p)
    reference = build_state(S01, p)
    assert np.array_equal(result.state.coefficients, reference.coefficients)
    assert result.state.mu == reference.mu
    assert result.path == [(0.0, pytest.approx(0.0, abs=1e-14), 0)]


def test_continuation_round_trip():
    p = params_for(S01, 1.5)
    mu_s = energy_of_set(S01, p.nu, p.f)
    beta_target = 0.02 * mu_s
    result = continue_in_beta(S01, replace(p, beta=beta_target), steps=10)
    assert result.certificate > 0
    assert all(res < 1e-12 for _, res, _ in result.path)
    state = result.state
    for beta in np.linspace(beta_target, 0.0, 11)[1:]:
        state = newton_solve(state, float(beta))
    reference = build_state(S01, p)
    assert np.max(np.abs(state.coefficients - reference.coefficients)) < 1e-10
    assert abs(state.mu - reference.mu) < 1e-10


def test_continuation_deviation_linear_in_beta():
    p = params_for(S0, 0.5)
    base = build_state(S0, p)
    deviations = []
    for beta_prime in (0.01, 0.005, 0.0025):
        result = continue_in_beta(S0, replace(p, beta=beta_prime * base.mu),
                                  steps=5)
        deviations.append(float(np.max(np.abs(
            result.state.coefficients - base.coefficients))))
    assert 1.8 < deviations[0] / deviations[1] < 2.2
    assert 1.8 < deviations[1] / deviations[2] < 2.2


def test_continuation_mu_continuous_along_path():
    beta_target = 0.03
    p = params_for(SolutionSet((0, 1, 2)), 4.0, beta=beta_target)
    steps = 12
    mus = [build_state(SolutionSet((0, 1, 2)), p).mu]
    state = None
    result = continue_in_beta(SolutionSet((0, 1, 2)), p, steps=steps)
    # reconstruct per-step energies by re-walking with the public API
    state = build_state(SolutionSet((0, 1, 2)), replace(p, beta=0.0))
    for k in range(1, steps + 1):
        state = newton_solve(state, beta_target * k / steps)
        mus.append(state.mu)
    assert state.mu == pytest.approx(result.state.mu, abs=1e-12)
    jumps = np.abs(np.diff(mus))
    slope = np.mean(jumps) / (beta_target / steps)
    assert np.all(jumps <= 10.0 * (beta_target / steps) * slope + 1e-12)


def test_continuation_translation_covariance_at_finite_hopping():
    x, beta = 2.5, 0.04
    s = SolutionSet((0, 2))
    shifted = SolutionSet((3, 5))
    p = LatticeParams.for_set(s, nu=x, f=1.0, beta=beta)
    p_shifted = p.shifted(3)
    res = continue_in_beta(s, p, steps=8)
    res_shifted = continue_in_beta(shifted, p_shifted, steps=8)
    assert np.max(np.abs(res_shifted.state.coefficients
                         - res.state.coefficients)) < 1e-10
    assert res_shifted.state.mu == pytest.approx(res.state.mu + 3.0, abs=1e-10)


def test_continuation_refuses_resonant_set():
    p = params_for(S0, 1.0, beta=0.01)
    with pytest.raises(ResonanceError) as err:
        continue_in_beta(S0, p)
    assert err.value.path == []


# beta * steps / steps is not beta for any of these pairs
@pytest.mark.parametrize("beta, steps", [(0.1, 3), (0.02, 29), (0.013, 5)])
def test_continuation_lands_on_its_target(beta, steps):
    result = continue_in_beta(S01, params_for(S01, 4.5, beta=beta), steps=steps)
    assert len(result.path) == steps + 1
    assert result.path[-1][0] == result.state.params.beta == beta
    assert [b for b, _, _ in result.path[1:-1]] == [beta * k / steps
                                                    for k in range(1, steps)]


def test_continuation_step_count_is_bounded(monkeypatch):
    def newton_must_not_run(*args, **kwargs):
        raise AssertionError("an over-long continuation reached Newton")

    p = params_for(S01, 1.5)
    monkeypatch.setattr(continuation, "_newton", newton_must_not_run)
    for steps in (continuation.MAX_CONTINUATION_STEPS + 1, 10 ** 9):
        with pytest.raises(DomainError, match="steps"):
            continue_in_beta(S01, replace(p, beta=0.01), steps=steps)
    monkeypatch.undo()
    result = continue_in_beta(S01, replace(p, beta=1e-6),
                              steps=continuation.MAX_CONTINUATION_STEPS)
    assert len(result.path) == continuation.MAX_CONTINUATION_STEPS + 1


def test_continuation_failure_carries_partial_path(monkeypatch):
    # a hopelessly large single step starves Newton of its basin
    p = params_for(S0, 0.5, beta=50.0)
    monkeypatch.setattr(continuation, "NEWTON_MAX_ITER", 6)
    with pytest.raises(SolverError) as err:
        continue_in_beta(S0, p, steps=2)
    assert len(err.value.path) >= 1
    assert err.value.path[0][0] == 0.0


def test_continuation_certificate_positive_across_random_sets():
    rng = np.random.default_rng(41)
    done = 0
    while done < 20:
        x = float(rng.uniform(0.2, 6.0))
        sets = enumerate_solution_sets(x)
        s = sets[rng.integers(len(sets))]
        mu_over_f = x / len(s) + sum(s.sites) / len(s)
        if any(abs(mu_over_f - site) < 1e-6
               for site in range(s.sites[0] - 5, s.sites[-1] + 6)
               if site not in s):
            continue
        p = params_for(s, x, f=1.3)
        result = continue_in_beta(s, p)
        assert result.certificate > 0
        done += 1
