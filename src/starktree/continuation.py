"""Newton continuation of zero-hopping states to finite hopping.

The full stationary problem mu c_l = -beta(c_{l+1} + c_{l-1} + 2 c_l)
+ nu c_l^3 + f l c_l is solved on the finite window with Dirichlet ends,
with mu kept as an unknown next to the c_l and the normalization
sum c^2 = 1 closing the square system.  Persistence away from beta = 0 is
certified by the rescaled zero-hopping Jacobian being diagonal with entries
T_l = f l / mu - 1 + 3 c_l'^2, which vanish only at a resonance mu = f l on
an empty site; such sets are refused.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .anticontinuum import (
    LatticeParams,
    SolutionSet,
    StationaryState,
    build_state,
)
from .errors import (
    ConfigurationError,
    DomainError,
    ResonanceError,
    SolverError,
    check_int,
    check_real,
)

NEWTON_TOL = 1e-12
NEWTON_MAX_ITER = 50

# mu/f closer than this to an empty integer rung counts as resonant.
RESONANCE_TOL = 1e-9

# Largest number of beta steps one continuation may take; 20,000 steps of
# a two-site set take a few seconds, so larger requests are refused.
MAX_CONTINUATION_STEPS = 10_000


@dataclass
class ContinuationResult:
    """Continued state plus the walk that produced it.

    path entries are (beta, residual max-norm, Newton iterations);
    certificate is min |T_l| of the zero-hopping diagonal Jacobian.
    """

    state: StationaryState
    path: list[tuple[float, float, int]] = field(repr=False)
    certificate: float

    def __post_init__(self):
        assert self.certificate > 0


def _residual(c: np.ndarray, mu: float, params: LatticeParams) -> np.ndarray:
    """Stationary residual per site plus the normalization row."""
    sites = params.window_sites
    r = (params.hopping(c) + params.nu * c ** 3
         + params.f * sites * c - mu * c)
    return np.append(r, np.sum(c ** 2) - 1.0)


def _jacobian(c: np.ndarray, mu: float, params: LatticeParams) -> np.ndarray:
    """Jacobian of `_residual` in the unknowns (c, mu): tridiagonal block
    plus the mu column and the normalization row."""
    w = c.size
    sites = params.window_sites
    jac = np.zeros((w + 1, w + 1))
    diag = -2.0 * params.beta + 3.0 * params.nu * c ** 2 + params.f * sites - mu
    jac[:w, :w] = np.diag(diag)
    off = np.full(w - 1, -params.beta)
    jac[:w, :w] += np.diag(off, 1) + np.diag(off, -1)
    jac[:w, w] = -c
    jac[w, :w] = 2.0 * c
    return jac


def _check_windows(state: StationaryState, params: LatticeParams):
    if params.window != state.params.window:
        raise ConfigurationError(
            f"state window {state.params.window} differs from "
            f"requested window {params.window}"
        )


def dnls_residual(state: StationaryState,
                  params: LatticeParams | None = None) -> np.ndarray:
    """Full stationary residual of a state, normalization row appended.

    `params` overrides the state's own parameters (same window required),
    which is how a state is tested against a new hopping value.
    """
    if params is None:
        params = state.params
    else:
        _check_windows(state, params)
    return _residual(state.coefficients, state.mu, params)


def extended_jacobian(state: StationaryState,
                      params: LatticeParams | None = None) -> np.ndarray:
    """Analytic Jacobian of `dnls_residual` in (coefficients, mu)."""
    if params is None:
        params = state.params
    else:
        _check_windows(state, params)
    return _jacobian(state.coefficients, state.mu, params)


def jacobian_diagonal_t0(state: StationaryState) -> tuple[np.ndarray, float]:
    """Diagonal T_l of the rescaled Jacobian at zero hopping, and min |T_l|.

    On the support T_l = 2(1 - f l / mu) > 0; off the support
    T_l = f l / mu - 1, which vanishes exactly at a resonance mu = f l.
    Raises ResonanceError when an empty window site is within
    RESONANCE_TOL of mu/f (the certificate would be zero and continuation
    has no smooth branch to follow), and DomainError when mu <= 0, where
    the rescaling by mu is undefined.
    """
    if state.set is None:
        raise ConfigurationError(
            "zero-hopping certificate needs a state with exact support"
        )
    mu, p = check_real(state.mu, "base energy mu", above=0), state.params
    sites = state.window_sites
    mu_over_f = mu / p.f
    for site in sites:
        if site not in state.set and abs(mu_over_f - site) < RESONANCE_TOL:
            raise ResonanceError(
                f"mu/f = {mu_over_f} resonant with empty site {site}; "
                f"zero-hopping Jacobian is singular"
            )
    # hopping and tilt in units of mu, amplitudes rescaled by sqrt(nu/mu)
    c_scaled = np.sqrt(p.nu / mu) * state.coefficients
    t_diag = p.f / mu * sites - 1.0 + 3.0 * c_scaled ** 2
    return t_diag, float(np.min(np.abs(t_diag)))


def _newton(c: np.ndarray, mu: float, params: LatticeParams, tol: float,
            max_iter: int) -> tuple[np.ndarray, float, float, int]:
    """Newton on the extended system.  Returns (c, mu, residual norm, iters)."""
    c = c.astype(float, copy=True)
    r = _residual(c, mu, params)
    norm = float(np.max(np.abs(r)))
    for iteration in range(1, max_iter + 1):
        if norm < tol:
            return c, mu, norm, iteration - 1
        try:
            step = np.linalg.solve(_jacobian(c, mu, params), -r)
        except np.linalg.LinAlgError as exc:
            raise SolverError(f"singular Jacobian at beta = {params.beta}: {exc}",
                              residual=norm) from exc
        c += step[:-1]
        mu += step[-1]
        r = _residual(c, mu, params)
        norm = float(np.max(np.abs(r)))
        if not math.isfinite(norm):
            raise SolverError(
                f"Newton diverged at beta = {params.beta}", residual=norm
            )
    if norm < tol:
        return c, mu, norm, max_iter
    raise SolverError(
        f"no convergence in {max_iter} iterations at beta = {params.beta} "
        f"(residual {norm:.3e})",
        residual=norm,
    )


def newton_solve(guess: StationaryState, params: LatticeParams,
                 tol: float = NEWTON_TOL,
                 max_iter: int = NEWTON_MAX_ITER) -> StationaryState:
    """Solve the finite-hopping stationary system from a warm start.

    mu is an unknown alongside the coefficients.  An already-converged
    guess is returned unchanged; otherwise the result loses its exact-
    support bookkeeping (set/signs become None).
    """
    tol = check_real(tol, "tolerance", above=0)
    max_iter = check_int(max_iter, "max_iter", 1)
    # written so that a NaN coefficient fails the check too
    if not abs(guess.norm_sq() - 1.0) <= 1e-6:
        raise DomainError("Newton guess must be normalized")
    _check_windows(guess, params)
    c, mu, _, iters = _newton(guess.coefficients, guess.mu, params, tol, max_iter)
    if iters == 0:
        return replace(guess, params=params,
                       coefficients=guess.coefficients.copy())
    return StationaryState(params=params, coefficients=c, mu=mu,
                           set=None, signs=None)


def continue_in_beta(sset: SolutionSet, params: LatticeParams, beta_target,
                     steps: int = 10, signs=None,
                     tol: float = NEWTON_TOL,
                     max_iter: int = NEWTON_MAX_ITER) -> ContinuationResult:
    """Walk the branch of a set from beta = 0 to beta_target.

    Natural-parameter continuation in uniform beta steps, each Newton solve
    warm-started from the previous state.  The zero-hopping certificate is
    computed up front and a resonant set is refused before any stepping.
    A failed step raises SolverError carrying the path walked so far.
    """
    beta_target = check_real(beta_target, "beta_target", at_least=0)
    steps = check_int(steps, "steps", 1, MAX_CONTINUATION_STEPS)
    tol = check_real(tol, "tolerance", above=0)
    base_params = replace(params, beta=0.0)
    state = build_state(sset, base_params, signs=signs)
    _, certificate = jacobian_diagonal_t0(state)
    path = [(0.0, float(np.max(np.abs(dnls_residual(state)))), 0)]
    if beta_target == 0.0:
        return ContinuationResult(state=state, path=path, certificate=certificate)
    c, mu = state.coefficients, state.mu
    for k in range(1, steps + 1):
        beta_k = beta_target * k / steps
        step_params = replace(params, beta=beta_k)
        try:
            c, mu, norm, iters = _newton(c, mu, step_params, tol, max_iter)
        except SolverError as exc:
            exc.path = list(path)
            raise
        path.append((beta_k, norm, iters))
    final = StationaryState(params=replace(params, beta=beta_target),
                            coefficients=c, mu=mu, set=None, signs=None)
    return ContinuationResult(state=final, path=path, certificate=certificate)
