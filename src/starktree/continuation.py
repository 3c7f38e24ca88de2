"""Newton continuation of zero-hopping states to finite hopping.

The full stationary problem mu c_l = -beta(c_{l+1} + c_{l-1} + 2 c_l)
+ nu c_l^3 + f l c_l, written once as `LatticeParams.residual`, is solved
on the finite window with Dirichlet ends, with mu kept as an unknown next
to the c_l and the normalization sum c^2 = 1 closing the square system.
The Jacobian's site block starts from the hopping stencil's matrix.
Persistence away from beta = 0 is certified by the rescaled zero-hopping
Jacobian being diagonal with entries T_l = f l / mu - 1 + 3 c_l'^2, which
vanish only at a resonance mu = f l on an empty site; such sets are refused.
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

__all__ = ["ContinuationResult", "continue_in_beta", "dnls_residual",
           "extended_jacobian", "jacobian_diagonal_t0", "newton_solve"]

NEWTON_TOL = 1e-12
NEWTON_MAX_ITER = 50

# mu/f closer than this to an empty integer rung counts as resonant.
RESONANCE_TOL = 1e-9

# Beta steps of a continuation when the caller gives none.
DEFAULT_CONTINUATION_STEPS = 10

# Largest number of beta steps one continuation may take; 20,000 steps of
# a two-site set take a few seconds, so larger requests are refused.
MAX_CONTINUATION_STEPS = 10_000


@dataclass
class ContinuationResult:
    """Continued state plus the walk that produced it.

    path entries are (beta, residual max-norm, Newton iterations);
    certificate is min |T_l| > 0 of the zero-hopping diagonal Jacobian.
    """

    state: StationaryState
    path: list[tuple[float, float, int]] = field(repr=False)
    certificate: float


def extended_jacobian(c: np.ndarray, mu: float,
                      params: LatticeParams) -> np.ndarray:
    """Jacobian of `LatticeParams.residual` in the unknowns (c, mu): the
    hopping matrix plus the on-site terms, the mu column and the
    normalization row."""
    w = c.size
    jac = np.zeros((w + 1, w + 1))
    jac[:w, :w] = params.hopping(np.eye(w))
    # summed as ((-2 beta + 3 nu c^2) + f l) - mu, the order every Newton
    # iterate, and with it every continuation golden, was recorded with
    d = np.diag_indices(w)
    jac[d] = (jac[d] + 3.0 * params.nu * c ** 2
              + params.f * params.window_sites - mu)
    jac[:w, w] = -c
    jac[w, :w] = 2.0 * c
    return jac


def dnls_residual(state: StationaryState) -> np.ndarray:
    """Full stationary residual of a state, normalization row appended."""
    return state.params.residual(state.coefficients, state.mu)


def jacobian_diagonal_t0(state: StationaryState) -> tuple[np.ndarray, float]:
    """Diagonal T_l of the rescaled Jacobian at zero hopping, and min |T_l|.

    On the support T_l = 2(1 - f l / mu) > 0; off the support
    T_l = f l / mu - 1, which vanishes exactly at a resonance mu = f l.
    Raises ResonanceError when an empty window site is within
    RESONANCE_TOL of mu/f or min |T_l| rounds to zero (the certificate
    would be zero and continuation has no smooth branch to follow), and
    DomainError when mu <= 0, where the rescaling by mu is undefined, or
    when mu/f is so small that T_l is not a finite double.
    """
    if state.set is None:
        raise ConfigurationError(
            "zero-hopping certificate needs a state with exact support"
        )
    mu, p = check_real(state.mu, "base energy mu", above=0), state.params
    sites = p.window_sites
    mu_over_f = mu / p.f
    for site in sites:
        if site not in state.set and abs(mu_over_f - site) < RESONANCE_TOL:
            raise ResonanceError(
                f"mu/f = {mu_over_f} resonant with empty site {site}; "
                f"zero-hopping Jacobian is singular"
            )
    # hopping and tilt in units of mu, amplitudes rescaled by sqrt(nu/mu)
    c_scaled = np.sqrt(p.nu / mu) * state.coefficients
    # at a tiny mu/f, f/mu times a site overflows, or times site 0 is NaN
    with np.errstate(over="ignore", invalid="ignore"):
        t_diag = p.f / mu * sites - 1.0 + 3.0 * c_scaled ** 2
    if not np.all(np.isfinite(t_diag)):
        raise DomainError(f"zero-hopping certificate at mu/f = {mu_over_f} "
                          "is beyond double precision")
    certificate = float(np.min(np.abs(t_diag)))
    if not certificate > 0:
        raise ResonanceError(
            f"zero-hopping certificate min |T_l| = {certificate} at "
            f"mu/f = {mu_over_f}; zero-hopping Jacobian is singular"
        )
    return t_diag, certificate


def _newton(c: np.ndarray, mu: float,
            params: LatticeParams) -> tuple[np.ndarray, float, float, int]:
    """Newton on the extended system to a residual max-norm under NEWTON_TOL
    in at most NEWTON_MAX_ITER steps.  Returns (c, mu, residual norm, iters)."""
    c = c.astype(float, copy=True)
    # a diverging iterate overflows on its way to the non-finite residual
    # that raises SolverError; numpy's warnings would only repeat that
    with np.errstate(over="ignore", invalid="ignore"):
        for iteration in range(NEWTON_MAX_ITER + 1):
            r = params.residual(c, mu)
            norm = float(np.max(np.abs(r)))
            if norm < NEWTON_TOL:
                return c, mu, norm, iteration
            if not math.isfinite(norm):
                raise SolverError(
                    f"Newton diverged at beta = {params.beta}", residual=norm
                )
            if iteration == NEWTON_MAX_ITER:
                break
            try:
                step = np.linalg.solve(extended_jacobian(c, mu, params), -r)
            except np.linalg.LinAlgError as exc:
                raise SolverError(
                    f"singular Jacobian at beta = {params.beta}: {exc}",
                    residual=norm) from exc
            c += step[:-1]
            mu += step[-1]
    raise SolverError(
        f"no convergence in {NEWTON_MAX_ITER} iterations at beta = "
        f"{params.beta} (residual {norm:.3e})",
        residual=norm,
    )


def newton_solve(guess: StationaryState, beta) -> StationaryState:
    """Solve the stationary system at hopping beta from a warm start, on
    the guess's own model and window.

    mu is an unknown alongside the coefficients.  An already-converged
    guess comes back as a copy at beta; otherwise the result loses its
    exact support (set becomes None).
    """
    params = replace(guess.params, beta=beta)
    # written so that a NaN coefficient fails the check too
    if not abs(np.sum(guess.coefficients ** 2) - 1.0) <= 1e-6:
        raise DomainError("Newton guess must be normalized")
    # at zero iterations c is a copy of the guess and mu is the guess's mu
    c, mu, _, iters = _newton(guess.coefficients, guess.mu, params)
    return StationaryState(params=params, coefficients=c, mu=mu,
                           set=guess.set if iters == 0 else None)


def continue_in_beta(sset: SolutionSet, params: LatticeParams, beta_target,
                     steps: int = DEFAULT_CONTINUATION_STEPS, signs=None
                     ) -> ContinuationResult:
    """Walk the branch of a set from beta = 0 to beta_target.

    Natural-parameter continuation in uniform beta steps, each Newton solve
    warm-started from the previous state; the last step is beta_target
    itself, so path[-1][0] == state.params.beta == beta_target.  The
    zero-hopping certificate is computed up front and a resonant set is
    refused before any stepping, with a ResonanceError and an empty path.
    A failed step raises SolverError carrying the path walked so far.
    """
    beta_target = check_real(beta_target, "beta_target", at_least=0)
    steps = check_int(steps, "steps", 1, MAX_CONTINUATION_STEPS)
    base_params = replace(params, beta=0.0)
    state = build_state(sset, base_params, signs=signs)
    _, certificate = jacobian_diagonal_t0(state)
    path = [(0.0, float(np.max(np.abs(dnls_residual(state)))), 0)]
    if beta_target == 0.0:
        return ContinuationResult(state=state, path=path, certificate=certificate)
    c, mu = state.coefficients, state.mu
    betas = [beta_target * k / steps for k in range(1, steps)] + [beta_target]
    for beta_k in betas:
        step_params = replace(params, beta=beta_k)
        try:
            c, mu, norm, iters = _newton(c, mu, step_params)
        except SolverError as exc:
            exc.path = list(path)
            raise
        path.append((beta_k, norm, iters))
    final = StationaryState(params=step_params, coefficients=c, mu=mu)
    return ContinuationResult(state=final, path=path, certificate=certificate)
