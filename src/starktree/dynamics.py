"""Time evolution and the beating of superposed stationary states.

In the dimensionless time t' = f t / hbar the coefficients obey
dc_l/dt' = (i/f) [ -beta (c_{l+1} + c_{l-1} + 2 c_l) + nu |c_l|^2 c_l
+ f l c_l ], so a stationary state rotates as e^{i mu t'/f}.  Above
nu/f = 1 three states share a well j -- {j}, {j, j+1} and {j-1, j} -- and
their coherent sum on that well beats with the Bloch period 2 pi plus the
two nu/f-dependent periods T1 = 4 pi/(1 + nu/f) and T2 = 4 pi/(nu/f - 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .anticontinuum import (
    LatticeParams,
    SolutionSet,
    StationaryState,
    _normalize_signs,
    build_state,
)
from .errors import ConfigurationError, DomainError, IntegrationError, check_real

BLOCH_PERIOD = 2.0 * math.pi

# Fixed-step classical RK4 is comfortably non-stiff at this resolution;
# conservation is checked a posteriori rather than enforced.  A step is four
# fused increments of 8 elementwise ops each, so its cost on the short
# windows used here is numpy call overhead, not arithmetic.
DEFAULT_DT = BLOCH_PERIOD / 2048

NORM_DRIFT_LIMIT = 1e-6

# Largest trace, in bytes of stored complex samples, that one evolve call
# allocates; longer requests are refused before any allocation.
MAX_TRACE_BYTES = 1 << 30


@dataclass(frozen=True)
class DynamicsTrace:
    """Uniformly sampled complex coefficient history with its quality ledger.

    norm_drift is max |sum |c|^2 - 1| over the trace; energy_drift is the
    max relative drift of the conserved energy functional, its tilt taken
    relative to the window's middle site as in the integration.
    """

    times: np.ndarray = field(repr=False)
    states: np.ndarray = field(repr=False)
    window: tuple[int, int]
    norm_drift: float
    energy_drift: float

    @property
    def dt(self) -> float:
        return float(self.times[1] - self.times[0])

    def site_column(self, site: int) -> np.ndarray:
        lo, hi = self.window
        if not lo <= site <= hi:
            raise ConfigurationError(f"site {site} outside window {self.window}")
        return self.states[:, site - lo]


@dataclass(frozen=True)
class BeatingPrediction:
    """Amplitudes and periods of the three-state beating at ratio x."""

    x: float
    amplitudes: tuple[float, float, float]
    periods: tuple[float, float, float]

    @classmethod
    def for_ratio(cls, x) -> "BeatingPrediction":
        periods = beat_periods(x)
        x = float(x)
        half_over = 0.5 / x  # f/(2 nu)
        amplitudes = (1.0,
                      math.sqrt(0.5 + half_over),
                      math.sqrt(0.5 - half_over))
        return cls(x=x, amplitudes=amplitudes, periods=periods)


def beat_periods(x) -> tuple[float, float, float]:
    """(Bloch period 2 pi, T1 = 4 pi/(1+x), T2 = 4 pi/(x-1)); needs x > 1."""
    x = check_real(x, "beating ratio nu/f", above=1)
    return (BLOCH_PERIOD, 4.0 * math.pi / (1.0 + x), 4.0 * math.pi / (x - 1.0))


def beating_profile(x, signs, t_prime):
    """Well amplitude q(t') of the three-state sum, common phase removed.

    q = s1 c1 e^{i x t'/2} + s2 c2 e^{i t'/2} + s3 c3 e^{-i t'/2} with the
    closed-form amplitudes c1 = 1, c2 = sqrt(1/2 + 1/(2x)),
    c3 = sqrt(1/2 - 1/(2x)).  signs is a '+-+' string, three +-1 values or
    None for all-plus.  Vectorized over t_prime.
    """
    pred = BeatingPrediction.for_ratio(x)
    s1, s2, s3 = _normalize_signs(signs, 3)
    c1, c2, c3 = pred.amplitudes
    t = np.asarray(t_prime, dtype=float)
    q = (s1 * c1 * np.exp(0.5j * pred.x * t)
         + s2 * c2 * np.exp(0.5j * t)
         + s3 * c3 * np.exp(-0.5j * t))
    return complex(q) if np.isscalar(t_prime) else q


def evolve(initial, params: LatticeParams, t_end, dt: float = DEFAULT_DT
           ) -> DynamicsTrace:
    """Integrate the time-dependent lattice equation with fixed-step RK4.

    `initial` is a normalized complex vector over the window.  Each RK4
    stage is one increment dt * dc/dt' built from elementwise ops: the
    hopping of LatticeParams.hopping written as a nearest-neighbour stencil
    plus the nonlinear and tilt terms, with no BLAS call.  The loop
    integrates c e^{-i l0 t'}, which sees the tilt f (l - l0) relative to
    the window's middle site l0, so its accuracy does not depend on where
    the window sits; the trace is turned back by e^{i l0 t'}.  The trace is
    sampled every step; norm drift beyond 1e-6 raises IntegrationError
    (use a smaller dt), and a trace above MAX_TRACE_BYTES is refused with
    DomainError.
    """
    t_end = check_real(t_end, "t_end", above=0)
    dt = check_real(dt, "dt", above=0)
    if dt > t_end:
        raise DomainError(f"dt must not exceed t_end = {t_end}, got {dt}")
    c0 = np.asarray(initial, dtype=complex)
    if c0.shape != (params.window_size,):
        raise ConfigurationError(
            f"initial vector has {c0.size} entries, window holds "
            f"{params.window_size}"
        )
    # written so that a NaN coefficient fails the check too
    if not abs(np.sum(np.abs(c0) ** 2) - 1.0) <= 1e-8:
        raise DomainError("initial vector must be normalized")
    n_steps = max(1, round(t_end / dt))
    if (n_steps + 1) * c0.size * 16 > MAX_TRACE_BYTES:
        raise DomainError(
            f"a trace of {n_steps + 1} samples of {c0.size} complex values "
            f"exceeds {MAX_TRACE_BYTES} bytes; shorten t_end or raise dt"
        )

    sites = params.window_sites.astype(float)
    beta, nu, f = params.beta, params.nu, params.f
    # on a distant well the absolute tilt l dt would cost RK4 accuracy that
    # the physics, invariant under translation, does not need
    lo, hi = params.window
    l0 = (lo + hi) // 2
    # dt * dc/dt' = dt_site*c + dt_nl*|c|^2 c + dt_hop*(c_{l+1} + c_{l-1}):
    # the operator of LatticeParams.hopping plus the nonlinear and tilt
    # terms, with dt and i/f folded into three constants
    dt_site = (1j * dt / f) * (f * (sites - l0) - 2.0 * beta)
    dt_nl = 1j * dt * nu / f
    dt_hop = -1j * dt * beta / f

    def increment(c):
        k = (dt_site + dt_nl * (c * c.conj())) * c
        hop = dt_hop * c
        k[1:] += hop[:-1]
        k[:-1] += hop[1:]
        return k

    times = np.arange(n_steps + 1) * dt
    states = np.empty((n_steps + 1, c0.size), dtype=complex)
    states[0] = c0
    c = c0.copy()
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, n_steps + 1):
            k1 = increment(c)
            k2 = increment(c + 0.5 * k1)
            k3 = increment(c + 0.5 * k2)
            k4 = increment(c + k3)
            c = c + (k1 + 2.0 * (k2 + k3) + k4) / 6.0
            states[k] = c
        states *= np.exp(1j * l0 * times)[:, None]

    with np.errstate(over="ignore", invalid="ignore"):
        abs2 = np.abs(states) ** 2
        norms = np.sum(abs2, axis=1)
        norm_drift = float(np.max(np.abs(norms - 1.0)))
        hops = 2.0 * np.real(np.sum(np.conj(states[:, :-1]) * states[:, 1:],
                                    axis=1))
        energies = (-beta * (hops + 2.0 * norms)
                    + 0.5 * nu * np.sum(abs2 ** 2, axis=1)
                    + f * abs2 @ (sites - l0))
        scale = max(abs(energies[0]), 1e-30)
        energy_drift = float(np.max(np.abs(energies - energies[0])) / scale)
    if not math.isfinite(norm_drift) or norm_drift > NORM_DRIFT_LIMIT:
        raise IntegrationError(
            f"norm drifted by {norm_drift:.3e} (> {NORM_DRIFT_LIMIT}); "
            f"reduce dt below {dt}"
        )
    return DynamicsTrace(times=times, states=states, window=params.window,
                         norm_drift=norm_drift, energy_drift=energy_drift)


def _well_states(j: int, params: LatticeParams) -> list[StationaryState]:
    """The three zero-hopping states sharing well j: {j}, {j, j+1}, {j-1, j};
    they exist together only for nu/f > 1."""
    check_real(params.ratio, "nu/f of the three well states", above=1)
    return [build_state(SolutionSet(s), params)
            for s in ((j,), (j, j + 1), (j - 1, j))]


def superposition_state(j: int, params: LatticeParams) -> np.ndarray:
    """Normalized coherent sum of the three all-plus states on well j."""
    states = _well_states(j, params)
    total = np.sum([s.coefficients for s in states], axis=0).astype(complex)
    return total / math.sqrt(float(np.sum(np.abs(total) ** 2)))


def beating_trace(j: int, params: LatticeParams, t_end,
                  dt: float = DEFAULT_DT) -> DynamicsTrace:
    """Beating observable: the three well-j states integrated separately
    under the full equation and summed coherently.

    A sum of stationary states is not itself a solution, so evolving the
    summed vector washes the beats out; the observable superposition keeps
    each state on its own exact orbit.  The drift ledger reports the worst
    of the three underlying integrations.
    """
    traces = [evolve(s.coefficients.astype(complex), params, t_end, dt)
              for s in _well_states(j, params)]
    summed = traces[0].states + traces[1].states + traces[2].states
    return DynamicsTrace(
        times=traces[0].times,
        states=summed,
        window=params.window,
        norm_drift=max(t.norm_drift for t in traces),
        energy_drift=max(t.energy_drift for t in traces),
    )


MIN_SPECTRUM_SAMPLES = 1 << 10

# A maximum below this fraction of the strongest non-DC peak is noise.
PEAK_FLOOR = 0.01


def spectrum(trace: DynamicsTrace, site: int) -> list[tuple[float, float]]:
    """Beat peaks of |c_site(t')|^2: (angular frequency, power), strongest first.

    Hann-windowed rfft of the site density; peaks are local maxima above
    1% of the strongest non-DC maximum.
    """
    signal = np.abs(trace.site_column(site)) ** 2
    n = signal.size
    if n < MIN_SPECTRUM_SAMPLES:
        raise DomainError(
            f"trace has {n} samples; spectrum needs >= {MIN_SPECTRUM_SAMPLES}"
        )
    steps = np.diff(trace.times)
    if not np.allclose(steps, steps[0], rtol=1e-9, atol=0.0):
        raise DomainError("spectrum needs a uniformly sampled trace")
    window = 0.5 - 0.5 * np.cos(2.0 * math.pi * np.arange(n) / n)
    # Detrend before windowing so the DC skirt cannot shadow slow beats;
    # the zero-frequency line is restored from the mean itself.
    mean = float(signal.mean())
    power = np.abs(np.fft.rfft(window * (signal - mean))) ** 2
    power[0] = (mean * float(window.sum())) ** 2
    freqs = 2.0 * math.pi * np.fft.rfftfreq(n, d=trace.dt)

    left = np.empty_like(power)
    right = np.empty_like(power)
    left[0], left[1:] = -np.inf, power[:-1]
    right[-1], right[:-1] = -np.inf, power[1:]
    is_max = (power > left) & (power > right)
    maxima = np.flatnonzero(is_max)
    # gate at double-precision noise relative to the strongest line, so a
    # numerically constant signal yields only its zero-frequency peak
    noise_gate = 1e-24 * float(power.max())
    non_dc = maxima[(maxima > 0) & (power[maxima] > noise_gate)]
    floor = max(PEAK_FLOOR * (power[non_dc].max() if non_dc.size else power[0]),
                noise_gate)
    peaks = [(float(freqs[i]), float(power[i])) for i in maxima
             if power[i] >= floor]
    peaks.sort(key=lambda fp: -fp[1])
    return peaks
