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
from dataclasses import dataclass, field, replace

import numpy as np

from .anticontinuum import LatticeParams, SolutionSet, build_state
from .errors import (ConfigurationError, DomainError, IntegrationError,
                     check_int, check_real, check_signs, check_site)

__all__ = ["BLOCH_PERIOD", "DynamicsTrace", "beat_periods", "beating_profile",
           "beating_trace", "evolve", "spectrum", "superposition_state"]

BLOCH_PERIOD = 2.0 * math.pi

# 2048 steps per Bloch period: the sampling of the trace.  At beta = 0 the
# trace is the closed form at any dt; at beta > 0 the 4th-order composition
# keeps the splitting error of the stationary and conservation tests well
# inside their bounds at this step.
DEFAULT_DT = BLOCH_PERIOD / 2048

# Largest norm or energy drift that evolve accepts.
DRIFT_LIMIT = 1e-6

# Largest trace, in bytes of stored complex samples, that one evolve call
# allocates; longer requests are refused before any allocation.
MAX_TRACE_BYTES = 1 << 30

# Complex entries per block of rows in the drift ledger, so that its
# temporaries stay a few hundred kilobytes on any trace.
_LEDGER_BLOCK = 1 << 14


@dataclass(frozen=True)
class DynamicsTrace:
    """Uniformly sampled complex coefficient history with its quality ledger.

    Row k of states is the sample at t' = k dt, the times property.
    norm_drift is max |sum |c|^2 - 1| over the trace; energy_drift is the
    max drift of the conserved energy functional, its tilt taken relative to
    the window's middle site as in the integration, divided by the sum of
    its three terms' magnitudes at t' = 0.  That scale cannot vanish (the
    nonlinear term is at least nu/2W), while the energy itself can.
    """

    dt: float
    states: np.ndarray = field(repr=False)
    window: tuple[int, int]
    norm_drift: float
    energy_drift: float

    @property
    def times(self) -> np.ndarray:
        return np.arange(self.states.shape[0]) * self.dt

    def site_column(self, site: int) -> np.ndarray:
        return self.states[:, check_site(site, self.window)]


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
    beat_periods(x)  # refuses all but a finite real x > 1
    x = float(x)
    s1, s2, s3 = check_signs(signs, 3)
    half_over = 0.5 / x  # f/(2 nu)
    t = np.asarray(t_prime, dtype=float)
    q = (s1 * np.exp(0.5j * x * t)
         + s2 * math.sqrt(0.5 + half_over) * np.exp(0.5j * t)
         + s3 * math.sqrt(0.5 - half_over) * np.exp(-0.5j * t))
    return complex(q) if np.isscalar(t_prime) else q


def _band_width(z: float) -> int:
    """Smallest b with every |U[l, l +- k]|, k > b, below 1e-16.

    For U = exp(i tau H/f) the Dyson series bounds |U[l, l +- k]| by
    z^k/k! e^z with z = 2 |beta tau|/f, since each order moves one site.
    """
    b, bound = 0, z * math.exp(z)
    while bound > 1e-16:
        b += 1
        bound *= z / (b + 1)
    return b


def _propagator(params: LatticeParams, tau: float, b: int) -> np.ndarray:
    """U = exp(i tau H/f) on the window, from one eigh of the block of its
    first m = min(W, 4b+5) sites, with Dirichlet ends.

    H is the window operator: LatticeParams.hopping plus the tilt f l;
    eigh sees the tilt relative to the block's middle site, and the
    constant remainder is a phase.  Where m = W the block is U, returned
    dense.  Otherwise U is returned as its (2b+1, W) band, built in
    O(W b).  Since the tilt grows by f per site, U[l + s, k + s] =
    e^{i tau s} U[l, k] away from the ends, so the block gives every row:
    its first 2b+2 rows the window's first, its middle row each middle
    one, and its last 2b+2 rows, turned by e^{i tau (W - m)}, the window's
    last.  Entries beyond the band are below the _band_width bound.
    """
    width = params.window_size
    m = min(width, 4 * b + 5)
    mid = m // 2
    h = params.hopping(np.eye(m)) / params.f + np.diag(np.arange(m) - mid)
    w, v = np.linalg.eigh(h)
    u = (v * np.exp(1j * tau * w)) @ v.T
    # one Newton-Schulz pass: unitary to round-off, so the norm stays flat
    u = 1.5 * u - 0.5 * (u @ (u.conj().T @ u))
    u = u * np.exp(1j * tau * (mid + params.window[0]))
    if m == width:
        return u
    # window row l is the block's row r = l - shift, turned by e^{i tau shift}:
    # band[b + k, l] = u[r, r + k], zero off the block, in C order, so that a
    # stage's product with it runs along whole rows
    rows = np.arange(width)
    shift = np.clip(rows - mid, 0, width - m)
    padded = np.zeros((m, m + 2 * b), dtype=complex)
    padded[:, b:b + m] = u
    r = rows - shift
    band = padded[r, r + np.arange(2 * b + 1)[:, None]]
    band *= np.exp(1j * tau * shift)
    return band


def _split_steps(c0: np.ndarray, params: LatticeParams, dt: float,
                 n_steps: int) -> np.ndarray:
    """The n_steps + 1 states of evolve's split steps from c0.

    Where the band half-width b is 0 the trace is the closed form
    c0 exp(i k rate), rate = dt (l - 2 beta/f + nu/f |c0|^2), with no
    time loop, evaluated on the span of c0's occupied sites only; the sites
    outside it are exactly 0.  Otherwise each stage applies the U of
    _propagator: one dense product on a window of at most 4b+5 sites, else
    a sum over U's band.  Dense and band windows share one time loop, in
    which only that linear map differs.  The stages write into buffers made
    once per call, the last straight into the step's row of the trace, so a
    step allocates no data.  The propagator buffers are freed on return,
    before evolve's ledger runs.
    """
    beta, nu, f = params.beta, params.nu, params.f
    # Yoshida's triple jump: Strang steps of w1 dt, w0 dt and w1 dt; w0 is
    # negative and the longest, so the band follows |w0| dt
    w1 = 1.0 / (2.0 - 2.0 ** (1.0 / 3.0))
    w0 = 1.0 - 2.0 * w1
    width = c0.size
    states = np.empty((n_steps + 1, width), dtype=complex)
    b = min(_band_width(2.0 * beta * abs(w0) * dt / f), width - 1)
    if b == 0:
        # U is the diagonal phase of H, which commutes with the nonlinear
        # phase and keeps |c_l|, so step k turns c0 by k times one per-site
        # angle, and an empty site stays exactly 0.  On the occupied span
        # [first, last] the angles, then their cosines and sines, are
        # written in place, so no trace-sized temporary is made
        first, last = np.flatnonzero(c0)[[0, -1]]
        states[:, :first] = 0.0
        states[:, last + 1:] = 0.0
        span, c_span = states[:, first:last + 1], c0[first:last + 1]
        rate = dt * (params.window_sites[first:last + 1] - 2.0 * beta / f
                     + nu / f * np.abs(c_span) ** 2)
        np.multiply.outer(np.arange(n_steps + 1), rate, out=span.imag)
        np.cos(span.imag, out=span.real)
        np.sin(span.imag, out=span.imag)
        span *= c_span
        return states
    states[0] = c0
    outer = _propagator(params, w1 * dt, b)
    inner = _propagator(params, w0 * dt, b)
    # bound once: the time loop calls them at every stage
    multiply, square, exp = np.multiply, np.square, np.exp
    # a stage's linear map (x, out) writes U x into out, x being stage_in:
    # one dense product where U is dense, else (band * shifted).sum(0)
    # through the buffer `prod`, where shifted[j] = pad[j:j + W] views the
    # zero-padded stage_in, so x_{l+k} sits under U[l, l+k]; `prod` is in
    # the band's C order, so the sum adds whole rows
    pad = np.zeros(width + 2 * b, dtype=complex)
    stage_in = pad[b:b + width]
    if outer.shape == (width, width):
        outer_map, inner_map = outer.dot, inner.dot
    else:
        shifted = np.lib.stride_tricks.sliding_window_view(pad, width)
        prod = np.empty_like(outer)

        def linear(u):
            return lambda x, out: np.add.reduce(multiply(u, shifted, prod),
                                                0, None, out)
        outer_map, inner_map = linear(outer), linear(inner)
    # the phase exp(i s |c|^2) is the exp of `arg`, whose float view is
    # squares . [[0, s], [0, s]], squares = (re^2, im^2) of c per site: its
    # real part is exactly 0, its imaginary part s |c|^2.  s is nu/f times
    # the phase's duration: half an outer stage at each end of a step and,
    # between two stages, the merged halves of both
    c, arg, phase = np.empty((3, width), dtype=complex)
    c_float = c.reshape(width, 1).view(float)
    arg_float = arg.reshape(width, 1).view(float)
    squares = np.empty((width, 2))
    half = np.array([[0.0, 0.5 * w1 * dt * nu / f]] * 2)
    merged = np.array([[0.0, 0.5 * (w1 + w0) * dt * nu / f]] * 2)

    # a step opens with the half-phase exp(half |c|^2) that closed the step
    # before, on the row that step wrote; the first opens on c0
    c[:] = c0
    square(c_float, squares)
    squares.dot(half, arg_float)
    exp(arg, phase)
    for before, row in zip(states, states[1:]):
        multiply(before, phase, stage_in)
        for apply, weights, out in ((outer_map, merged, stage_in),
                                    (inner_map, merged, stage_in),
                                    (outer_map, half, row)):
            apply(stage_in, c)
            square(c_float, squares)
            squares.dot(weights, arg_float)
            exp(arg, phase)
            multiply(c, phase, out)
    return states


def _drifts(states: np.ndarray, params: LatticeParams) -> tuple[float, float]:
    """(norm_drift, energy_drift), as DynamicsTrace defines them, of a trace
    with the tilt f l of its window.

    One pass over blocks of about _LEDGER_BLOCK entries: per block, the
    float view squared gives |c|^2 = re^2 + im^2, whose products with
    [1, tilt] are the norm and tilt sums and whose square sums to the
    quartic term; the bonds Re(conj(c_l) c_{l+1}) are the products of the
    float view with itself two floats on.  So nothing trace-sized is made.
    """
    width = states.shape[1]
    tilt = params.f * params.window_sites
    weights = np.stack([np.ones(width), tilt], axis=1)
    rows = max(1, _LEDGER_BLOCK // width)
    norm_drift = energy_drift = 0.0
    for start in range(0, states.shape[0], rows):
        flat = states[start:start + rows].view(float)
        squares = np.square(flat)
        abs2 = squares[:, 0::2] + squares[:, 1::2]
        norms, tilted = (abs2 @ weights).T
        # 2 Re(conj(c_l) c_{l+1}) + 2 |c_l|^2 per row
        hops = -params.beta * 2.0 * (
            np.einsum("ij,ij->i", flat[:, :-2], flat[:, 2:]) + norms)
        nonlinear = 0.5 * params.nu * np.einsum("ij,ij->i", abs2, abs2)
        energies = hops + nonlinear + tilted
        if start == 0:
            first = energies[0]
            scale = abs(hops[0]) + nonlinear[0] + abs2[0] @ np.abs(tilt)
        # np.maximum, unlike max, keeps a NaN of any block
        norm_drift = np.maximum(norm_drift, np.max(np.abs(norms - 1.0)))
        energy_drift = np.maximum(energy_drift,
                                  np.max(np.abs(energies - first)))
    return float(norm_drift), float(energy_drift / scale)


def evolve(initial, params: LatticeParams, t_end, dt: float = DEFAULT_DT
           ) -> DynamicsTrace:
    """Integrate the time-dependent lattice equation by split steps.

    `initial` is a normalized complex vector over the window.  A Strang
    step (Strang 1968) applies the exact nonlinear phase
    exp(i dt nu |c|^2 / 2f), then the exact linear propagator
    U = exp(i dt H/f), then the phase again; H is the window operator,
    LatticeParams.hopping plus the tilt f l.  A shift by j sites along the
    tilt only turns a trace by e^{i j t'}, so the steps run on the window
    moved to put its middle site l0 at 0, where accuracy does not depend on
    where the window sits, and the trace is turned back by e^{i l0 t'}.  At
    beta > 0 three Strang steps of weights w1, w0, w1 make Yoshida's
    4th-order step (Yoshida 1990), with adjacent half-phases merged.  U has
    a band of half-width b, known in advance from a Dyson-series bound; it
    is built once per call and stage weight from one LAPACK eigh of a block
    of min(W, 4b+5) sites.  A window of at most 4b+5 sites is that block,
    and a stage is one dense product; a wider window keeps U as its band,
    applied without BLAS, so a step is O(W b) and no W x W array is made.
    Where b = 0, as at beta = 0, U is diagonal and commutes with the phase,
    which keeps |c_l|, so the whole trace is one exact per-site rotation in
    closed form.

    The trace is sampled every step.  A step that turns the nonlinear or
    hopping rate, max(nu, 4 beta)/f, by more than pi, or a norm or energy
    drift beyond DRIFT_LIMIT, raises IntegrationError (use a smaller dt); a
    trace above MAX_TRACE_BYTES is refused with DomainError.
    """
    t_end = check_real(t_end, "t_end", above=0)
    dt = check_real(dt, "dt", above=0)
    if dt > t_end:
        raise DomainError(f"dt must not exceed t_end = {t_end}, got {dt}")
    c0 = np.asarray(initial, dtype=complex)
    if c0.shape != (params.window_size,):
        raise ConfigurationError(
            f"initial vector has shape {c0.shape}, window holds "
            f"{params.window_size} sites"
        )
    # written so that a NaN coefficient fails the check too
    if not abs(np.sum(np.abs(c0) ** 2) - 1.0) <= 1e-8:
        raise DomainError("initial vector must be normalized")
    n_steps = t_end / dt
    # round() raises on an infinite ratio; one from the cap on is refused
    # below unrounded.  dt <= t_end keeps the ratio, so its round, at 1 or more
    if n_steps < MAX_TRACE_BYTES:
        n_steps = round(n_steps)
    if (n_steps + 1) * c0.size * 16 > MAX_TRACE_BYTES:
        raise DomainError(
            f"a trace of {n_steps + 1:.6g} samples of {c0.size} complex values "
            f"exceeds {MAX_TRACE_BYTES} bytes; shorten t_end or raise dt"
        )
    beta, nu, f = params.beta, params.nu, params.f
    rate = max(nu, 4.0 * beta) / f
    if dt * rate > math.pi:
        raise IntegrationError(
            f"a step of {dt} turns the rate max(nu, 4 beta)/f = {rate:.6g} by "
            f"more than pi; reduce dt below {math.pi / rate:.6g}"
        )

    l0 = sum(params.window) // 2
    frame = params.shifted(-l0)
    states = _split_steps(c0, frame, dt, n_steps)
    # the ledger reads |c_l|^2 and conj(c_l) c_{l+1}, which the turn-back
    # by e^{i l0 t'} below leaves as they are, so it runs in the frame
    norm_drift, energy_drift = _drifts(states, frame)
    if not (norm_drift <= DRIFT_LIMIT and energy_drift <= DRIFT_LIMIT):
        raise IntegrationError(
            f"norm drifted by {norm_drift:.3e} and energy by "
            f"{energy_drift:.3e} (limit {DRIFT_LIMIT}); reduce dt below {dt}"
        )
    trace = DynamicsTrace(dt=dt, states=states, window=params.window,
                          norm_drift=norm_drift, energy_drift=energy_drift)
    if l0:
        states *= np.exp(1j * l0 * trace.times)[:, None]
    return trace


def _well_states(j: int, params: LatticeParams) -> list[np.ndarray]:
    """The coefficient vectors of the three zero-hopping states sharing well
    j: {j}, {j, j+1}, {j-1, j}; they exist together only for nu/f > 1.

    The ladder maps l -> l + j, mu -> mu + j f, so each is the vector of
    the well-0 state built on the window moved by -j: a far well carries
    the well-0 amplitudes bit for bit, with no round-off of mu - f l at
    large l.
    """
    j = check_int(j, "well index")
    beat_periods(params.ratio)  # refuses nu/f <= 1
    home = params.shifted(-j)
    return [build_state(SolutionSet(s), home).coefficients
            for s in ((0,), (0, 1), (-1, 0))]


def superposition_state(j: int, params: LatticeParams) -> np.ndarray:
    """Normalized coherent sum of the three all-plus states on well j."""
    total = np.sum(_well_states(j, params), axis=0).astype(complex)
    return total / math.sqrt(float(np.sum(np.abs(total) ** 2)))


def beating_trace(j: int, params: LatticeParams, t_end,
                  dt: float = DEFAULT_DT) -> DynamicsTrace:
    """Beating observable: the three well-j states integrated separately
    under the full equation and summed coherently.

    A sum of stationary states is not itself a solution, so evolving the
    summed vector washes the beats out; the observable superposition keeps
    each state on its own exact orbit.  The well-j vectors are the well-0
    ones and `evolve` steps in the frame of the window's middle site, so any
    well gives the well-0 drift ledger bit for bit.  The sum runs in place
    in the first state's trace; the ledger reports the worst of the three
    underlying integrations.
    """
    first, *others = _well_states(j, params)
    total = evolve(first, params, t_end, dt)
    for vector in others:
        member = evolve(vector, params, t_end, dt)
        np.add(total.states, member.states, out=total.states)
        total = replace(
            total, norm_drift=max(total.norm_drift, member.norm_drift),
            energy_drift=max(total.energy_drift, member.energy_drift))
        # released before the next member is integrated, so at most two
        # traces are alive: the running sum and one member
        del member
    return total


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
    window = 0.5 - 0.5 * np.cos(2.0 * math.pi * np.arange(n) / n)
    # Detrend before windowing so the DC skirt cannot shadow slow beats;
    # the zero-frequency line is restored from the mean itself.
    mean = float(signal.mean())
    power = np.abs(np.fft.rfft(window * (signal - mean))) ** 2
    power[0] = (mean * float(window.sum())) ** 2
    freqs = 2.0 * math.pi * np.fft.rfftfreq(n, d=trace.dt)

    # a bin is a maximum above both neighbours; the two end bins have one
    padded = np.pad(power, 1, constant_values=-np.inf)
    maxima = np.flatnonzero((power > padded[:-2]) & (power > padded[2:]))
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
