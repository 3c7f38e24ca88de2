"""The linear limit of the tilted lattice at beta > 0 (Wannier 1962; Glueck,
Kolovsky & Korsch 2002), as closed-form oracles for the integrator and for
continuation: a tiny nu leaves the Wannier-Stark ladder, whose states and
Bloch oscillations are Bessel functions of the hopping over the tilt."""

import math

import numpy as np
import pytest

from starktree import LatticeParams, SolutionSet, continue_in_beta, evolve
from starktree.dynamics import BLOCH_PERIOD


def bessel_j(orders, z):
    """J_n(z) for each order n (last axis) at each z (leading axes): the mean
    of cos(z sin(theta) - n theta) over 256 equally spaced theta, summed for
    every n at once by the FFT of exp(i z sin(theta)).  The trapezoid rule is
    exact to round-off for |n| and |z| far below 256."""
    theta = 2.0 * math.pi * np.arange(256) / 256
    series = np.exp(1j * np.multiply.outer(z, np.sin(theta)))
    means = np.fft.fft(series, axis=-1) / theta.size
    return means[..., np.asarray(orders) % theta.size].real


def test_bessel_j_reference_values():
    # J_0(1), J_1(1) and J_2(1), whose first ten digits Abramowitz & Stegun
    # list in table 9.1; J_{-n} = (-1)^n J_n
    values = bessel_j([0, 1, 2, -1, -2], 1.0)
    np.testing.assert_allclose(
        values, [0.7651976865579666, 0.4400505857449335, 0.1149034849319005,
                 -0.4400505857449335, 0.1149034849319005], rtol=0, atol=1e-15)


@pytest.mark.parametrize("beta, window, m", [(0.3, (-30, 30), 0),
                                             (1.0, (-40, 40), 0),
                                             (0.3, (970, 1030), 1000)])
def test_bloch_oscillation_matches_wannier_stark(beta, window, m):
    # from c_l(0) = delta_{l,m}: c_l(t') = J_{l-m}((4 beta/f) sin(t'/2))
    # exp(i[m t' - 2 beta t'/f + (l - m)(t'/2 - pi/2)]); the far window
    # runs in the frame of its middle site
    p = LatticeParams(nu=1e-12, f=1.0, beta=beta, window=window)
    initial = np.zeros(p.window_size, dtype=complex)
    initial[m - window[0]] = 1.0
    trace = evolve(initial, p, t_end=3.0 * BLOCH_PERIOD)
    t = trace.times[:, None]
    offsets = p.window_sites - m
    exact = (bessel_j(offsets, 4.0 * beta / p.f * np.sin(trace.times / 2.0))
             * np.exp(1j * (m * t - 2.0 * beta * t / p.f
                            + offsets * (t / 2.0 - math.pi / 2.0))))
    assert np.max(np.abs(trace.states - exact)) < 1e-10


@pytest.mark.parametrize("nu", [1e-4, 1e-8])
@pytest.mark.parametrize("beta", [0.05, 0.3])
def test_continued_singleton_is_the_wannier_stark_state(nu, beta):
    # c_l = J_l(2 beta/f) and mu = -2 beta in the linear limit; nu moves
    # the amplitudes by O(nu) and mu by nu sum J_l^4 + O(nu^2)
    p = LatticeParams(nu=nu, f=1.0, beta=beta, window=(-25, 25))
    state = continue_in_beta(SolutionSet((0,)), p, steps=20).state
    linear = bessel_j(p.window_sites, 2.0 * beta / p.f)
    assert np.max(np.abs(state.coefficients - linear)) <= 2.0 * nu
    assert abs(state.mu - (-2.0 * beta + nu * np.sum(linear ** 4))) < 1e-12
