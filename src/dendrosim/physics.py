"""Pointwise model terms: anisotropy, driving force, potential, reaction, noise.

Everything here is ufunc-friendly (works on scalars and arrays alike) and pure,
except RngStream which is a sequential seeded stream.  A `p` argument is any
object with the model fields of solver.SimParams (eps_bar, delta, j_mode, ...).
"""

from __future__ import annotations

import math

import numpy as np


class RngStream:
    """Seeded PCG64 stream for the interface noise.

    The generator is fixed (numpy PCG64), so a given 64-bit seed reproduces the
    same sequence on every platform.  Array draws fill in raster (C) order,
    one 64-bit PCG64 output per value.
    """

    def __init__(self, seed: int):
        self.seed = int(seed)
        self._gen = np.random.Generator(np.random.PCG64(self.seed))

    def uniform_sym(self, shape, window=()):
        """`window` (step-1 slices of the leading axes; by default all) of
        an array of `shape` uniform values in [-0.5, 0.5].

        The rows of window[0] are drawn, and those before and after skipped
        with PCG64.advance, one output per value, so the window is that of a
        whole-array draw and every later draw is unchanged; only the window
        is shifted by -0.5."""
        start, stop, _ = (window[0] if window else slice(None)).indices(shape[0])
        row_size = math.prod(shape[1:])
        bits = self._gen.bit_generator
        bits.advance(start * row_size)
        band = self._gen.random((stop - start, *shape[1:]))
        bits.advance((shape[0] - stop) * row_size)
        return band[(slice(None), *window[1:])] - 0.5


def epsilon_of_theta(gx, gy, p):
    """Anisotropic coefficient eps(theta) = eps_bar (1 + delta cos u) and its
    derivative d(eps)/d(theta) at theta, the angle of the gradient (gx, gy),
    where u = j_mode (theta - theta0).  theta is np.arctan2(gy, gx): 0 for a
    zero gradient, but +-pi when its x component is -0.0, which no state
    from solver.initialize or solver.step holds."""
    u = p.j_mode * (np.arctan2(gy, gx) - p.theta0)
    eps = p.eps_bar * (1.0 + p.delta * np.cos(u))
    eps_prime = -p.eps_bar * p.j_mode * p.delta * np.sin(u)
    return eps, eps_prime


def m_of_temperature(t, p):
    """Supercooling driving force, bounded by |m| < alpha/2 < 1/2."""
    return (p.alpha / np.pi) * np.arctan(p.gamma * (p.t_eq - t))


def double_well(phi, m):
    """Quartic potential with minima at phi = 0 and 1, tilted by m.

    The powers are products, not `**`: every operation is then correctly
    rounded, so the bits do not depend on the numpy build's pow loops.
    """
    p2 = phi * phi
    return 0.25 * (p2 * p2) - (0.5 - m / 3.0) * (p2 * phi) + (0.25 - 0.5 * m) * p2


def reaction_term(phi, m):
    """phi (1 - phi) (phi - 1/2 + m); the negative derivative of double_well."""
    return phi * (1.0 - phi) * (phi - 0.5 + m)


def noise_term(phi, amp, chi):
    """Interface-localized noise amp * phi (1 - phi) * chi; zero in the bulk."""
    return amp * phi * (1.0 - phi) * chi
