"""Pointwise model terms: anisotropy, driving force, potential, reaction, noise.

Everything here is ufunc-friendly (works on scalars and arrays alike) and pure,
except RngStream which is a sequential seeded stream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np


def require_finite(params) -> None:
    """Raise ValueError naming the first field of a dataclass that holds a
    NaN or infinite float."""
    for f in fields(params):
        value = getattr(params, f.name)
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError(f"{f.name} must be finite, got {value}")


@dataclass
class ModelParams:
    """Model parameters of the coupled phase/temperature equations.

    tau         relaxation time of the phase field
    eps_bar     mean interfacial width coefficient
    delta       anisotropy strength, < 1 so the coefficient stays positive
    j_mode      number of preferred growth directions
    theta0      offset angle of the anisotropy (radians)
    alpha       driving-force amplitude, in (0, 1) so |m| < 1/2 for all T
    gamma       supercooling gain inside the arctan
    t_eq        equilibrium temperature
    latent_heat dimensionless latent heat released by solidification
    noise_amp   amplitude of the interface noise
    """

    tau: float = 3e-4
    eps_bar: float = 0.01
    delta: float = 0.01
    j_mode: int = 4
    theta0: float = 1.57
    alpha: float = 0.9
    gamma: float = 10.0
    t_eq: float = 1.0
    latent_heat: float = 1.8
    noise_amp: float = 0.0

    def __post_init__(self):
        require_finite(self)
        if self.eps_bar < 0.0:
            raise ValueError(f"eps_bar must be >= 0, got {self.eps_bar}")
        if not 0.0 <= self.delta < 1.0:
            raise ValueError(f"delta must be in [0, 1), got {self.delta}")
        if int(self.j_mode) != self.j_mode or self.j_mode < 1:
            raise ValueError(f"j_mode must be a positive integer, got {self.j_mode}")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must be in (0, 1), got {self.alpha}")
        if self.gamma <= 0.0:
            raise ValueError(f"gamma must be > 0, got {self.gamma}")
        if self.latent_heat < 0.0:
            raise ValueError(f"latent_heat must be >= 0, got {self.latent_heat}")
        if self.tau <= 0.0:
            raise ValueError(f"tau must be > 0, got {self.tau}")
        if self.noise_amp < 0.0:
            raise ValueError(f"noise_amp must be >= 0, got {self.noise_amp}")


class RngStream:
    """Seeded PCG64 stream for the interface noise.

    The generator is fixed (numpy PCG64), so a given 64-bit seed reproduces the
    same sequence on every platform.  Array draws fill in raster (C) order.
    """

    def __init__(self, seed: int):
        self.seed = int(seed)
        self._gen = np.random.Generator(np.random.PCG64(self.seed))

    def uniform_sym(self, shape=None):
        """Uniform values in [-0.5, 0.5]."""
        if shape is None:
            return float(self._gen.random()) - 0.5
        return self._gen.random(shape) - 0.5


def interface_angle(gx, gy):
    """Angle of the gradient vector over the full circle; (0, 0) maps to 0."""
    return np.arctan2(gy, gx)


def anisotropy_phase(theta, p: ModelParams):
    """u = j_mode (theta - theta0), the angle inside eps and eps'."""
    return p.j_mode * (np.asarray(theta, dtype=np.float64) - p.theta0)


def epsilon_of_phase(u, p: ModelParams):
    """Anisotropic coefficient eps = eps_bar (1 + delta cos u) alone, without
    the sin pass of eps'."""
    return p.eps_bar * (1.0 + p.delta * np.cos(u))


def epsilon_of_theta(theta, p: ModelParams):
    """Anisotropic coefficient eps(theta) and its derivative d(eps)/d(theta)."""
    u = anisotropy_phase(theta, p)
    eps = epsilon_of_phase(u, p)
    eps_prime = -p.eps_bar * p.j_mode * p.delta * np.sin(u)
    return eps, eps_prime


def m_of_temperature(t, p: ModelParams):
    """Supercooling driving force, bounded by |m| < alpha/2 < 1/2."""
    return (p.alpha / np.pi) * np.arctan(p.gamma * (p.t_eq - t))


def double_well(phi, m):
    """Quartic potential with minima at phi = 0 and 1, tilted by m.

    The powers are products, not `**`: every operation is then correctly
    rounded, so the bits do not depend on the numpy build's pow loops.
    """
    phi = np.asarray(phi, dtype=np.float64)
    p2 = phi * phi
    return 0.25 * (p2 * p2) - (0.5 - m / 3.0) * (p2 * phi) + (0.25 - 0.5 * m) * p2


def reaction_term(phi, m):
    """phi (1 - phi) (phi - 1/2 + m); the negative derivative of double_well."""
    return phi * (1.0 - phi) * (phi - 0.5 + m)


def noise_term(phi, amp, chi):
    """Interface-localized noise amp * phi (1 - phi) * chi; zero in the bulk."""
    return amp * phi * (1.0 - phi) * chi
