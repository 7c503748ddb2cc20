"""Quantitative measurements on simulation states.

Solid cells are those with phi >= 0.5 throughout; the threshold is the
symmetric midpoint of the two bulk values.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.signal import find_peaks

from .lattice import CENTERED, Field, gradient_arrays, lattice_sum
from .physics import ModelParams, double_well, epsilon_of_theta, interface_angle, m_of_temperature

SOLID_THRESHOLD = 0.5

_DIRECTIONS = ("+x", "-x", "+y", "-y")


@dataclass
class DiagnosticsRecord:
    step: int
    time: float
    solid_fraction: float
    tip_px: float
    tip_mx: float
    tip_py: float
    tip_my: float
    conservation_sum: float
    free_energy: float
    arm_count: int


def solid_fraction(phi: Field) -> float:
    """Fraction of cells at or above the solid threshold."""
    return float(np.count_nonzero(phi.data >= SOLID_THRESHOLD)) / (phi.nx * phi.ny)


def tip_extent(phi: Field, direction: str) -> float:
    """Distance from the grid center to the farthest solid cell on an axis ray.

    direction is one of "+x", "-x", "+y", "-y"; returns 0 when the ray holds
    no solid cell.
    """
    ci, cj = phi.nx // 2, phi.ny // 2
    if direction == "+x":
        ray = phi.data[ci:, cj]
    elif direction == "-x":
        ray = phi.data[ci::-1, cj]
    elif direction == "+y":
        ray = phi.data[ci, cj:]
    elif direction == "-y":
        ray = phi.data[ci, cj::-1]
    else:
        raise ValueError(f"direction must be one of {_DIRECTIONS}, got {direction!r}")
    solid = np.nonzero(ray >= SOLID_THRESHOLD)[0]
    if solid.size == 0:
        return 0.0
    return float(solid[-1]) * phi.dx


def _radius_profile(phi: Field) -> np.ndarray:
    """Max solid radius in each of 360 one-degree sectors about the grid center.

    A solid cell contributes to every sector its square footprint overlaps
    (bounded by its corner angles), not just the sector of its center point;
    otherwise sectors at large radius fall between lattice directions and read
    empty, carving false notches into the profile.  The quadrant index comes
    from integer offset signs and the in-quadrant angles from folded
    first-quadrant offsets, so rotating the field by 90 degrees about the
    center shifts every sector by exactly 90.
    """
    solid = phi.data >= SOLID_THRESHOLD
    nx, ny, dx = phi.nx, phi.ny, phi.dx
    di = np.broadcast_to(np.arange(nx)[:, None] - nx // 2, (nx, ny))
    dj = np.broadcast_to(np.arange(ny)[None, :] - ny // 2, (nx, ny))

    q0 = (di > 0) & (dj >= 0)
    q1 = (dj > 0) & (di <= 0)
    q2 = (di < 0) & (dj <= 0)
    q3 = (dj < 0) & (di >= 0)
    keep = solid & (q0 | q1 | q2 | q3)
    quadrant = np.select([q0, q1, q2, q3], [0, 1, 2, 3], default=0)[keep]
    u = np.select([q0, q1, q2, q3], [di, dj, -di, -dj], default=1)[keep].astype(float)
    v = np.select([q0, q1, q2, q3], [dj, -di, -dj, di], default=0)[keep].astype(float)

    profile = np.zeros(360)
    if u.size == 0:
        return profile
    radius = np.hypot(u * dx, v * dx)
    # folded cells have u >= 1, so all four corners stay in the open right
    # half-plane and corner angles span less than a half turn
    deg = 180.0 / np.pi
    xm, xp = (u - 0.5) * dx, (u + 0.5) * dx
    ym, yp = (v - 0.5) * dx, (v + 0.5) * dx
    c1 = np.arctan2(ym, xm) * deg
    c2 = np.arctan2(ym, xp) * deg
    c3 = np.arctan2(yp, xm) * deg
    c4 = np.arctan2(yp, xp) * deg
    lo = np.floor(np.minimum(np.minimum(c1, c2), np.minimum(c3, c4))).astype(np.int64)
    hi = np.floor(np.maximum(np.maximum(c1, c2), np.maximum(c3, c4))).astype(np.int64)
    base = quadrant * 90 + lo
    span = hi - lo
    for k in range(int(span.max()) + 1):
        mask = span >= k
        np.maximum.at(profile, (base[mask] + k) % 360, radius[mask])
    return profile


def arm_count(phi: Field, window: int = 5, prominence_cells: float = 2.0,
              rel_prominence: float = 0.25) -> int:
    """Number of primary arms of the solid region.

    Builds the maximal solid radius over 360 one-degree sectors about the grid
    center, smooths it with a circular moving average of `window` bins, and
    counts circular local maxima.  A peak must rise above its saddles by both
    prominence_cells grid cells (rejects lattice quantization wiggle) and
    rel_prominence of the profile's full swing (rejects secondary side-branch
    shoulders, which sit well below the primary-arm modulation).  A disk gives
    0; a j-fold star gives j.
    """
    profile = _radius_profile(phi)
    half = window // 2
    smooth = sum(np.roll(profile, k) for k in range(-half, window - half)) / window

    lo, hi = smooth.min(), smooth.max()
    floor = prominence_cells * phi.dx
    if hi - lo < floor:
        return 0
    threshold = max(floor, rel_prominence * (hi - lo))
    # cut the circle at its global minimum: every circular local maximum then
    # lies strictly inside the closed scan, is found exactly once, and its
    # linear prominence equals the circular one
    rolled = np.roll(smooth, -int(np.argmin(smooth)))
    closed = np.concatenate([rolled, rolled[:1]])
    peaks, _ = find_peaks(closed, prominence=threshold)
    return int(len(peaks))


def conservation_sum(state, latent_heat: float) -> float:
    """lattice_sum(T) - K * lattice_sum(phi); invariant of the noise-free update."""
    return lattice_sum(state.temp) - latent_heat * lattice_sum(state.phi)


def free_energy(phi: Field, m_field: Field, p: ModelParams) -> float:
    """Discrete free energy: sum of the well density plus (eps^2/2)|grad phi|^2.

    Always uses centered-mode gradients regardless of the solver's divisor
    mode, so the diagnostic is comparable across configurations.
    """
    if (phi.nx, phi.ny) != (m_field.nx, m_field.ny):
        raise ValueError("phi and m fields must have identical extents")
    gx, gy = gradient_arrays(phi.data, phi.dx, CENTERED)
    theta = interface_angle(gx, gy)
    eps, _ = epsilon_of_theta(theta, p)
    density = double_well(phi.data, m_field.data) + 0.5 * eps * eps * (gx * gx + gy * gy)
    return lattice_sum(Field(density, phi.dx))


def measure(state, p: ModelParams) -> DiagnosticsRecord:
    """All per-sample scalars for one state."""
    phi, temp = state.phi, state.temp
    m_field = Field(m_of_temperature(temp.data, p), temp.dx)
    return DiagnosticsRecord(
        step=state.step,
        time=state.time,
        solid_fraction=solid_fraction(phi),
        tip_px=tip_extent(phi, "+x"),
        tip_mx=tip_extent(phi, "-x"),
        tip_py=tip_extent(phi, "+y"),
        tip_my=tip_extent(phi, "-y"),
        conservation_sum=conservation_sum(state, p.latent_heat),
        free_energy=free_energy(phi, m_field, p),
        arm_count=arm_count(phi),
    )
