"""Quantitative measurements on simulation states.

Solid cells are those with phi >= 0.5 throughout; the threshold is the
symmetric midpoint of the two bulk values.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .lattice import CENTERED, Field, cell_view, gradient_arrays, halo, lattice_sum, widen
from .physics import (
    anisotropy_phase,
    double_well,
    epsilon_of_phase,
    interface_angle,
    m_of_temperature,
)

SOLID_THRESHOLD = 0.5
# arm_count: the least swing of the sector radius profile, in grid cells, that
# is more than lattice wiggle (a lattice disk up to 140 cells swings under one)
ARM_MIN_CELLS = 2.0

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
    center shifts every sector by exactly 90.  Only the solid cells are
    visited, and each sector's value is an exact max over the footprints that
    cover it, so it does not depend on the order the cells are taken in.
    """
    nx, ny, dx = phi.nx, phi.ny, phi.dx
    # in raster order, the order a whole-grid boolean mask selects them in
    cells = np.flatnonzero(phi.data >= SOLID_THRESHOLD)
    di = cells // ny - nx // 2
    dj = cells % ny - ny // 2

    q0 = (di > 0) & (dj >= 0)
    q1 = (dj > 0) & (di <= 0)
    q2 = (di < 0) & (dj <= 0)
    q3 = (dj < 0) & (di >= 0)
    keep = q0 | q1 | q2 | q3  # every cell but the center
    quadrant = (q1 + 2 * q2 + 3 * q3)[keep]
    di, dj = di[keep], dj[keep]
    u = np.choose(quadrant, (di, dj, -di, -dj)).astype(float)
    v = np.choose(quadrant, (dj, -di, -dj, di)).astype(float)

    profile = np.zeros(360)
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
    # one (cell, sector) pair per sector a footprint covers: the cell's n
    # pairs are consecutive, and the pair's offset within them is its index
    # less the index of the cell's first pair
    n = hi - lo + 1
    first = np.cumsum(n) - n
    sector = np.repeat(quadrant * 90 + lo - first, n)
    sector += np.arange(sector.size)
    sector %= 360
    np.maximum.at(profile, sector, np.repeat(radius, n))
    return profile


def arm_count(phi: Field) -> int:
    """Order of the crystal's dominant angular symmetry: the k >= 1 whose
    Fourier mode has the largest magnitude in the max solid radius over 360
    one-degree sectors about the grid center (the lowest k of equal ones).
    A profile that swings less than ARM_MIN_CELLS cells is a disk and gives 0;
    a j-fold star gives j, and so does one whose tips split in mirror pairs.
    """
    profile = _radius_profile(phi)
    if profile.max() - profile.min() < ARM_MIN_CELLS * phi.dx:
        return 0
    return 1 + int(np.argmax(np.abs(np.fft.rfft(profile)[1:])))


def conservation_sum(state, latent_heat: float) -> float:
    """lattice_sum(T) - K * lattice_sum(phi); invariant of the noise-free update."""
    return lattice_sum(state.temp) - latent_heat * lattice_sum(state.phi)


def free_energy(phi: Field, m_field: Field, p) -> float:
    """Discrete free energy: sum of the well density plus (eps^2/2)|grad phi|^2,
    with eps from the model fields of p (a SimParams).

    The gradients are periodic and centered-mode whatever the solver's
    divisor mode, so the diagnostic is comparable across configurations.
    """
    nx, ny = m_field.nx, m_field.ny
    if (phi.nx, phi.ny) != (nx, ny):
        raise ValueError("phi and m fields must have identical extents")
    pitch = ny + 2
    ring = halo((phi.data,), np.s_[:, :], 1).reshape(-1)
    gx, gy = gradient_arrays(ring, pitch, phi.dx, CENTERED)
    eps = epsilon_of_phase(anisotropy_phase(interface_angle(gx, gy), p), p)
    bend = 0.5 * eps * eps * (gx * gx + gy * gy)
    del gx, gy, eps
    density = double_well(phi.data, m_field.data) + cell_view(bend, pitch, ny)
    return lattice_sum(Field(density, phi.dx))


def measure(state, p) -> DiagnosticsRecord:
    """All per-sample scalars for one state of a run with SimParams p.

    The m field and the sums of conservation_sum and free_energy are taken
    on the state's box widened by lattice.REACH (lattice.widen), and give
    the bits of the whole-grid calls: every cell outside the window, and
    every wrapped neighbour of a cell in it, is +-0.0 with zero gradients,
    so each cell's density is that of the grid, and lattice_sum is
    correctly rounded, so the sum over the window equals the sum over the
    grid.  The exception is a cell within lattice_sum's overflow margin,
    which depends on the cell count: there both sums fall back to numpy's
    and may differ.
    """
    phi, temp = state.phi, state.temp
    window = widen(state.box, phi.data.shape)
    cut = replace(state, phi=Field(phi.data[window], phi.dx),
                  temp=Field(temp.data[window], temp.dx))
    m_field = Field(m_of_temperature(cut.temp.data, p), temp.dx)
    return DiagnosticsRecord(
        step=state.step,
        time=state.step * p.dt,
        solid_fraction=solid_fraction(phi),
        tip_px=tip_extent(phi, "+x"),
        tip_mx=tip_extent(phi, "-x"),
        tip_py=tip_extent(phi, "+y"),
        tip_my=tip_extent(phi, "-y"),
        conservation_sum=conservation_sum(cut, p.latent_heat),
        free_energy=free_energy(cut.phi, m_field, p),
        arm_count=arm_count(phi),
    )
