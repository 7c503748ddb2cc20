"""Quantitative measurements on simulation states.

Solid cells are those with phi >= 0.5 throughout; the threshold is the
symmetric midpoint of the two bulk values.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import solver
from .lattice import PAPER_CODE, Field, cell_view, inset, lattice_sum
from .physics import double_well, m_of_temperature

SOLID_THRESHOLD = 0.5
# arm_count: the least swing of the sector radius profile, in grid cells, that
# is more than lattice wiggle (a lattice disk up to 140 cells swings under one)
ARM_MIN_CELLS = 2.0


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


def _solid_cells(phi: Field, window=np.s_[:, :]) -> tuple[np.ndarray, np.ndarray]:
    """Offsets (di, dj) from the grid center of phi's solid cells in `window`,
    in raster order, the order a whole-grid boolean mask selects them in."""
    di, dj = np.nonzero(phi.data[window] >= SOLID_THRESHOLD)
    r0, c0 = (s.indices(n)[0] - n // 2 for s, n in zip(window, phi.data.shape))
    return di + r0, dj + c0


def solid_fraction(phi: Field) -> float:
    """Fraction of cells at or above the solid threshold."""
    return _solid_cells(phi)[0].size / (phi.nx * phi.ny)


def tip_extents(phi: Field) -> tuple[float, float, float, float]:
    """Distances (+x, -x, +y, -y) from the grid center to the farthest solid
    cell on each axis ray; 0 for a ray that holds no solid cell."""
    ci, cj = phi.nx // 2, phi.ny // 2
    rays = (phi.data[ci:, cj], phi.data[ci::-1, cj], phi.data[ci, cj:], phi.data[ci, cj::-1])
    tips = []
    for ray in rays:
        solid = np.nonzero(ray >= SOLID_THRESHOLD)[0]
        tips.append(float(solid[-1]) * phi.dx if solid.size else 0.0)
    return tuple(tips)


def _radius_profile(phi: Field, cells=None) -> np.ndarray:
    """Max solid radius in each of 360 one-degree sectors about the grid
    center, over phi's solid cells `cells` (_solid_cells), by default all.

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
    di, dj = _solid_cells(phi) if cells is None else cells
    dx = phi.dx
    q1 = (dj > 0) & (di <= 0)
    q2 = (di < 0) & (dj <= 0)
    q3 = (dj < 0) & (di >= 0)
    keep = (di != 0) | (dj != 0)  # every cell but the center
    quadrant = (q1 + 2 * q2 + 3 * q3)[keep]
    di, dj = di[keep], dj[keep]
    u = np.choose(quadrant, (di, dj, -di, -dj)).astype(float)
    v = np.choose(quadrant, (dj, -di, -dj, di)).astype(float)

    profile = np.zeros(360)
    radius = np.hypot(u * dx, v * dx)
    # folded cells have u >= 1 and v >= 0, so all four corners stay in the
    # open right half-plane, where the angle grows with y and, above the
    # axis, falls as x grows: the lowest corner is (xp, ym), or (xm, ym) on
    # the axis (v = 0, ym < 0), and the highest is always (xm, yp)
    deg = 180.0 / np.pi
    xm, xp = (u - 0.5) * dx, (u + 0.5) * dx
    ym, yp = (v - 0.5) * dx, (v + 0.5) * dx
    lo = np.floor(np.arctan2(ym, np.where(v > 0, xp, xm)) * deg).astype(np.int64)
    hi = np.floor(np.arctan2(yp, xm) * deg).astype(np.int64)
    # one (cell, sector) pair per sector a footprint covers: the cell's n
    # pairs are consecutive, and the pair's offset within them is its index
    # less the index of the cell's first pair
    n = hi - lo + 1
    first = np.cumsum(n) - n
    # a sector of quadrant 0 may start below the x axis (lo >= -45): its
    # negative slot counts from the end, onto sectors 315-359
    slot = np.repeat(quadrant * 90 + lo - first, n)
    slot += np.arange(slot.size)
    np.maximum.at(profile, slot, np.repeat(radius, n))
    return profile


def arm_count(phi: Field) -> int:
    """Order of the crystal's dominant angular symmetry: the k >= 1 whose
    Fourier mode has the largest magnitude in the max solid radius over 360
    one-degree sectors about the grid center (the lowest k of equal ones).
    A profile that swings less than ARM_MIN_CELLS cells is a disk and gives 0;
    a j-fold star gives j, and so does one whose tips split in mirror pairs.
    """
    return _arm_count(_radius_profile(phi), phi.dx)


def _arm_count(profile, dx: float) -> int:
    if profile.max() - profile.min() < ARM_MIN_CELLS * dx:
        return 0
    return 1 + int(np.argmax(np.abs(np.fft.rfft(profile)[1:])))


def conservation_sum(phi: Field, temp: Field, latent_heat: float) -> float:
    """lattice_sum(T) - K * lattice_sum(phi); invariant of the noise-free update."""
    return lattice_sum(temp) - latent_heat * lattice_sum(phi)


def measure(state, p, *, stencils=None) -> DiagnosticsRecord:
    """All per-sample scalars for one state of a run with SimParams p.

    The free energy sums the well density plus (eps^2/2)|grad phi|^2, with
    grad phi centred whatever the divisor mode, so it is comparable across
    configurations.  eps and grad phi are read on the window from
    `stencils`, the state's solver.stencil_pass: run computes it for every
    state it samples, and measure when it is not given, so a state that
    does not fit p is a ValueError, as in step.  Under paper_code that
    gradient is twice the centred one; halving it is exact (a subnormal
    component squares to 0 either way), as is the doubling of both
    arguments of arctan2.

    The m field and the sums of conservation_sum and the free energy are
    taken on that window, the state's box widened by lattice.REACH
    (lattice.widen), and give the bits of the whole-grid sums: every cell
    outside the window, and every wrapped neighbour of a cell in it, is
    +-0.0 with zero gradients, so each cell's density is that of the grid,
    and lattice_sum is correctly rounded, so the sum over the window equals
    the sum over the grid.  The exception is a cell within lattice_sum's
    overflow margin, which depends on the cell count: there both sums fall
    back to numpy's and may differ.
    The solid cells (phi >= 0.5) all lie in the box, and are found there once.
    """
    if stencils is None:
        stencils = solver.stencil_pass(state, p)
    window, pitch = stencils.window, stencils.pitch
    inner = inset(pitch)
    gx, gy, eps = stencils.gx[inner], stencils.gy[inner], stencils.eps[inner]
    # a pass 1 made here is freed, but for these three, before the density
    del stencils
    if p.divisor_mode == PAPER_CODE:
        gx, gy = 0.5 * gx, 0.5 * gy
    phi, temp = state.phi, state.temp
    phi_w, temp_w = Field(phi.data[window], phi.dx), Field(temp.data[window], temp.dx)
    bend = eps * 0.5 * eps * (gx * gx + gy * gy)
    del gx, gy, eps
    density = double_well(phi_w.data, m_of_temperature(temp_w.data, p))
    density += cell_view(bend, pitch, phi_w.ny)
    tip_px, tip_mx, tip_py, tip_my = tip_extents(phi)
    cells = _solid_cells(phi, window)
    return DiagnosticsRecord(
        step=state.step,
        time=state.step * p.dt,
        solid_fraction=cells[0].size / (phi.nx * phi.ny),
        tip_px=tip_px,
        tip_mx=tip_mx,
        tip_py=tip_py,
        tip_my=tip_my,
        conservation_sum=conservation_sum(phi_w, temp_w, p.latent_heat),
        free_energy=lattice_sum(Field(density, phi.dx)),
        arm_count=_arm_count(_radius_profile(phi, cells), phi.dx),
    )
