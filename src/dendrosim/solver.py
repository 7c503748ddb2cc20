"""Explicit time integration of the coupled phase/temperature equations.

Each step is a strict two-pass (Jacobi) update: pass 1 evaluates every stencil
quantity from the current fields, pass 2 combines them cell by cell, so no
freshly updated value leaks into another cell within the same step.
"""

from __future__ import annotations

import functools
import math
import typing
from dataclasses import dataclass

import numpy as np

from .lattice import (
    PAPER_CODE,
    DIVISOR_MODES,
    REACH,
    Field,
    cell_view,
    divisors,
    gradient_arrays,
    halo,
    laplacian9_arrays,
    nonzero_box,
    widen,
)
from . import diagnostics
from .physics import (
    RngStream,
    epsilon_of_theta,
    interface_angle,
    m_of_temperature,
    noise_term,
    reaction_term,
)


class BlowupError(RuntimeError):
    """Raised when a step produces a non-finite value."""

    def __init__(self, step: int, field_name: str, cell: tuple[int, int]):
        self.step = step
        self.field_name = field_name
        self.cell = cell
        super().__init__(f"non-finite {field_name} at step {step}, cell {cell}")


@dataclass
class SimParams:
    """Complete run description: grid and schedule plus the model constants.
    The fields are the config keys, in their document order, and
    allow_unstable (the --force flag).

    nx, ny       grid extents in cells
    dx           cell side
    dt           time step, gated by stability_check
    total_steps  number of steps a run takes
    tau          relaxation time of the phase field
    eps_bar      mean interfacial width coefficient
    delta        anisotropy strength, < 1 so the coefficient stays positive
    j_mode       number of preferred growth directions
    theta0       offset angle of the anisotropy (radians)
    alpha        driving-force amplitude, in (0, 1) so |m| < 1/2 for all T
    gamma        supercooling gain inside the arctan
    t_eq         equilibrium temperature
    latent_heat  dimensionless latent heat released by solidification
    noise_amp    amplitude of the interface noise
    rng_seed     seed of the noise stream
    seed_radius_sq  squared radius of the initial solid disk, in cells
    divisor_mode    central-difference divisor (lattice.DIVISOR_MODES)
    snapshot_every, diagnostics_every  emission cadence of run, in steps
    replicate_appendix_bug  reproduce the reference code's stale eps^2
                            gradient (see step)
    allow_unstable  accept a dt that fails the stability check
    """

    nx: int = 500
    ny: int = 500
    dx: float = 0.03
    dt: float = 1e-4
    total_steps: int = 2000
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
    rng_seed: int = 0
    seed_radius_sq: float = 20.0
    divisor_mode: str = PAPER_CODE
    snapshot_every: int = 500
    diagnostics_every: int = 100
    replicate_appendix_bug: bool = False
    allow_unstable: bool = False

    def __post_init__(self):
        for name, kind in FIELD_TYPES.items():
            value = getattr(self, name)
            # a float field also takes an int, but never a bool
            allowed = (int, float) if kind is float else (kind,)
            if type(value) not in allowed:
                raise ValueError(f"{name} must be of type {kind.__name__}, got {value!r}")
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        # model constants first, then grid and schedule
        if self.eps_bar < 0.0:
            raise ValueError(f"eps_bar must be >= 0, got {self.eps_bar}")
        if not 0.0 <= self.delta < 1.0:
            raise ValueError(f"delta must be in [0, 1), got {self.delta}")
        if self.j_mode < 1:
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
        if self.nx < 3 or self.ny < 3:
            raise ValueError(f"nx/ny must be >= 3, got {self.nx}x{self.ny}")
        if self.dx <= 0.0:
            raise ValueError(f"dx must be > 0, got {self.dx}")
        if self.dt <= 0.0:
            raise ValueError(f"dt must be > 0, got {self.dt}")
        if self.total_steps < 0:
            raise ValueError(f"total_steps must be >= 0, got {self.total_steps}")
        if self.rng_seed < 0:
            raise ValueError(f"rng_seed must be >= 0, got {self.rng_seed}")
        if self.seed_radius_sq < 0.0:
            raise ValueError(f"seed_radius_sq must be >= 0, got {self.seed_radius_sq}")
        if math.sqrt(self.seed_radius_sq) >= min(self.nx, self.ny) / 2:
            raise ValueError(
                f"seed_radius_sq={self.seed_radius_sq} does not fit a {self.nx}x{self.ny} grid"
            )
        if self.divisor_mode not in DIVISOR_MODES:
            raise ValueError(f"divisor_mode must be one of {DIVISOR_MODES}, got {self.divisor_mode!r}")
        if self.snapshot_every < 1:
            raise ValueError(f"snapshot_every must be >= 1, got {self.snapshot_every}")
        if self.diagnostics_every < 1:
            raise ValueError(f"diagnostics_every must be >= 1, got {self.diagnostics_every}")
        ok, dt_thermal, dt_phase = stability_check(self)
        if not ok and not self.allow_unstable:
            raise ValueError(
                f"dt={self.dt} exceeds the explicit stability bound "
                f"min(dt_max_thermal={dt_thermal}, dt_max_phase={dt_phase}); "
                "reduce dt or set the unstable override"
            )


# field name -> annotated type, read by SimParams.__post_init__ and io
FIELD_TYPES = typing.get_type_hints(SimParams)


@dataclass(frozen=True)
class SimState:
    """The phi and T fields after `step` steps, at time step * dt.

    A state carries `box`, the box of its nonzero cells, and step and
    diagnostics.measure take their windows from it instead of scanning the
    grid.  initialize records the seed's box and step the box of its
    result, found on the window it has just updated.  That saving is in the
    growth phase only: once the window spans the grid (step 143 of the desk
    preset), a step costs what it did with a scan.
    A state is immutable, so its fields can never change under its box:
    assigning one raises FrozenInstanceError, and a changed copy is made
    with dataclasses.replace.  Building a state makes its phi and T arrays
    read-only, the caller's own array too where Field did not copy it, so
    writing into them raises ValueError.
    """

    phi: Field
    temp: Field
    step: int = 0

    def __post_init__(self):
        self.phi.data.flags.writeable = False
        self.temp.data.flags.writeable = False

    @functools.cached_property
    def box(self):
        """lattice.nonzero_box of phi and T.  step and initialize hand it to
        the states they make; any other state (built by hand, or by
        dataclasses.replace) scans its fields on first use."""
        return nonzero_box((self.phi.data, self.temp.data))


def _carrying(box, **fields) -> SimState:
    """SimState(**fields) whose box is `box`, found without a scan."""
    state = SimState(**fields)
    # box is a cached_property: this stores the value its first read would compute
    object.__setattr__(state, "box", box)
    return state


def stability_check(p: SimParams) -> tuple[bool, float, float]:
    """Explicit-Euler step limits for the thermal and phase equations.

    The nine-point stencil's most negative eigenvalue is -16 / (3 dx^2), giving
    dt <= 3 dx^2 / 8 for the heat equation.  The phase equation's fastest
    decay rate is eps_max^2 times that eigenvalue plus the reaction's steepest
    slope, -(1 + alpha) / 2 at a bulk state (|m| < alpha / 2), over tau, and
    dt is at most 2 over its magnitude.
    """
    dt_thermal = 3.0 * p.dx * p.dx / 8.0
    eps_max = p.eps_bar * (1.0 + p.delta)
    rate = 16.0 * eps_max * eps_max / (3.0 * p.dx * p.dx) + (1.0 + p.alpha) / 2.0
    dt_phase = 2.0 * p.tau / rate
    ok = p.dt <= min(dt_thermal, dt_phase)
    return ok, dt_thermal, dt_phase


def initialize(p: SimParams) -> SimState:
    """Solid disk of radius^2 seed_radius_sq (in cells) at the grid center,
    surrounded by supercooled liquid at temperature 0."""
    di = np.arange(p.nx)[:, None] - p.nx // 2
    dj = np.arange(p.ny)[None, :] - p.ny // 2
    phi = np.where(di * di + dj * dj < p.seed_radius_sq, 1.0, 0.0)
    # the disk reaches a row (column) iff it holds that line's centre cell
    rows = np.flatnonzero(phi[:, p.ny // 2])
    cols = np.flatnonzero(phi[p.nx // 2])
    box = None
    if rows.size:
        box = slice(int(rows[0]), int(rows[-1]) + 1), slice(int(cols[0]), int(cols[-1]) + 1)
    return _carrying(box, phi=Field(phi, p.dx), temp=Field.zeros(p.nx, p.ny, p.dx))


def step(state: SimState, p: SimParams, rng: RngStream | None = None) -> SimState:
    """Advance one step on cells of side p.dx, the spacing the stability
    check in SimParams passed; a state field of another spacing, or of
    another shape than p.nx x p.ny, is a ValueError.

    Only the window around the nonzero cells of phi and T is updated: the
    state's box widened by lattice.REACH (see there for why that gives the
    bits of the whole-grid update).  Every cell outside it is +0.0 in the
    result, so the result's box is found on the window alone.  Where the
    window's halo would pass an edge the window spans that axis
    (lattice.widen), and the whole grid is the widest window.

    Pass 1 copies the window of phi and T once, together, with REACH = 2
    rings of their grid neighbours (lattice.halo): a (2, R, C) buffer, C the
    window's columns + 4.  Every stencil reads contiguous slices of the
    buffer's flat view, in valid mode, so its result is its input less one
    ring (see lattice).  grad(phi), the angle, eps, eps' and the flux
    product eps*eps'*grad(phi) cover the window plus one ring; the
    Laplacians of phi and T (one call on the pair), grad(eps^2), the flux
    differences and the noise cover the window.  Every array keeps the rows
    at pitch C, so it also holds the positions between the ends of its rows.
    Those are no cells: their stencils wrap from one row's end to the next
    row's start, but read only finite halo values (the noise there is 0), no
    cell ever reads them, and they are dropped when the result
    is written.  Pass 2 is purely elementwise on those arrays:

        term1 =  d/dy [eps eps' dphi/dx]
        term2 = -d/dx [eps eps' dphi/dy]
        term3 =  grad(eps^2) . grad(phi)
        dphi  = (dt/tau) (term1 + term2 + eps^2 lap(phi) + term3
                          + reaction + noise)
        T'    =  T + dt lap(T) + latent_heat * dphi

    The last sums of phi' and T' are written into the window of one
    (2, nx, ny) grid of zeros, whose planes are the new state's fields; that
    window alone is checked for finite values and scanned for the new box.

    With replicate_appendix_bug the eps^2 gradient degenerates to the two
    scalars left over from the grid's last raster cell, reproducing the
    circulated reference code's stale-variable behavior.
    """
    for name, f in (("phi", state.phi), ("temp", state.temp)):
        if f.data.shape != (p.nx, p.ny):
            raise ValueError(
                f"state {name} has shape {f.nx}x{f.ny}, but the params have {p.nx}x{p.ny}"
            )
        if f.dx != p.dx:
            raise ValueError(f"state {name} has dx={f.dx}, but the params have dx={p.dx}")
    dx, mode = p.dx, p.divisor_mode
    shape = state.phi.data.shape
    window = widen(state.box, shape)
    h = halo((state.phi.data, state.temp.data), window, REACH)
    _, rows, pitch = h.shape
    f = h.reshape(2, -1)
    inset = slice(pitch + 1, -pitch - 1)  # a flat array less one ring
    ring = f[:, inset]  # the window and one ring
    phi, temp = ring[:, inset]
    gx, gy = gradient_arrays(f[0], pitch, dx, mode)
    lap_phi, lap_t = laplacian9_arrays(ring, pitch, dx)

    eps, eps_prime = epsilon_of_theta(interface_angle(gx, gy), p)
    eps2 = eps * eps
    flux = eps * eps_prime
    del eps, eps_prime
    qx = flux * gx
    qy = flux * gy
    del flux

    if p.replicate_appendix_bug:
        # stale scalars from the grid's last cell, whatever the window: its
        # eps^2 gradient reads phi at most 2 cells away, in this 5x5 block
        block = state.phi.data[np.ix_(np.arange(-3, 2) % p.nx, np.arange(-3, 2) % p.ny)]
        bx, by = gradient_arrays(block.ravel(), 5, dx, mode)
        eps_b, _ = epsilon_of_theta(interface_angle(bx, by), p)
        ge2x, ge2y = (g[0] for g in gradient_arrays(eps_b * eps_b, 5, dx, mode))
    else:
        ge2x, ge2y = gradient_arrays(eps2, pitch, dx, mode)

    chi = None
    if p.noise_amp > 0.0:
        if rng is None:
            raise ValueError("noise_amp > 0 requires an RngStream")
        # the window's rows of a whole-grid draw, so the stream does not
        # depend on the window; its cells laid out as the halo's rows, with
        # zeros between them
        drawn = rng.uniform_sym(shape, window[0])
        band = np.zeros((rows - 4, pitch))
        band[:, 2:-2] = drawn[:, window[1]]
        chi = band.reshape(-1)[2:-2]
        del drawn, band

    div = divisors(dx, mode)
    dt_over_tau = p.dt / p.tau
    term1 = (qx[pitch + 2:-pitch] - qx[pitch:-pitch - 2]) / div
    term2 = -(qy[2 * pitch + 1:-1] - qy[1:-2 * pitch - 1]) / div
    # the later temporaries live to the end of the step: freed early, they
    # leave the top of the heap free, and the allocator returns it to the
    # system at every step, to fault it back in at the next
    del qx, qy
    term3 = ge2x * gx[inset] + ge2y * gy[inset]
    m = m_of_temperature(temp, p)
    rhs = (term1 + term2) + term3 + (eps2[inset] * lap_phi + reaction_term(phi, m))
    if chi is not None:
        rhs = rhs + noise_term(phi, p.noise_amp, chi)
        del chi
    dphi = rhs * dt_over_tau

    cols = pitch - 4
    grid = np.zeros((2, *shape))
    new = grid[(slice(None), *window)]
    np.add(cell_view(phi, pitch, cols), cell_view(dphi, pitch, cols), out=new[0])
    heated = temp + p.dt * lap_t
    np.add(cell_view(heated, pitch, cols), cell_view(p.latent_heat * dphi, pitch, cols),
           out=new[1])

    new_step = state.step + 1
    if not np.isfinite(new).all():
        for name, plane in zip(("phi", "temp"), new):
            bad = np.argwhere(~np.isfinite(plane))
            if bad.size:
                cell = (window[0].start + int(bad[0, 0]), window[1].start + int(bad[0, 1]))
                raise BlowupError(new_step, name, cell)

    box = nonzero_box(new)
    if box is not None:
        box = tuple(slice(w.start + b.start, w.start + b.stop) for w, b in zip(window, box))
    return _carrying(box, phi=Field(grid[0], dx), temp=Field(grid[1], dx), step=new_step)


def run(p: SimParams, on_snapshot=None, on_diagnostics=None):
    """Initialize and advance total_steps steps, emitting through the sinks.

    Snapshots are emitted at step 0, every snapshot_every steps, and at the
    final step; diagnostics likewise with diagnostics_every.  Identical params
    (including rng_seed) give bitwise identical emitted data.  On blow-up the
    last good state is emitted as a snapshot before the error propagates.

    Returns (final state, list of DiagnosticsRecord).
    """
    state = initialize(p)
    rng = RngStream(p.rng_seed)
    records = []

    emit = on_snapshot or (lambda st: None)

    def sample(st):
        # looked up on the module, so a wrapper set on diagnostics.measure
        # (the bench's span tracer) sees these calls
        rec = diagnostics.measure(st, p)
        records.append(rec)
        if on_diagnostics is not None:
            on_diagnostics(rec)

    emit(state)
    sample(state)
    for _ in range(p.total_steps):
        try:
            state = step(state, p, rng)
        except BlowupError:
            emit(state)
            raise
        last = state.step == p.total_steps
        if state.step % p.snapshot_every == 0 or last:
            emit(state)
        if state.step % p.diagnostics_every == 0 or last:
            sample(state)
    return state, records
