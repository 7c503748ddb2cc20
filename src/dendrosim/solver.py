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
    Box,
    Field,
    cell_view,
    divisors,
    gradient_arrays,
    halo,
    inset,
    laplacian9_arrays,
    nonzero_box,
    widen,
)
from . import diagnostics
from .physics import (
    RngStream,
    epsilon_of_theta,
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
        if not 1 <= self.j_mode <= 2**53:  # past 2**53 an int is no exact float64
            raise ValueError(f"j_mode must be a positive integer at most 2**53, got {self.j_mode}")
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
        # step's float64 pair halo has shape (2, nx + 2 REACH, ny + 2 REACH)
        if 16 * (self.nx + 2 * REACH) * (self.ny + 2 * REACH) > np.iinfo(np.intp).max:
            raise ValueError(f"nx/ny={self.nx}x{self.ny} is too large for numpy to index")
        if self.dx <= 0.0:
            raise ValueError(f"dx must be > 0, got {self.dx}")
        if 3.0 * self.dx * self.dx == 0.0:  # stability_check divides by it
            raise ValueError(f"dx={self.dx} is too small: 3 dx^2 underflows to 0")
        if 3.0 * self.dx * self.dx == math.inf:  # the Laplacian divides by it
            raise ValueError(f"dx={self.dx} is too large: 3 dx^2 overflows")
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
    diagnostics.measure take their windows from it.  initialize hands it
    the seed's box, and step the box it found on the window it wrote; any
    other state scans its fields once, on first use.  So a run scans no
    whole grid, and each step only its window, a saving of the growth phase
    only: once the window spans the grid (step 145 of the desk preset), a
    step costs what it did with a scan.
    A state is immutable, so its fields can never change under its box:
    assigning one raises FrozenInstanceError, and a changed copy is made
    with dataclasses.replace.  Building a state makes its phi and T arrays
    read-only, the caller's own array too where Field did not copy it, so
    writing into them raises ValueError: only step writes into a `spare`.
    """

    phi: Field
    temp: Field
    step: int = 0

    def __post_init__(self):
        self.phi.data.flags.writeable = False
        self.temp.data.flags.writeable = False

    @functools.cached_property
    def box(self):
        """lattice.nonzero_box of phi and T (see the class docstring)."""
        return nonzero_box(self._planes)

    @functools.cached_property
    def _planes(self):
        """phi and T as the planes of one (2, nx, ny) array, as _state_on's."""
        return np.stack((self.phi.data, self.temp.data))


def _state_on(grid: np.ndarray, dx: float, step: int, box: Box | None) -> SimState:
    """The state at `step` on the planes of `grid`, whose box is `box`."""
    state = SimState(phi=Field(grid[0], dx), temp=Field(grid[1], dx), step=step)
    # both are cached_properties: this stores what their first reads would
    object.__setattr__(state, "box", box)
    object.__setattr__(state, "_planes", grid)
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
    surrounded by supercooled liquid at temperature 0: the cells (di, dj)
    from the center cell (nx // 2, ny // 2) with di^2 + dj^2 < seed_radius_sq
    are 1.0, the rest +0.0.  It writes the disk on its box into a zeroed
    (2, nx, ny) grid, and hands the box over; the state is no spare."""
    grid = np.zeros((2, p.nx, p.ny))
    box = None
    if p.seed_radius_sq > 0.0:
        # the largest d with d^2 < seed_radius_sq; SimParams keeps it < n / 2
        d = math.isqrt(math.ceil(p.seed_radius_sq) - 1)
        box = tuple(slice(n // 2 - d, n // 2 + d + 1) for n in (p.nx, p.ny))
        off = np.arange(-d, d + 1)
        grid[0][box] = off[:, None] * off[:, None] + off * off < p.seed_radius_sq
    return _state_on(grid, p.dx, 0, box)


class PassOne(typing.NamedTuple):
    """A state's pass 1 (see step): its window, the pitch of the halo copy's
    rows, the (2, rows * pitch) flat view of that copy, from which step
    takes the phi and T it updates and its pair Laplacian, and grad phi,
    eps and eps' on the window plus one ring, all at that pitch."""

    window: Box
    pitch: int
    pair: np.ndarray
    gx: np.ndarray
    gy: np.ndarray
    eps: np.ndarray
    eps_prime: np.ndarray


def stencil_pass(state: SimState, p: SimParams) -> PassOne:
    """Pass 1 of step on `state`: the window, its pair halo, grad phi, and
    eps and eps' of grad phi, in that order.  The pair Laplacian,
    which measure does not read, is left to step, which takes it from the
    halo's `pair`.  run computes it once for each state it samples and hands
    it to diagnostics.measure, and then to step when the state is stepped
    next.  A state field of another spacing than p.dx, or of another shape
    than p.nx x p.ny, is a ValueError, raised before the box is scanned."""
    for name, f in (("phi", state.phi), ("temp", state.temp)):
        if f.data.shape != (p.nx, p.ny):
            raise ValueError(
                f"state {name} has shape {f.nx}x{f.ny}, but the params have {p.nx}x{p.ny}"
            )
        if f.dx != p.dx:
            raise ValueError(f"state {name} has dx={f.dx}, but the params have dx={p.dx}")
    dx, mode = p.dx, p.divisor_mode
    window = widen(state.box, state.phi.data.shape)
    h = halo(state._planes, window)
    pitch = h.shape[2]
    pair = h.reshape(2, -1)
    gx, gy = gradient_arrays(pair[0], pitch, dx, mode)
    eps, eps_prime = epsilon_of_theta(gx, gy, p)
    return PassOne(window, pitch, pair, gx, gy, eps, eps_prime)


def _reused_grid(spare: SimState, state: SimState, window: Box) -> np.ndarray:
    """The grid step wrote `spare` into, its box cleared if it reaches
    outside `window`, or a ValueError (see step)."""
    grid = getattr(spare, "_grid", None)
    if grid is None or grid.shape != (2, *state.phi.data.shape):
        raise ValueError("spare must be a state step returned, once, of the stepped state's shape")
    if np.may_share_memory(grid, state.phi.data) or np.may_share_memory(grid, state.temp.data):
        raise ValueError("spare shares its grid with the stepped state")
    object.__delattr__(spare, "_grid")  # a spare gives its grid up once
    box = spare.box
    # in a run the box lies inside the window but where the crystal shrinks
    if box is not None and not all(w.start <= b.start and b.stop <= w.stop
                                   for b, w in zip(box, window)):
        grid[(slice(None), *box)] = 0.0
    return grid


def step(state: SimState, p: SimParams, rng: RngStream | None = None, *,
         stencils: PassOne | None = None, spare: SimState | None = None) -> SimState:
    """Advance one step on cells of side p.dx, the spacing the stability
    check in SimParams passed; a state field of another spacing, or of
    another shape than p.nx x p.ny, is a ValueError (see stencil_pass).

    Only the window around the nonzero cells of phi and T is updated: the
    state's box widened by lattice.REACH (see there for why that gives the
    bits of the whole-grid update).  Every cell outside it is +0.0 in the
    result, so the result's box is found on the window alone.  Where the
    widened box would leave the grid the window spans that axis
    (lattice.widen), and the whole grid is the widest window.

    Pass 1 copies the window of phi and T once, together, with REACH = 2
    rings of their periodic neighbours (lattice.halo of the state's grid):
    a (2, R, C) buffer, C the window's columns + 2 REACH.  Every stencil
    reads contiguous slices of the buffer's flat view, in valid mode, so its
    result is its input less one ring (see lattice).  grad(phi), eps and
    eps' of it and the flux product eps*eps'*grad(phi) cover the window plus
    one ring; the Laplacians of phi and T (one call on a flat span across
    both planes), grad(eps^2) and the flux differences cover the window.
    These arrays keep the rows at pitch C, so they also hold the positions
    between the ends of their rows, and the Laplacians those between the
    planes.  Those are no cells: their stencils wrap from one row's end to
    the next row's start, but read only finite halo values, and no cell
    reads them.  The padded rows end at the last sums of stencil results,
    the Allen-Cahn sum and T + dt lap(T): they and phi are cut to the
    window's cells (cell_view), and the noise, the window of one whole-grid
    draw (RngStream.uniform_sym), and the update run on cells.
    stencil_pass computes pass 1 up to eps and eps', less the pair
    Laplacian, which step then takes from the halo's `pair`, so a pass 1 that
    only measure reads (a run's final sample) computes none.  `stencils` is
    that pass 1 already computed for this state and p: run computes it once
    for each state it samples, so measure and step share it.  It gives the
    bits step computes without it, and step drops it once read.
    Pass 2 is purely elementwise:

        term1 =  d/dy [eps eps' dphi/dx]
        term2 = -d/dx [eps eps' dphi/dy]
        term3 =  grad(eps^2) . grad(phi)
        dphi  = (dt/tau) (term1 + term2 + eps^2 lap(phi) + term3
                          + reaction + noise)
        T'    =  T + dt lap(T) + latent_heat * dphi

    The last sums of phi' and T' are written into the window of one
    (2, nx, ny) grid, +0.0 outside the window, whose planes are the new
    state's fields; that window alone is checked for finite values and
    scanned for the new box, which the new state carries.  A BlowupError
    names the first non-finite cell of the grid, phi before T.
    That grid is a new one of zeros, or that of `spare`, a state step
    returned that the caller gives up (see run), which saves zero-filling
    it; the spare's fields change, also when step raises BlowupError.  A
    spare step did not return, one given before, or one whose grid has
    another shape or is this state's is a ValueError, before the noise
    draw.  Its box, outside which its cells are +0.0, is cleared if it
    reaches outside the window, and the window written.

    With replicate_appendix_bug the eps^2 gradient degenerates to the two
    scalars left over from the grid's last raster cell, reproducing the
    circulated reference code's stale-variable behavior.
    """
    dx, mode = p.dx, p.divisor_mode
    shape = state.phi.data.shape
    if stencils is None:
        stencils = stencil_pass(state, p)
    window, pitch, pair, gx, gy, eps, eps_prime = stencils
    del stencils  # so the dels below free what they name
    # before the noise draw, so a spare that raises leaves rng where it was
    grid = None if spare is None else _reused_grid(spare, state, window)
    inner = inset(pitch)
    phi, temp = pair[:, inner][:, inner]
    # one Laplacian on the flat span from phi's first ring cell to T's
    # last, so each of its passes is one contiguous loop
    lap = laplacian9_arrays(pair.reshape(-1)[inner], pitch, dx)
    lap_phi, lap_t = lap[:lap.size - pair.shape[1]], lap[pair.shape[1]:]
    del pair

    eps2 = eps * eps
    flux = eps * eps_prime
    del eps, eps_prime
    qx = flux * gx
    qy = flux * gy
    del flux

    if p.replicate_appendix_bug:
        # stale scalars from the grid's last cell, whatever the window: its
        # eps^2 gradient reads phi at most REACH cells away, in its halo
        side = 2 * REACH + 1
        block = halo(state.phi.data[None], np.s_[-1:, -1:]).reshape(-1)
        bx, by = gradient_arrays(block, side, dx, mode)
        eps_b, _ = epsilon_of_theta(bx, by, p)
        ge2x, ge2y = (g[0] for g in gradient_arrays(eps_b * eps_b, side, dx, mode))
    else:
        ge2x, ge2y = gradient_arrays(eps2, pitch, dx, mode)

    div = divisors(dx, mode)
    dt_over_tau = p.dt / p.tau
    term1 = (qx[pitch + 2:-pitch] - qx[pitch:-pitch - 2]) / div
    # -d/dx as one difference: (b - a) and -(a - b) differ only in the sign
    # of a zero, and no state from initialize or step holds a -0.0 cell, so
    # that sign cannot reach phi + dphi or heated + latent_heat * dphi
    term2 = (qy[1:-2 * pitch - 1] - qy[2 * pitch + 1:-1]) / div
    # the later temporaries live to the end of the step: freed early, they
    # leave the top of the heap free, and the allocator returns it to the
    # system at every step, to fault it back in at the next
    del qx, qy
    term3 = ge2x * gx[inner] + ge2y * gy[inner]
    m = m_of_temperature(temp, p)
    rhs = (term1 + term2) + term3 + (eps2[inner] * lap_phi + reaction_term(phi, m))
    # from here on, the window's cells only
    cols = pitch - 2 * REACH
    rhs, phi = (cell_view(a, pitch, cols) for a in (rhs, phi))
    if p.noise_amp > 0.0:
        if rng is None:
            raise ValueError("noise_amp > 0 requires an RngStream")
        # the window of a whole-grid draw, so the stream does not depend on it
        chi = rng.uniform_sym(shape, window)
        rhs = rhs + noise_term(phi, p.noise_amp, chi)
    dphi = rhs * dt_over_tau

    if grid is None:
        grid = np.zeros((2, *shape))
    new = grid[(slice(None), *window)]
    np.add(phi, dphi, out=new[0])
    heated = temp + p.dt * lap_t
    np.add(cell_view(heated, pitch, cols), p.latent_heat * dphi, out=new[1])

    new_step = state.step + 1
    if not np.isfinite(new).all():
        # every cell outside the window is +0.0, so the grid's first
        # non-finite cell in raster order is the window's
        for name, plane in zip(("phi", "temp"), grid):
            bad = np.argwhere(~np.isfinite(plane))
            if bad.size:
                raise BlowupError(new_step, name, (int(bad[0, 0]), int(bad[0, 1])))

    box = nonzero_box(new)
    if box is not None:
        box = tuple(slice(w.start + b.start, w.start + b.stop) for w, b in zip(window, box))
    result = _state_on(grid, dx, new_step, box)
    # the grid a later step may take back as the spare's
    object.__setattr__(result, "_grid", grid)
    return result


# Bytes of the block run allocates and frees once in a process, before its
# first step.  glibc's malloc raises its mmap threshold to the size of the
# first mmap-ed block freed above it, and its heap-trim threshold to twice
# that, but no further than 32 MiB and 64 MiB; this block takes them that
# far.  Unsettled, a step hands the top of the heap back to the system and
# faults it in again at the next, and more so when it writes into a reused
# grid, as in run: no late allocation pins the heap's top.  In fresh
# processes (glibc 2.36), a block just under 4 MiB left a noisy 300x300 run
# faulting 1291 pages per step, and a 16 MiB one the 500x500 default preset
# 1675; this one, 24 and 41.  Once only: a later block would come from the
# heap, where numpy advises huge pages for an array of 4 MiB and up.
SETTLE_BYTES = (32 << 20) - (64 << 10)


@functools.cache  # the allocator's thresholds are the process's, not a run's
def _settle_allocator() -> None:
    """Allocate and free the SETTLE_BYTES block, once in a process."""
    np.empty(SETTLE_BYTES // 8)


def run(p: SimParams, on_snapshot=None, on_diagnostics=None):
    """Initialize and advance total_steps steps, emitting through the sinks.

    Snapshots are emitted at step 0, every snapshot_every steps, and at the
    final step; diagnostics likewise with diagnostics_every.  Identical params
    (including rng_seed) give bitwise identical emitted data.  On blow-up the
    last good state is emitted as a snapshot before the error propagates,
    unless the cadence emitted it, so on_snapshot sees each state once;
    state 0 is sampled before any step, so a run has at least one record.
    Every sampled state, the final one too, gets one stencil_pass, which
    diagnostics.measure reads and step, for a state stepped next, then
    uses.
    Each step writes into the grid of the state run dropped last, its
    `spare`: one that is not state 0, was not emitted and is not returned.
    A state handed to on_snapshot, or returned, is never reused, so a
    caller may keep it.

    Returns (final state, list of DiagnosticsRecord).
    """
    _settle_allocator()
    state = initialize(p)
    rng = RngStream(p.rng_seed)
    records = []

    emit = on_snapshot or (lambda st: None)

    # measure and step are looked up on their modules, so a wrapper set on
    # them (the bench's span tracer) sees these calls
    def sample(st):
        """Measure st on its pass 1, and return that pass 1."""
        stencils = stencil_pass(st, p)
        rec = diagnostics.measure(st, p, stencils=stencils)
        records.append(rec)
        if on_diagnostics is not None:
            on_diagnostics(rec)
        return stencils

    emit(state)
    spare = None
    while state.step < p.total_steps:
        sampled = state.step % p.diagnostics_every == 0
        try:
            # no name here holds the pass 1, so step frees it as it reads it
            new = step(state, p, rng, stencils=sample(state) if sampled else None,
                       spare=spare)
        except BlowupError:
            if state.step % p.snapshot_every:
                emit(state)
            raise
        # a state off the snapshot cadence was not emitted (state 0 is on it)
        spare = state if state.step % p.snapshot_every else None
        state = new
        if state.step % p.snapshot_every == 0 or state.step == p.total_steps:
            emit(state)
    sample(state)
    return state, records
