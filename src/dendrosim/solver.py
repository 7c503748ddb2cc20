"""Explicit time integration of the coupled phase/temperature equations.

Each step is a strict two-pass (Jacobi) update: pass 1 evaluates every stencil
quantity from the current fields, pass 2 combines them cell by cell, so no
freshly updated value leaks into another cell within the same step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dataclass_field

import numpy as np

from .lattice import (
    PAPER_CODE,
    DIVISOR_MODES,
    Field,
    divisors,
    embed,
    gradient_arrays,
    laplacian9_arrays,
    periodic_pad,
    support_window,
)
from .physics import (
    ModelParams,
    RngStream,
    epsilon_of_theta,
    interface_angle,
    m_of_temperature,
    noise_term,
    reaction_term,
    require_finite,
)


# How far the window that `step` updates reaches beyond the nonzero phi and
# T cells.  A new value depends on phi and T at most 2 cells away (stencils
# of stencils), so cells further out step from exact zeros to +0.0.  The
# third cell is for replicate_appendix_bug, which spreads the eps^2 gradient
# of the last cell over the grid: it keeps the eps^2 neighbours of the
# window's last cell constant, so that gradient is +0.0 there, as it is at
# the grid's last cell.
WINDOW_REACH = 3


class BlowupError(RuntimeError):
    """Raised when a step produces a non-finite value."""

    def __init__(self, step: int, field_name: str, cell: tuple[int, int]):
        self.step = step
        self.field_name = field_name
        self.cell = cell
        super().__init__(f"non-finite {field_name} at step {step}, cell {cell}")


@dataclass
class SimParams:
    """Complete run description: model constants plus grid and schedule."""

    nx: int = 500
    ny: int = 500
    dx: float = 0.03
    dt: float = 1e-4
    total_steps: int = 2000
    model: ModelParams = dataclass_field(default_factory=ModelParams)
    rng_seed: int = 0
    seed_radius_sq: float = 20.0
    divisor_mode: str = PAPER_CODE
    snapshot_every: int = 500
    diagnostics_every: int = 100
    replicate_appendix_bug: bool = False
    allow_unstable: bool = False

    def __post_init__(self):
        require_finite(self)
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


@dataclass
class SimState:
    phi: Field
    temp: Field
    step: int = 0
    time: float = 0.0


def stability_check(p: SimParams) -> tuple[bool, float, float]:
    """Explicit-Euler step limits for the thermal and phase equations.

    The nine-point stencil's most negative eigenvalue is -16 / (3 dx^2), giving
    dt <= 3 dx^2 / 8 for the heat equation and the same bound scaled by
    tau / eps_max^2 for the phase equation.
    """
    dt_thermal = 3.0 * p.dx * p.dx / 8.0
    eps_max = p.model.eps_bar * (1.0 + p.model.delta)
    if eps_max > 0.0:
        dt_phase = dt_thermal * p.model.tau / (eps_max * eps_max)
    else:
        dt_phase = math.inf
    ok = p.dt <= min(dt_thermal, dt_phase)
    return ok, dt_thermal, dt_phase


def initialize(p: SimParams) -> SimState:
    """Solid disk of radius^2 seed_radius_sq (in cells) at the grid center,
    surrounded by supercooled liquid at temperature 0."""
    di = np.arange(p.nx)[:, None] - p.nx // 2
    dj = np.arange(p.ny)[None, :] - p.ny // 2
    phi = np.where(di * di + dj * dj < p.seed_radius_sq, 1.0, 0.0)
    temp = np.zeros((p.nx, p.ny))
    return SimState(
        phi=Field(phi, p.dx),
        temp=Field(temp, p.dx),
        step=0,
        time=0.0,
    )


def step(
    state: SimState,
    p: SimParams,
    rng: RngStream | None = None,
    freeze_temperature: bool = False,
) -> SimState:
    """Advance one step on cells of side p.dx, the spacing the stability
    check in SimParams passed; a state field of another spacing is a
    ValueError.

    Only the window around the nonzero cells of phi and T is updated (see
    lattice.support_window and WINDOW_REACH); every cell outside it is +0.0
    in the result, as the whole-grid update would write there too: where all
    inputs are +-0.0, every gradient and flux is zero, theta is 0 and eps is
    constant, so each term is +-0.0 and the sums are +0.0.  When the nonzero
    cells come within WINDOW_REACH of an edge the window spans that axis, and
    the whole grid is the widest window.  A frozen T is returned as a copy
    of the whole input.

    Pass 1 (over the window): gradients and Laplacians of phi, Laplacian of
    T, the interface angle, eps/eps' fields, the flux product
    eps*eps'*grad(phi) as periodic ghost-cell copies (see
    lattice.periodic_pad) whose neighbours are slice views, the gradient of
    eps^2, and the noise field.
    Pass 2 is purely elementwise on those arrays:

        term1 =  d/dy [eps eps' dphi/dx]
        term2 = -d/dx [eps eps' dphi/dy]
        term3 =  grad(eps^2) . grad(phi)
        dphi  = (dt/tau) (term1 + term2 + eps^2 lap(phi) + term3
                          + reaction + noise)
        T'    =  T + dt lap(T) + latent_heat * dphi

    With replicate_appendix_bug the eps^2 gradient degenerates to the two
    scalars left over from the last raster cell, reproducing the circulated
    reference code's stale-variable behavior.
    """
    for name, f in (("phi", state.phi), ("temp", state.temp)):
        if f.dx != p.dx:
            raise ValueError(f"state {name} has dx={f.dx}, but the params have dx={p.dx}")
    mp = p.model
    dx = p.dx
    shape = state.phi.data.shape
    window = support_window(state.phi.data, state.temp.data, WINDOW_REACH)
    # contiguous, so the ufuncs below run the same loops as on the whole grid
    phi = np.ascontiguousarray(state.phi.data[window])
    temp = np.ascontiguousarray(state.temp.data[window])

    gx, gy = gradient_arrays(phi, dx, p.divisor_mode)
    lap_phi = laplacian9_arrays(phi, dx)
    lap_t = laplacian9_arrays(temp, dx)

    theta = interface_angle(gx, gy)
    eps, eps_prime = epsilon_of_theta(theta, mp)
    eps2 = eps * eps
    flux = eps * eps_prime
    qx = periodic_pad(flux * gx)
    qy = periodic_pad(flux * gy)

    ge2x, ge2y = gradient_arrays(eps2, dx, p.divisor_mode)
    if p.replicate_appendix_bug:
        # stale scalars from the last cell visited by the reference code
        ge2x = np.full_like(ge2x, ge2x[-1, -1])
        ge2y = np.full_like(ge2y, ge2y[-1, -1])

    chi = None
    if mp.noise_amp > 0.0:
        if rng is None:
            raise ValueError("noise_amp > 0 requires an RngStream")
        # drawn for the whole grid, so the stream does not depend on the window
        chi = rng.uniform_sym(shape)[window]

    div = divisors(dx, p.divisor_mode)
    dt_over_tau = p.dt / mp.tau
    term1 = (qx[1:-1, 2:] - qx[1:-1, :-2]) / div
    term2 = -(qy[2:, 1:-1] - qy[:-2, 1:-1]) / div
    term3 = ge2x * gx + ge2y * gy
    m = m_of_temperature(temp, mp)
    rhs = (term1 + term2) + term3 + (eps2 * lap_phi + reaction_term(phi, m))
    if chi is not None:
        rhs = rhs + noise_term(phi, mp.noise_amp, chi)
    dphi = rhs * dt_over_tau
    phi_new = phi + dphi
    if freeze_temperature:
        temp_new = temp  # checked below; the state gets a copy of the whole input
    else:
        temp_new = temp + p.dt * lap_t + mp.latent_heat * dphi

    new_step = state.step + 1
    for name, arr in (("phi", phi_new), ("temp", temp_new)):
        if not np.isfinite(arr).all():
            bad = np.argwhere(~np.isfinite(arr))[0]
            cell = (window[0].start + int(bad[0]), window[1].start + int(bad[1]))
            raise BlowupError(new_step, name, cell)

    return SimState(
        phi=Field(embed(phi_new, shape, window), dx),
        temp=Field(
            state.temp.data.copy() if freeze_temperature else embed(temp_new, shape, window), dx
        ),
        step=new_step,
        time=new_step * p.dt,
    )


def run(p: SimParams, on_snapshot=None, on_diagnostics=None):
    """Initialize and advance total_steps steps, emitting through the sinks.

    Snapshots are emitted at step 0, every snapshot_every steps, and at the
    final step; diagnostics likewise with diagnostics_every.  Identical params
    (including rng_seed) give bitwise identical emitted data.  On blow-up the
    last good state is emitted as a snapshot before the error propagates.

    Returns (final state, list of DiagnosticsRecord).
    """
    from .diagnostics import measure

    state = initialize(p)
    rng = RngStream(p.rng_seed)
    records = []

    def emit(st):
        if on_snapshot is not None:
            on_snapshot(st)

    def sample(st):
        rec = measure(st, p.model)
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
