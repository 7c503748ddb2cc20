"""Time integration: stability bounds, initialization, the update step, run."""

import copy
import dataclasses
import math
import tracemalloc
import warnings

import numpy as np
import pytest

import reference as R
from dendrosim import lattice, solver
from dendrosim.diagnostics import measure
from dendrosim.lattice import (
    CENTERED,
    PAPER_CODE,
    REACH,
    Field,
    lattice_sum,
    nonzero_box,
    widen,
)
from dendrosim.physics import RngStream, m_of_temperature, reaction_term
from dendrosim.solver import (
    BlowupError,
    SimParams,
    SimState,
    initialize,
    run,
    stability_check,
    step,
)


class FixedNoise:
    """Stands in for RngStream when a test wants a hand-chosen noise field."""

    def __init__(self, chi):
        self.chi = chi

    def uniform_sym(self, shape, rows=slice(None)):
        assert shape == self.chi.shape
        return self.chi[rows]


def small_params(**kwargs):
    defaults = dict(nx=32, ny=32, total_steps=10)
    defaults.update(kwargs)
    return SimParams(**defaults)


def uniform_state(nx, ny, dx, phi_value, temp_value):
    return SimState(
        phi=Field(np.full((nx, ny), float(phi_value)), dx),
        temp=Field(np.full((nx, ny), float(temp_value)), dx),
        step=0,
    )


class TestStabilityCheck:
    def test_default_parameters_are_stable(self):
        ok, dt_thermal, dt_phase = stability_check(SimParams())
        assert ok
        assert dt_thermal == pytest.approx(3.375e-4, rel=1e-12)
        # phase bound is looser than thermal at the default anisotropy
        assert dt_phase > dt_thermal

    def test_thermal_bound_matches_stencil_symbol(self):
        # dt_max = -2 / (most negative stencil eigenvalue)
        dx = 0.03
        _, dt_thermal, _ = stability_check(SimParams(dx=dx))
        assert dt_thermal == pytest.approx(-2.0 / R.stencil_symbol_min(dx), rel=1e-12)

    def test_huge_step_rejected(self):
        ok, _, _ = stability_check(SimParams(dt=1.0, allow_unstable=True))
        assert not ok

    def test_zero_interface_width_leaves_the_reaction_bound(self):
        # with no gradient term the phase bound is 2 tau over the reaction's
        # steepest slope (1 + alpha) / 2
        for tau, alpha in ((3e-4, 0.9), (1e-4, 0.5)):
            p = SimParams(eps_bar=0.0, tau=tau, alpha=alpha)
            ok, _, dt_phase = stability_check(p)
            assert ok
            assert dt_phase == pytest.approx(4.0 * tau / (1.0 + alpha), rel=1e-15)

    def test_phase_bound_adds_the_reaction_slope_to_the_stencil(self):
        p = SimParams(tau=1e-4)
        eps_max = p.eps_bar * (1.0 + p.delta)
        lam = -R.stencil_symbol_min(p.dx)
        want = 2.0 * p.tau / (eps_max * eps_max * lam + (1.0 + p.alpha) / 2.0)
        assert stability_check(p)[2] == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("mode", [PAPER_CODE, CENTERED])
    def test_small_tau_run_just_inside_the_bound_stays_bounded(self, mode):
        # tau = 1e-4 on 64x64 with noise: the Laplacian-only bound, 3.06e-4,
        # blows up at step 11 at 0.95 times itself.  At 0.99 times the bound
        # with the reaction slope, 1.2474e-4 here (dt = 1.235e-4), 2000 steps
        # measured finite with phi in [-0.006, 1.016] at tau 1e-4 and 2e-4;
        # the band below is the healthy one, [-0.05, 1.05].
        assert not stability_check(SimParams(tau=1e-4, dt=2.9e-4, allow_unstable=True))[0]
        probe = SimParams(nx=64, ny=64, tau=1e-4, delta=0.05, noise_amp=0.01, divisor_mode=mode)
        p = dataclasses.replace(probe, dt=0.99 * stability_check(probe)[2], total_steps=2000)
        st, rng = initialize(p), RngStream(0)
        lo, hi = 0.0, 1.0
        for _ in range(p.total_steps):
            st = step(st, p, rng)
            lo, hi = min(lo, st.phi.data.min()), max(hi, st.phi.data.max())
        assert -0.05 < lo and hi < 1.05

    def test_phase_bound_scales_with_peak_anisotropy(self):
        loose = stability_check(SimParams(delta=0.0))[2]
        tight = stability_check(SimParams(delta=0.5))[2]
        assert loose > tight


class TestSimParamsValidation:
    @pytest.mark.parametrize(
        "kwargs, name",
        [
            ({"nx": 2}, "nx/ny"),
            ({"ny": 1}, "nx/ny"),
            # a float64 pair halo past np.intp's bytes: numpy wraps the
            # 2**63 extent to 0 and raises on the size of 2**70
            ({"nx": 2**70}, "nx/ny"),
            ({"nx": 2**63}, "nx/ny"),
            ({"dx": 0.0}, "dx"),
            ({"dx": 1e-300}, "dx"),  # 3 dx^2 underflows, and the bounds divide by it
            ({"dx": 1e200}, "dx"),  # 3 dx^2 overflows: no diffusion, dt_max_thermal inf
            ({"dx": 1e154}, "dx"),  # dx^2 is finite, 3 dx^2 is not
            ({"dt": 0.0}, "dt"),
            ({"total_steps": -1}, "total_steps"),
            ({"seed_radius_sq": -1.0}, "seed_radius_sq"),
            ({"divisor_mode": "upwind"}, "divisor_mode"),
            ({"snapshot_every": 0}, "snapshot_every"),
            ({"diagnostics_every": 0}, "diagnostics_every"),
            ({"rng_seed": -1}, "rng_seed"),
        ],
    )
    def test_invalid_values_name_the_field(self, kwargs, name):
        with pytest.raises(ValueError, match=name):
            SimParams(**kwargs)

    @pytest.mark.parametrize(
        "kwargs",
        [{"j_mode": 4.0}, {"total_steps": 10.0}, {"replicate_appendix_bug": 1}, {"nx": 32.0},
         {"noise_amp": True}, {"latent_heat": False}, {"dx": "0.03"}],
    )
    def test_int_and_bool_fields_reject_other_types(self, kwargs):
        # such values would format as "4.0", "1" or "false", which parse_config
        # rejects, or reach initialize as a float grid extent or a str spacing
        [(name, value)] = kwargs.items()
        with pytest.raises(ValueError, match=rf"^{name} must be of type \w+, got {value!r}$"):
            SimParams(**kwargs)

    def test_seed_must_fit_grid(self):
        with pytest.raises(ValueError, match="seed_radius_sq"):
            SimParams(nx=16, ny=16, seed_radius_sq=64.0)

    def test_unstable_step_rejected_by_default(self):
        with pytest.raises(ValueError, match="stability"):
            SimParams(dt=5e-4)

    def test_unstable_step_allowed_with_override(self):
        assert SimParams(dt=5e-4, allow_unstable=True).dt == 5e-4

    def test_stable_step_accepted(self):
        assert SimParams(dt=1e-4).dt == 1e-4


class TestInitialize:
    def test_seed_cell_count_matches_enumeration(self):
        st = initialize(SimParams())
        count, max_axis = R.disk_cells(20.0)
        assert int(st.phi.data.sum()) == count
        assert np.count_nonzero(st.phi.data == 1.0) == count
        assert max_axis == 4

    def test_values_are_exactly_zero_or_one(self):
        st = initialize(small_params())
        assert set(np.unique(st.phi.data)) == {0.0, 1.0}

    def test_bath_temperature_is_exactly_zero(self):
        st = initialize(small_params())
        assert not st.temp.data.any()

    def test_zero_radius_gives_all_liquid(self):
        st = initialize(small_params(seed_radius_sq=0.0))
        assert not st.phi.data.any()

    def test_seed_centered_on_middle_cell(self):
        p = small_params(nx=33, ny=33, seed_radius_sq=2.0)
        st = initialize(p)
        assert st.phi.data[16, 16] == 1.0
        assert st.phi.data[17, 16] == 1.0 and st.phi.data[16, 17] == 1.0
        assert st.phi.data[17, 17] == 0.0

    def test_step_starts_at_zero(self):
        st = initialize(small_params())
        assert st.step == 0


def seeded_state(p, layout):
    """initialize(p), its seed at the grid centre ("centred"), moved across
    the row wrap ("row-edge") or the corner ("corner"), or in a far field
    holding -0.0 cells ("negative-zero")."""
    st = initialize(p)
    if layout == "centred":
        return st
    phi, temp = st.phi.data, st.temp.data
    if layout == "row-edge":
        phi = np.roll(phi, p.nx // 2, axis=0)
    elif layout == "corner":
        phi = np.roll(phi, (p.nx // 2, p.ny // 2), axis=(0, 1))
    elif layout == "negative-zero":
        far = np.logical_or.outer(np.arange(p.nx) % 5 == 0, np.arange(p.ny) % 7 == 0)
        phi = np.where(far & (phi == 0.0), -0.0, phi)
        temp = np.where(far, -0.0, temp)
    return SimState(phi=Field(phi, p.dx), temp=Field(temp, p.dx))


class TestStepAgainstOracle:
    @pytest.mark.parametrize("paper_div", [True, False])
    @pytest.mark.parametrize("bug", [False, True])
    @pytest.mark.parametrize("no_latent_heat", [False, True])
    def test_matches_longhand_update(self, paper_div, bug, no_latent_heat):
        rng = np.random.default_rng(42)
        nx = ny = 12
        dx, dt = 0.03, 1e-4
        phi0 = rng.random((nx, ny))
        t0 = rng.normal(0.0, 0.3, (nx, ny))
        chi = rng.random((nx, ny)) - 0.5
        p = SimParams(
            nx=nx, ny=ny, dx=dx, dt=dt, noise_amp=0.01,
            latent_heat=0.0 if no_latent_heat else SimParams.latent_heat,
            divisor_mode=PAPER_CODE if paper_div else CENTERED,
            replicate_appendix_bug=bug, total_steps=1,
        )

        expected_phi, expected_temp = R.reference_step(
            phi0, t0, p, dx, dt, paper_divisor=paper_div, replicate_bug=bug, chi=chi,
        )

        st = SimState(
            phi=Field(phi0.copy(), dx),
            temp=Field(t0.copy(), dx),
        )
        out = step(st, p, rng=FixedNoise(chi))

        scale = max(np.max(np.abs(expected_phi)), np.max(np.abs(expected_temp)))
        assert np.max(np.abs(out.phi.data - expected_phi)) <= 1e-13 * scale
        assert np.max(np.abs(out.temp.data - expected_temp)) <= 1e-13 * scale
        assert out.step == 1
        # no two states share a buffer
        assert not np.shares_memory(out.temp.data, st.temp.data)

    def test_noise_free_path_needs_no_rng(self):
        p = small_params()
        out = step(initialize(p), p)
        assert np.isfinite(out.phi.data).all()

    def test_noise_requires_a_stream(self):
        p = small_params(noise_amp=0.01)
        with pytest.raises(ValueError, match="RngStream"):
            step(initialize(p), p)

    @pytest.mark.parametrize("name", ["phi", "temp"])
    def test_state_spacing_must_match_params(self, name):
        # dt 1e-4 passes the stability gate on dx 0.03 but not on dx 0.005,
        # where stepping blows up at step 8
        p = small_params()
        st = initialize(p)
        st = dataclasses.replace(st, **{name: Field(getattr(st, name).data, 0.005)})
        with pytest.raises(ValueError, match=rf"state {name} has dx=0\.005.*dx=0\.03"):
            step(st, p)

    def test_phi_and_temp_shapes_must_agree(self):
        p = small_params()
        st = dataclasses.replace(initialize(p), temp=Field.zeros(16, 16, p.dx))
        with pytest.raises(ValueError, match=r"state temp has shape 16x16.*32x32"):
            step(st, p)

    def test_state_shape_must_match_params(self):
        p = small_params()
        st = initialize(small_params(nx=40, ny=40))
        with pytest.raises(ValueError, match=r"state phi has shape 40x40.*32x32"):
            step(st, p)

    def test_input_state_left_untouched(self):
        p = small_params()
        st = initialize(p)
        before = st.phi.data.copy()
        step(st, p)
        np.testing.assert_array_equal(st.phi.data, before)


class TestStepAgainstRollStep:
    @pytest.mark.parametrize("shape", [(12, 12), (9, 14), (3, 3)])
    @pytest.mark.parametrize("paper_div", [True, False])
    @pytest.mark.parametrize("bug", [False, True])
    @pytest.mark.parametrize("no_latent_heat", [False, True])
    def test_twenty_noisy_steps_bitwise(self, shape, paper_div, bug, no_latent_heat):
        rng = np.random.default_rng(43)
        dx, dt = 0.03, 1e-4
        phi = rng.random(shape)
        temp = rng.normal(0.0, 0.3, shape)
        p = SimParams(
            nx=shape[0], ny=shape[1], dx=dx, dt=dt, noise_amp=0.01, seed_radius_sq=0.0,
            latent_heat=0.0 if no_latent_heat else SimParams.latent_heat,
            divisor_mode=PAPER_CODE if paper_div else CENTERED,
            replicate_appendix_bug=bug, total_steps=20,
        )
        st = SimState(phi=Field(phi, dx), temp=Field(temp, dx))
        stream, twin_stream = RngStream(5), RngStream(5)
        for _ in range(p.total_steps):
            st = step(st, p, rng=stream)
            phi, temp = R.roll_step(
                phi, temp, p, dx, dt, paper_divisor=paper_div, replicate_bug=bug,
                chi=twin_stream.uniform_sym(shape),
            )
        np.testing.assert_array_equal(st.phi.data, phi)
        np.testing.assert_array_equal(st.temp.data, temp)

    @pytest.mark.parametrize("side", ["top", "bottom", "left", "right"])
    @pytest.mark.parametrize("along", ["first", "last"])
    @pytest.mark.parametrize("j_mode", [4, 6])
    @pytest.mark.parametrize("paper_div", [True, False])
    @pytest.mark.parametrize("theta0", [0.3, 1.0, 1.57])
    def test_negative_zeros_at_the_reach_boundary_bitwise(self, side, along, j_mode, paper_div,
                                                          theta0):
        # -0.0 at (r+1, box+REACH), on the window's last ring, and at
        # (r, box+REACH+1), just outside it in the halo, where the angle of
        # a zero gradient turns on the sign of a zero.  At theta0 = 1.57 eps
        # rounds alike at the angles 0 and pi; at 0.3 and 1.0 it does not.
        # The halo holds the grid's own cells, so REACH = 2 keeps the bits
        # (a window wrapped around itself needed 3).
        for delta in (0.01, 0.05):
            p = SimParams(nx=40, ny=47, j_mode=j_mode, delta=delta, theta0=theta0,
                          seed_radius_sq=4.0, divisor_mode=PAPER_CODE if paper_div else CENTERED)
            st = initialize(p)
            for _ in range(3):
                st = step(st, p)
            axis = 0 if side in ("top", "bottom") else 1
            span, across = st.box[1 - axis], st.box[axis]
            r = span.start if along == "first" else span.stop - 2
            if side in ("bottom", "right"):
                far = [across.stop - 1 + d for d in (REACH, REACH + 1)]
            else:
                far = [across.start - d for d in (REACH, REACH + 1)]
            cells = [(r + 1, far[0]), (r, far[1])]
            if axis == 0:
                cells = [(i, j) for j, i in cells]
            rows, cols = widen(st.box, (p.nx, p.ny))
            inside = [rows.start <= i < rows.stop and cols.start <= j < cols.stop for i, j in cells]
            assert inside == [True, False]
            for where in ("phi", "temp", "both"):
                phi, temp = st.phi.data.copy(), st.temp.data.copy()
                for name, a in (("phi", phi), ("temp", temp)):
                    if where in (name, "both"):
                        for cell in cells:
                            a[cell] = -0.0
                bad = SimState(phi=Field(phi, p.dx), temp=Field(temp, p.dx))
                assert bad.box == st.box
                out = step(bad, p)
                want_phi, want_temp = R.roll_step(phi, temp, p, p.dx, p.dt, paper_divisor=paper_div)
                assert out.phi.data.tobytes() == want_phi.tobytes()
                assert out.temp.data.tobytes() == want_temp.tobytes()

    @pytest.mark.parametrize("gap", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("side", ["top", "bottom", "left", "right"])
    @pytest.mark.parametrize("paper_div", [True, False])
    @pytest.mark.parametrize("bug", [False, True])
    def test_seed_a_few_cells_from_an_edge_bitwise(self, gap, side, paper_div, bug):
        # `gap` cells between the seed's box and an edge: at 1 the widened
        # box would leave the grid, so the window spans that axis; at 2 the
        # window ends on the edge and at 3 one cell short of it, so its halo
        # wraps round the edge on an axis the window does not span; at 4 the
        # halo ends on the edge, and at 5 one cell short of it
        p = SimParams(nx=40, ny=47, noise_amp=0.01, seed_radius_sq=4.0, total_steps=4,
                      divisor_mode=PAPER_CODE if paper_div else CENTERED,
                      replicate_appendix_bug=bug)
        st = initialize(p)
        axis = 0 if side in ("top", "bottom") else 1
        n, span = (p.nx, p.ny)[axis], st.box[axis]
        shift = gap - span.start if side in ("top", "left") else n - gap - span.stop
        phi = np.roll(st.phi.data, shift, axis=axis)
        st = SimState(phi=Field(phi, p.dx), temp=st.temp)
        assert st.box[axis].start == gap or n - st.box[axis].stop == gap
        spans = widen(st.box, (p.nx, p.ny))[axis] == slice(0, n)
        assert spans == (gap < REACH)
        temp = st.temp.data
        stream, twin_stream = RngStream(5), RngStream(5)
        for _ in range(p.total_steps):
            st = step(st, p, rng=stream)
            phi, temp = R.roll_step(
                phi, temp, p, p.dx, p.dt, paper_divisor=paper_div, replicate_bug=bug,
                chi=twin_stream.uniform_sym((p.nx, p.ny)),
            )
            assert st.phi.data.tobytes() == phi.tobytes()
            assert st.temp.data.tobytes() == temp.tobytes()

    @pytest.mark.parametrize("layout", ["centred", "row-edge", "corner", "negative-zero"])
    @pytest.mark.parametrize("j_mode", [4, 6])
    @pytest.mark.parametrize("paper_div", [True, False])
    @pytest.mark.parametrize("bug", [False, True])
    @pytest.mark.parametrize("no_latent_heat", [False, True])
    def test_seeded_window_steps_bitwise(self, layout, j_mode, paper_div, bug, no_latent_heat):
        # a small seed in a zero melt: step updates only the window around
        # it; with no latent heat T stays +0.0 and the window follows phi
        self.assert_seeded_steps_bitwise(layout, j_mode=j_mode, paper_div=paper_div, bug=bug,
                                         no_latent_heat=no_latent_heat)

    @pytest.mark.parametrize("j_mode", [4, 6])
    @pytest.mark.parametrize("paper_div", [True, False])
    @pytest.mark.parametrize("bug", [False, True])
    @pytest.mark.parametrize("theta0", [0.3, 1.0])
    def test_negative_zero_melt_bitwise_away_from_the_default_theta0(self, j_mode, paper_div,
                                                                     bug, theta0):
        # at theta0 = 1.57, j theta0 is near a multiple of pi, where eps of
        # the angles 0 and pi that zero gradients of either sign give round
        # alike; elsewhere they differ in the last bit
        self.assert_seeded_steps_bitwise("negative-zero", j_mode=j_mode, paper_div=paper_div,
                                         bug=bug, theta0=theta0)

    def assert_seeded_steps_bitwise(self, layout, *, j_mode, paper_div, bug,
                                    no_latent_heat=False, theta0=SimParams.theta0):
        nx, ny = 40, 47
        p = SimParams(
            nx=nx, ny=ny, noise_amp=0.01, j_mode=j_mode, seed_radius_sq=4.0, theta0=theta0,
            latent_heat=0.0 if no_latent_heat else SimParams.latent_heat,
            divisor_mode=PAPER_CODE if paper_div else CENTERED,
            replicate_appendix_bug=bug, total_steps=30,
        )
        st = seeded_state(p, layout)
        phi, temp = st.phi.data, st.temp.data
        stream, twin_stream = RngStream(5), RngStream(5)
        areas = []
        for _ in range(p.total_steps):
            rows, cols = widen(nonzero_box((st.phi.data, st.temp.data)), (p.nx, p.ny))
            areas.append((rows.stop - rows.start) * (cols.stop - cols.start))
            st = step(st, p, rng=stream)
            phi, temp = R.roll_step(
                phi, temp, p, p.dx, p.dt, paper_divisor=paper_div, replicate_bug=bug,
                chi=twin_stream.uniform_sym((nx, ny)),
            )
            assert st.phi.data.tobytes() == phi.tobytes()
            assert st.temp.data.tobytes() == temp.tobytes()
        if layout == "corner":
            assert areas[0] == nx * ny
        else:
            assert areas[0] < nx * ny / 2 and areas[-1] == nx * ny


class TestAppendixBugScalars:
    """replicate_appendix_bug takes its stale eps^2 gradient at the grid's
    last cell (nx-1, ny-1), as the whole-grid update does, whatever the
    window.  There a signed zero in phi sets the angle of a zero gradient
    (0 or pi), and so eps^2, in the last bit."""

    @pytest.mark.parametrize("j_mode, theta0", [(6, 0.3), (4, 0.7), (6, 0.7), (4, 1.2)])
    def test_negative_zero_beside_the_last_cell(self, j_mode, theta0):
        p = SimParams(nx=40, ny=47, j_mode=j_mode, theta0=theta0, delta=0.05,
                      seed_radius_sq=4.0, replicate_appendix_bug=True)
        st = initialize(p)
        phi = st.phi.data.copy()
        phi[1, 46] = -0.0
        out = step(SimState(phi=Field(phi, p.dx), temp=st.temp), p)
        want_phi, want_temp = R.roll_step(phi, st.temp.data, p, p.dx, p.dt, replicate_bug=True)
        assert out.phi.data.tobytes() == want_phi.tobytes()
        assert out.temp.data.tobytes() == want_temp.tobytes()

    @pytest.mark.parametrize("j_mode", [4, 6])
    @pytest.mark.parametrize("paper_div", [True, False])
    def test_random_signed_zeros_around_the_last_cell(self, j_mode, paper_div):
        rng = np.random.default_rng([j_mode, paper_div])
        nx, ny = 40, 47
        corner = np.ix_(np.arange(-3, 2) % nx, np.arange(-3, 2) % ny)
        for _ in range(70):
            p = SimParams(nx=nx, ny=ny, j_mode=j_mode, theta0=float(rng.uniform(0.0, 2 * math.pi)),
                          delta=0.05, seed_radius_sq=4.0,
                          divisor_mode=PAPER_CODE if paper_div else CENTERED,
                          replicate_appendix_bug=True)
            st = initialize(p)
            phi, temp = st.phi.data.copy(), st.temp.data.copy()
            for a in (phi, temp):
                a[corner] = np.where(rng.random((5, 5)) < 0.5, -0.0, 0.0)
            st = SimState(phi=Field(phi, p.dx), temp=Field(temp, p.dx))
            for _ in range(3):
                assert widen(st.box, (nx, ny)) != (slice(0, nx), slice(0, ny))
                st = step(st, p)
                phi, temp = R.roll_step(phi, temp, p, p.dx, p.dt, paper_divisor=paper_div,
                                        replicate_bug=True)
                assert st.phi.data.tobytes() == phi.tobytes()
                assert st.temp.data.tobytes() == temp.tobytes()


class TestMemory:
    def test_noisy_step_of_a_growing_crystal_peaks_below_three_grid_arrays(self):
        # 12 steps into a noisy 300x300 run: the window's work and noise
        # rows are small, and the two embedded result fields dominate
        n = 300
        p = SimParams(nx=n, ny=n, noise_amp=0.01, rng_seed=1)
        st, rng = initialize(p), RngStream(p.rng_seed)
        for _ in range(12):
            st = step(st, p, rng)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            step(st, p, rng)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak / (8 * n * n) < 3.0


def state_bytes(st):
    return st.step, st.phi.data.tobytes(), st.temp.data.tobytes()


class TestSpare:
    """run gives each step the grid of the state it has just dropped, and
    step writes into a spare only where that gives its spare-less bits."""

    @pytest.mark.parametrize("p", [
        # the bench's desk-noisy config: snapshots at both ends only
        SimParams(nx=300, ny=300, total_steps=25, noise_amp=0.01, rng_seed=1,
                  snapshot_every=25, diagnostics_every=25),
        small_params(noise_amp=0.01, total_steps=20, rng_seed=4, snapshot_every=1),
        small_params(noise_amp=0.01, total_steps=30, rng_seed=2, snapshot_every=7,
                     diagnostics_every=4),
    ], ids=["desk-noisy", "every-state-emitted", "off-cadence-final"])
    def test_run_hands_out_the_states_of_a_step_loop(self, p):
        seen = []
        final, _ = run(p, on_snapshot=seen.append)
        handed = seen + [final]
        st, rng = initialize(p), RngStream(p.rng_seed)
        loop = {0: state_bytes(st)}
        for _ in range(p.total_steps):
            st = step(st, p, rng)
            loop[st.step] = state_bytes(st)
        assert [state_bytes(s) for s in handed] == [loop[s.step] for s in handed]
        assert final.step == p.total_steps

    def test_blowup_run_leaves_the_last_good_state_intact(self):
        # blows up at step 10; states 0 and 7 are on the cadence, and the
        # last good state, 9, is emitted on the way out
        p = small_params(nx=16, ny=16, dt=1e-3, total_steps=40, snapshot_every=7,
                         allow_unstable=True)
        seen = []
        with pytest.raises(BlowupError, match="at step 10,"), \
                np.errstate(over="ignore", invalid="ignore"):
            run(p, on_snapshot=seen.append)
        assert [s.step for s in seen] == [0, 7, 9]
        st, loop = initialize(p), {}
        with np.errstate(over="ignore", invalid="ignore"):
            for _ in range(9):
                loop[st.step] = state_bytes(st)
                st = step(st, p)
        loop[st.step] = state_bytes(st)
        assert [state_bytes(s) for s in seen] == [loop[s.step] for s in seen]

    @staticmethod
    def grown(p, steps):
        st, rng = initialize(p), RngStream(p.rng_seed)
        for _ in range(steps):
            st = step(st, p, rng)
        return st, rng

    # the window of the stepped state is rows 14:35, columns 14:35
    @pytest.mark.parametrize("cells", [
        np.s_[8:20, 20:40],  # across its top rows and its right columns
        np.s_[18:30, 10:30],  # across its left columns
        np.s_[20:30, 20:30],  # inside it
        np.s_[40:48, 0:5],  # wholly outside it
        np.s_[0:48, 0:48],  # the whole grid
        None,  # all zero, so no box
    ], ids=["top-right", "left", "inside", "outside", "whole-grid", "no-box"])
    def test_hand_built_spare_gives_the_spare_less_bits(self, cells):
        p = small_params(nx=48, ny=48, noise_amp=0.01, rng_seed=6, seed_radius_sq=9.0)
        st, rng = self.grown(p, 6)
        assert widen(st.box, (p.nx, p.ny)) == (slice(14, 35), slice(14, 35))
        grid = np.zeros((2, p.nx, p.ny))
        if cells is not None:
            grid[(slice(None), *cells)] = np.random.default_rng(0).uniform(
                -1.0, 2.0, grid[(slice(None), *cells)].shape)
        spare = SimState(phi=Field(grid[0], p.dx), temp=Field(grid[1], p.dx), step=3)
        want = step(st, p, copy.deepcopy(rng))
        got = step(st, p, rng, spare=spare)
        assert state_bytes(got) == state_bytes(want)
        assert got.box == want.box == nonzero_box((got.phi.data, got.temp.data))
        assert got.phi.data.base is grid

    def test_spare_is_not_the_stepped_state_or_one_array(self):
        p = small_params(noise_amp=0.01, rng_seed=3)
        st, rng = self.grown(p, 3)
        grid = np.zeros((2, p.nx, p.ny))
        other = np.zeros((3, p.nx, p.ny))
        frozen = np.zeros((2, p.nx, p.ny))
        frozen.flags.writeable = False
        bad = {
            "itself": st,
            "same-grid": dataclasses.replace(st, step=0),
            "initial": initialize(p),
            "one-plane-twice": SimState(phi=Field(grid[0], p.dx), temp=Field(grid[0], p.dx)),
            "three-planes": SimState(phi=Field(other[0], p.dx), temp=Field(other[1], p.dx)),
            "read-only": SimState(phi=Field(frozen[0], p.dx), temp=Field(frozen[1], p.dx)),
            "wrong-shape": SimState(phi=Field(np.zeros((2, p.nx, p.ny + 1))[0], p.dx),
                                    temp=Field(np.zeros((2, p.nx, p.ny + 1))[1], p.dx)),
        }
        for spare in bad.values():
            with pytest.raises(ValueError, match="spare"):
                step(st, p, rng, spare=spare)
        # every refusal came before the noise draw
        want = step(st, p, self.grown(p, 3)[1])
        assert state_bytes(step(st, p, rng)) == state_bytes(want)

    def test_recycled_noisy_step_allocates_less_than_one_grid_array(self):
        # the 13th step of a noisy 300x300 run, as TestMemory's, into the
        # grid of the 11th state
        n = 300
        p = SimParams(nx=n, ny=n, noise_amp=0.01, rng_seed=1)
        rng = RngStream(p.rng_seed)
        spare, st = None, step(initialize(p), p, rng)  # state 0 is no spare
        for _ in range(11):
            spare, st = st, step(st, p, rng, spare=spare)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            step(st, p, rng, spare=spare)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak / (8 * n * n) < 1.0


class TestNoRolledCopies:
    def test_step_and_measure_never_call_np_roll(self, monkeypatch):
        def no_roll(*args, **kwargs):
            raise AssertionError("np.roll called")

        monkeypatch.setattr(np, "roll", no_roll)
        for mode in (PAPER_CODE, CENTERED):
            p = small_params(noise_amp=0.01, divisor_mode=mode)
            st = step(initialize(p), p, rng=RngStream(1))
            assert np.isfinite(measure(st, p).free_energy)

    @staticmethod
    def halo_copies(monkeypatch, mode, call):
        """The plane counts of the solver.halo calls that call(st, p) makes,
        on a small window and on the whole grid; np.pad is never called."""
        calls = []

        def counting(planes, window):
            calls.append(len(planes))
            return lattice.halo(planes, window)

        def no_pad(*args, **kwargs):
            raise AssertionError("np.pad called")

        monkeypatch.setattr(solver, "halo", counting)
        monkeypatch.setattr(np, "pad", no_pad)
        p = small_params(noise_amp=0.01, divisor_mode=mode)
        full = SimState(phi=Field(np.random.default_rng(2).random((32, 32)), p.dx),
                        temp=Field.zeros(32, 32, p.dx))
        copies = []
        for st in (initialize(p), full):
            calls.clear()
            call(st, p)
            copies.append(list(calls))
        return copies

    @pytest.mark.parametrize("mode", [PAPER_CODE, CENTERED])
    def test_a_step_makes_one_pair_halo_copy_and_no_pad(self, monkeypatch, mode):
        # one copy of phi and T together with 2 rings, on a small window and
        # on the whole grid alike
        copies = self.halo_copies(monkeypatch, mode, lambda st, p: step(st, p, RngStream(1)))
        assert copies == [[2], [2]]

    @pytest.mark.parametrize("mode", [PAPER_CODE, CENTERED])
    def test_a_standalone_measure_makes_one_pair_halo_copy_and_no_pad(self, monkeypatch,
                                                                       mode):
        # measure's own pass 1 is the step's, with the same one copy
        assert self.halo_copies(monkeypatch, mode, measure) == [[2], [2]]


class TestHeatModeDecay:
    """The PDE the stencil solves: with phi = 0 and T = A cos(2 pi x / L),
    phi stays exactly 0 and T decays as exp(-(4/3) k^2 t), k = 2 pi / L, not
    exp(-k^2 t), because the nine-point stencil is (4/3) of the Laplacian."""

    @staticmethod
    def decay_rate(n, t_end=1.0 / 64):
        # L = 1 on n cells, dt = dx^2 / 4; tau = 1 keeps the phase bound
        # out of the way, and phi = 0 makes the phase equation inert
        dx = 1.0 / n
        p = SimParams(nx=n, ny=3, dx=dx, dt=0.25 * dx * dx, tau=1.0, seed_radius_sq=0.0,
                      divisor_mode=PAPER_CODE)
        mode = np.cos(2.0 * np.pi * np.arange(n) / n)
        st = SimState(phi=Field.zeros(n, 3, dx), temp=Field(0.1 * np.outer(mode, np.ones(3)), dx))
        steps = round(t_end / p.dt)
        for _ in range(steps):
            st = step(st, p)
            assert not st.phi.data.any()
        amplitude = 2.0 / n * float(st.temp.data[:, 0] @ mode)
        return -math.log(amplitude / 0.1) / (steps * p.dt)

    def test_rate_converges_to_four_thirds_k_squared(self):
        k2 = (2.0 * np.pi) ** 2
        rates = [self.decay_rate(n) for n in (16, 32, 64)]
        errors = [r - 4.0 / 3.0 * k2 for r in rates]
        # second order: each halving of dx (and quartering of dt) cuts the
        # error by 4 (measured 4.07 and 4.02) ...
        for coarse, fine in zip(errors, errors[1:]):
            assert 3.5 < coarse / fine < 4.5
        # ... so the finest rate is within its last change of the limit,
        # and k^2 is far outside that
        tol = abs(rates[1] - rates[2])
        assert abs(errors[2]) < tol
        assert abs(rates[2] - k2) > 50 * tol


class TestPlanarFront:
    """The PDE the stencil solves, on the phase equation: with delta = 0, no
    latent heat (so T stays 0) and no noise, a planar front moves at
    c = sqrt(2) eps_bar m / tau with m = m(0) in the continuum, and at
    sqrt(4/3) c on the nine-point stencil, which is (4/3) of the Laplacian.
    At delta = 0 both divisor modes give the same speeds, so paper_code
    stands for both."""

    @staticmethod
    def front_speed(nx):
        # a slab |x - 3| < 0.6 on L = 6, so its fronts stay apart to t = 0.04
        dx = 6.0 / nx
        p = SimParams(nx=nx, ny=4, dx=dx, dt=1e-4 * (200 / nx) ** 2, delta=0.0,
                      latent_heat=0.0, seed_radius_sq=0.0, divisor_mode=PAPER_CODE)
        slab = np.where(np.abs(np.arange(nx) * dx - 3.0) < 0.6, 1.0, 0.0)
        st = SimState(phi=Field(np.outer(slab, np.ones(4)), dx), temp=Field.zeros(nx, 4, dx))
        first, last = round(0.01 / p.dt), round(0.04 / p.dt)
        times, fronts = [], []
        for k in range(1, last + 1):
            st = step(st, p)
            if k >= first:
                # the right front's 0.5 crossing, linear between two cells
                row = st.phi.data[:, 0]
                i = nx // 2 + int(np.flatnonzero(row[nx // 2:] >= 0.5)[-1])
                times.append(k * p.dt)
                fronts.append((i + (row[i] - 0.5) / (row[i] - row[i + 1])) * dx)
        assert not st.temp.data.any()
        return float(np.polyfit(times, fronts, 1)[0])

    def test_speed_converges_to_root_four_thirds_c(self):
        p = SimParams()
        c = math.sqrt(2.0) * p.eps_bar * float(m_of_temperature(0.0, p)) / p.tau
        limit = math.sqrt(4.0 / 3.0) * c
        speeds = [self.front_speed(nx) for nx in (200, 400, 800)]
        errors = [limit - v for v in speeds]
        # second order: each halving of dx (and quartering of dt) cuts the
        # error by 4 (measured 3.91 and 4.01; first order would give 2) ...
        for coarse, fine in zip(errors, errors[1:]):
            assert 3.5 < coarse / fine < 4.5
        # ... so the Richardson value removes the dx^2 term.  Its correction
        # to the finest speed, 0.107 of 22.83, is that speed's error; the
        # Richardson value, 22.941, lies 0.003 corrections from sqrt(4/3) c
        # (asserted under 0.1) and 28.8 from c, 3.07 away (asserted over 10)
        correction = (speeds[2] - speeds[1]) / 3.0
        richardson = speeds[2] + correction
        assert abs(richardson - limit) < 0.1 * correction
        assert abs(richardson - c) > 10.0 * correction


def phase_operator(n, mode, phi_of, **kwargs):
    """The phase operator step applies to phi = phi_of(X, Y) on an n x n grid
    of side 3 centred on 0: one step of 1e-9 at T = t_eq (so m = 0) with no
    latent heat or noise, where (phi' - phi) tau / dt less the reaction is
    the operator.  Returns (p, X, Y, operator)."""
    dx = 3.0 / n
    p = SimParams(nx=n, ny=n, dx=dx, dt=1e-9, delta=0.05, theta0=0.3, latent_heat=0.0,
                  seed_radius_sq=0.0, divisor_mode=mode, **kwargs)
    x = (np.arange(n) + 0.5) * dx - 1.5
    X, Y = np.meshgrid(x, x, indexing="ij")
    phi = phi_of(X, Y)
    st = SimState(phi=Field(phi, dx), temp=Field(np.full((n, n), p.t_eq), dx))
    op = (step(st, p).phi.data - phi) * (p.tau / p.dt) - reaction_term(phi, 0.0)
    return p, X, Y, op


def front(s, R, w):
    """The profile g(s) = (1 - tanh((s - R) / w)) / 2 and its first two
    derivatives."""
    t = np.tanh((s - R) / w)
    return 0.5 * (1.0 - t), -(1.0 - t * t) / (2.0 * w), (1.0 - t * t) * t / (w * w)


def eps_and_derivatives(theta, p):
    """eps, eps' and eps'' of the continuum anisotropy at the angle theta."""
    u = p.j_mode * (theta - p.theta0)
    return (p.eps_bar * (1.0 + p.delta * np.cos(u)),
            -p.eps_bar * p.delta * p.j_mode * np.sin(u),
            -p.eps_bar * p.delta * p.j_mode ** 2 * np.cos(u))


class TestManufacturedPhaseOperator:
    """The PDE the stencil solves, on the anisotropic phase operator: for a
    radial profile phi = g(r) = (1 - tanh((r - R) / w)) / 2, the operator
    is a L + b F with L = eps^2 (g'' + g'/r) from eps^2 lap(phi) and
    F = (eps'^2 + eps eps'') g'/r from the flux terms; grad(eps^2) is
    tangential, so grad(eps^2) . grad(phi) = 0.  In the continuum a = b = 1.
    The nine-point Laplacian gives a = 4/3 in both modes; paper_code's flux
    terms are each a difference of doubled differences over dx, so b = 4,
    and centered's give b = 1."""

    @staticmethod
    def fit(n, mode, limit_b):
        # (a, b) is the least-squares fit of the operator on the band
        # |r - R| < 1.5 w, and err its largest distance from the limit, over
        # the largest |L|
        R, w = 0.8, 0.06
        p, X, Y, op = phase_operator(n, mode, lambda X, Y: front(np.hypot(X, Y), R, w)[0])
        r = np.hypot(X, Y)
        band = np.abs(r - R) < 1.5 * w
        r, op = r[band], op[band]
        _, g1, g2 = front(r, R, w)
        # theta, the angle of grad(phi), points inward: the polar angle + pi
        eps, eps1, eps2 = eps_and_derivatives(np.arctan2(Y[band], X[band]) + np.pi, p)
        L = eps * eps * (g2 + g1 / r)
        F = (eps1 * eps1 + eps * eps2) * g1 / r
        (a, b), *_ = np.linalg.lstsq(np.stack([L, F], axis=1), op, rcond=None)
        err = np.max(np.abs(op - (4.0 / 3.0 * L + limit_b * F))) / np.max(np.abs(L))
        return float(a), float(b), float(err)

    @pytest.mark.parametrize("mode, limit_b", [(PAPER_CODE, 4.0), (CENTERED, 1.0)])
    def test_weights_converge_to_four_thirds_and_the_flux_factor(self, mode, limit_b):
        fits = [self.fit(n, mode, limit_b) for n in (100, 200, 400, 800)]
        a, b, err = (np.array(v) for v in zip(*fits))
        # second order: each halving of dx cuts the distance of a, of b and
        # of the operator from their limits by 4 (measured 3.60 to 3.99 in
        # both modes; first order would give 2) ...
        for dist in (np.abs(a - 4.0 / 3.0), np.abs(b - limit_b), err):
            ratios = dist[:-1] / dist[1:]
            assert np.all((3.3 < ratios) & (ratios < 4.5)), ratios
        # ... so the finest fit is within its last change of the limit (n = 800
        # reads a = 1.3316 and 1.3318, b = 3.9965 and 0.9992), while the
        # continuum weight 1 is far from a, and under paper_code from b
        tol_a, tol_b = abs(a[3] - a[2]), abs(b[3] - b[2])
        assert abs(a[3] - 4.0 / 3.0) < tol_a and abs(b[3] - limit_b) < tol_b
        assert abs(a[3] - 1.0) > 50 * tol_a
        if mode == PAPER_CODE:
            assert abs(b[3] - 1.0) > 50 * tol_b


class TestManufacturedEllipseOperator:
    """The non-radial part of the phase operator: for an elliptical profile
    phi = g(rho), g as in TestManufacturedPhaseOperator and
    rho = sqrt((x / alpha)^2 + y^2), grad(eps^2) is no longer tangential.
    With theta the angle of grad(phi), so that grad(theta) =
    (phi_x grad(phi_y) - phi_y grad(phi_x)) / |grad(phi)|^2, the continuum
    operator is a L + b F + c G with L = eps^2 lap(phi),
    F = (eps'^2 + eps eps'') (theta_y phi_x - theta_x phi_y) and
    G = 2 eps eps' (theta_x phi_x + theta_y phi_y) = grad(eps^2) . grad(phi),
    and a = b = c = 1.  term3 is the product of two gradients, each doubled
    under paper_code, so c = 4 there and 1 under centered."""

    @staticmethod
    def fit(n, mode, limits, **kwargs):
        # (a, b, c) is the least-squares fit of the operator on the band
        # |rho - R| < 1.5 w, and err its largest distance from the limit,
        # over the largest |L|
        R, w, alpha = 0.5, 0.06, 2.0
        p, X, Y, op = phase_operator(
            n, mode, lambda X, Y: front(np.hypot(X / alpha, Y), R, w)[0], **kwargs)
        rho = np.hypot(X / alpha, Y)
        band = np.abs(rho - R) < 1.5 * w
        x, y, rho, op = X[band], Y[band], rho[band], op[band]
        _, g1, g2 = front(rho, R, w)
        a2, rho3 = alpha * alpha, rho ** 3
        rx, ry = x / (a2 * rho), y / rho
        px, py = g1 * rx, g1 * ry
        pxx = g2 * rx * rx + g1 * y * y / (a2 * rho3)
        pyy = g2 * ry * ry + g1 * x * x / (a2 * rho3)
        pxy = g2 * rx * ry - g1 * x * y / (a2 * rho3)
        grad2 = px * px + py * py
        tx, ty = (px * pxy - py * pxx) / grad2, (px * pyy - py * pxy) / grad2
        eps, eps1, eps2 = eps_and_derivatives(np.arctan2(py, px), p)
        L = eps * eps * (pxx + pyy)
        F = (eps1 * eps1 + eps * eps2) * (ty * px - tx * py)
        G = 2.0 * eps * eps1 * (tx * px + ty * py)
        terms = np.stack([L, F, G], axis=1)
        weights, *_ = np.linalg.lstsq(terms, op, rcond=None)
        err = np.max(np.abs(op - terms @ np.array(limits))) / np.max(np.abs(L))
        return weights, float(err)

    @pytest.mark.parametrize("mode, limit_c", [(PAPER_CODE, 4.0), (CENTERED, 1.0)])
    def test_term3_weight_converges_to_the_gradient_factor(self, mode, limit_c):
        limits = np.array([4.0 / 3.0, limit_c, limit_c])
        fits = [self.fit(n, mode, limits) for n in (100, 200, 400, 800)]
        weights = np.array([f[0] for f in fits])
        err = np.array([f[1] for f in fits])
        # second order: each halving of dx cuts the distance of a, b, c and
        # of the operator from their limits by 4 (measured 3.57 to 3.99 in
        # both modes; first order would give 2) ...
        for dist in (*np.abs(weights - limits).T, err):
            ratios = dist[:-1] / dist[1:]
            assert np.all((3.3 < ratios) & (ratios < 4.5)), ratios
        # ... so the finest c is within its last change of the limit (n = 800
        # reads c = 3.9984 and 0.9998), while the continuum weight 1 is far
        # from c under paper_code
        c, tol_c = weights[3, 2], abs(weights[3, 2] - weights[2, 2])
        assert abs(c - limit_c) < tol_c
        if mode == PAPER_CODE:
            assert abs(c - 1.0) > 50 * tol_c

    @pytest.mark.parametrize("mode, limit_c", [(PAPER_CODE, 4.0), (CENTERED, 1.0)])
    def test_appendix_bug_changes_term3(self, mode, limit_c):
        # the stale eps^2 gradient of the grid's last cell takes the place of
        # term3: at n = 200 its fitted c lies 164 (paper_code) and 386
        # (centered) times further from the limit than the mode's own
        limits = [4.0 / 3.0, limit_c, limit_c]
        c = self.fit(200, mode, limits)[0][2]
        c_bug = self.fit(200, mode, limits, replicate_appendix_bug=True)[0][2]
        assert abs(c_bug - limit_c) > 50 * abs(c - limit_c)


class TestTimeStepConvergence:
    """The whole coupled step, latent heat included, is a consistent
    first-order integrator in time: 64x64 noise-free runs to t = 0.01 at
    dt = 1e-4 / 2^k, k = 0..4, differ from the run at dt / 2 by a largest
    (phi, T) difference that halves with each halving of dt."""

    @staticmethod
    def final_fields(dt, **kwargs):
        p = SimParams(nx=64, ny=64, dt=dt, **kwargs)
        st = initialize(p)
        for _ in range(round(0.01 / dt)):
            st = step(st, p)
        return np.stack([st.phi.data, st.temp.data])

    @pytest.mark.parametrize("kwargs", [
        dict(divisor_mode=PAPER_CODE),
        dict(divisor_mode=CENTERED),
        dict(divisor_mode=PAPER_CODE, replicate_appendix_bug=True),
    ], ids=["paper_code", "centered", "paper_code-bug"])
    def test_error_halves_with_dt(self, kwargs):
        runs = [self.final_fields(1e-4 / 2**k, **kwargs) for k in range(5)]
        diffs = np.array([np.max(np.abs(a - b)) for a, b in zip(runs, runs[1:])])
        # measured 1.948, 1.975, 1.988 (paper_code), 1.986, 1.995, 1.998
        # (centered) and 2.171, 2.072, 2.079 (with the appendix bug)
        ratios = diffs[:-1] / diffs[1:]
        assert np.all((1.9 <= ratios) & (ratios <= 2.25)), ratios


class TestNoGridScan:
    def test_small_window_step_and_sample_scan_only_the_window(self, monkeypatch):
        # 12 steps into a noisy 300x300 run: the step scans its window-sized
        # result for the next box, and the sample scans nothing
        n = 300
        p = SimParams(nx=n, ny=n, noise_amp=0.01, rng_seed=1)
        st, rng = initialize(p), RngStream(p.rng_seed)
        for _ in range(12):
            st = step(st, p, rng)
        shapes = []

        def recording(planes):
            shapes.append(np.shape(planes))
            return nonzero_box(planes)

        monkeypatch.setattr(solver, "nonzero_box", recording)
        monkeypatch.setattr(lattice, "nonzero_box", recording)
        rows, cols = widen(st.box, (n, n))
        window = (rows.stop - rows.start, cols.stop - cols.start)
        assert window[0] * window[1] < n * n / 10
        out = step(st, p, rng)
        assert shapes == [(2, *window)]
        shapes.clear()
        measure(out, p)
        assert shapes == []

    def test_a_run_scans_the_whole_grid_once(self, monkeypatch):
        # the desk-noisy bench config: the seed state scans its fields for
        # the step-0 sample, and every step then scans only its window
        n, seed = 300, 1
        p = SimParams(nx=n, ny=n, total_steps=25, noise_amp=0.01, rng_seed=seed,
                      snapshot_every=25, diagnostics_every=25)
        st, rng = initialize(p), RngStream(seed)
        windows = []
        for _ in range(p.total_steps):
            rows, cols = widen(st.box, (n, n))
            windows.append((2, rows.stop - rows.start, cols.stop - cols.start))
            st = step(st, p, rng)
        assert max(w[1] * w[2] for w in windows) < n * n / 10
        shapes = []

        def recording(planes):
            shapes.append(np.shape(planes))
            return nonzero_box(planes)

        monkeypatch.setattr(solver, "nonzero_box", recording)
        monkeypatch.setattr(lattice, "nonzero_box", recording)
        final, records = run(p)
        assert [r.step for r in records] == [0, 25]
        assert shapes == [(2, n, n)] + windows
        assert final.box == st.box


class TestCarriedBox:
    """The box a state carries is the box of its nonzero cells, and the
    step's window is that box widened by REACH."""

    def assert_boxes_carried(self, st, p, rng):
        for _ in range(p.total_steps):
            assert st.box == R.naive_nonzero_box(st.phi.data, st.temp.data)
            assert widen(st.box, (p.nx, p.ny)) == R.naive_window(
                st.phi.data, st.temp.data, REACH)
            st = step(st, p, rng)
        assert st.box == R.naive_nonzero_box(st.phi.data, st.temp.data)
        return st

    @pytest.mark.parametrize("layout", ["centred", "row-edge", "corner", "negative-zero"])
    @pytest.mark.parametrize("variant", ["noisy", "appendix-bug", "centered", "no-latent-heat"])
    def test_every_step_of_a_seeded_run(self, layout, variant):
        p = SimParams(
            nx=40, ny=47, noise_amp=0.01, seed_radius_sq=4.0, total_steps=30,
            replicate_appendix_bug=variant == "appendix-bug",
            divisor_mode=CENTERED if variant == "centered" else PAPER_CODE,
            latent_heat=0.0 if variant == "no-latent-heat" else SimParams.latent_heat,
        )
        st = self.assert_boxes_carried(seeded_state(p, layout), p, RngStream(5))
        # the runs reach the whole-grid window and a box spanning the grid
        assert st.box == (slice(0, p.nx), slice(0, p.ny))

    def test_three_by_three_grid(self):
        rng = np.random.default_rng(44)
        p = SimParams(nx=3, ny=3, noise_amp=0.01, seed_radius_sq=0.0, total_steps=10)
        st = SimState(phi=Field(rng.random((3, 3)), p.dx),
                      temp=Field(rng.normal(0.0, 0.3, (3, 3)), p.dx))
        self.assert_boxes_carried(st, p, RngStream(5))

    def test_all_zero_start(self):
        p = small_params(noise_amp=0.01, seed_radius_sq=0.0)
        st = self.assert_boxes_carried(initialize(p), p, RngStream(5))
        assert st.box is None

    def test_fields_cannot_be_assigned(self):
        st = initialize(small_params())
        for name in ("phi", "temp", "step", "box"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(st, name, getattr(st, name))

    def test_state_arrays_are_read_only(self):
        # a write into a state's array would leave its carried box stale
        p = SimParams(nx=40, ny=47)
        st = initialize(p)
        with pytest.raises(ValueError, match="assignment destination is read-only"):
            st.temp.data[37, 3] = np.nan
        with pytest.raises(dataclasses.FrozenInstanceError):
            st.phi.data = np.zeros((p.nx, p.ny))
        out = step(st, p)
        assert not (out.phi.data.flags.writeable or out.temp.data.flags.writeable)
        own = np.zeros((p.nx, p.ny))
        SimState(phi=Field(own, p.dx), temp=Field(own, p.dx))
        assert not own.flags.writeable

    def test_nan_put_outside_the_box_by_replace_is_seen(self):
        p = small_params(nx=40, ny=47)
        st = initialize(p)
        for _ in range(4):
            st = step(st, p)
        cell = (37, 3)
        rows, cols = widen(st.box, (p.nx, p.ny))
        assert not (rows.start <= cell[0] < rows.stop and cols.start <= cell[1] < cols.stop)
        temp = st.temp.data.copy()
        temp[cell] = np.nan
        bad = dataclasses.replace(st, temp=Field(temp, p.dx))
        # m(NaN) makes the reaction term NaN at that cell, and at no other
        with pytest.raises(BlowupError) as exc_info:
            step(bad, p)
        assert (exc_info.value.field_name, exc_info.value.cell) == ("phi", cell)
        rec = measure(bad, p)
        assert np.isnan(rec.conservation_sum) and np.isnan(rec.free_energy)


class TestFixedPoints:
    @pytest.mark.parametrize("phi_value, temp_value", [(0.0, 0.0), (1.0, 0.3), (1.0, -2.7), (0.0, 0.9)])
    def test_uniform_states_are_bitwise_invariant(self, phi_value, temp_value):
        p = small_params(nx=16, ny=16)
        st = uniform_state(16, 16, p.dx, phi_value, temp_value)
        for _ in range(5):
            st = step(st, p)
        assert (st.phi.data == phi_value).all()
        assert (st.temp.data == temp_value).all()


class TestConservation:
    def test_single_step_preserves_enthalpy_sum(self):
        p = SimParams(nx=128, ny=128)
        st = initialize(p)
        k = p.latent_heat
        before = lattice_sum(st.temp) - k * lattice_sum(st.phi)
        after_state = step(st, p)
        after = lattice_sum(after_state.temp) - k * lattice_sum(after_state.phi)
        assert after == pytest.approx(before, rel=1e-12, abs=1e-12)


class TestTranslationEquivariance:
    def test_shifted_seed_shifts_the_whole_evolution_bitwise(self):
        p = small_params(nx=48, ny=48, seed_radius_sq=12.0)
        shift = (5, -9)
        base = initialize(p)
        moved = SimState(
            phi=Field(np.roll(base.phi.data, shift, axis=(0, 1)), p.dx),
            temp=Field(np.roll(base.temp.data, shift, axis=(0, 1)), p.dx),
        )
        for _ in range(10):
            base = step(base, p)
            moved = step(moved, p)
        np.testing.assert_array_equal(moved.phi.data, np.roll(base.phi.data, shift, axis=(0, 1)))
        np.testing.assert_array_equal(moved.temp.data, np.roll(base.temp.data, shift, axis=(0, 1)))


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
class TestBlowup:
    def test_detection_reports_step_and_cell(self):
        p = small_params(nx=16, ny=16, dt=1.0, total_steps=400, allow_unstable=True)
        st = initialize(p)
        with pytest.raises(BlowupError) as exc_info:
            for _ in range(p.total_steps):
                st = step(st, p)
        err = exc_info.value
        assert err.step > 0
        assert err.field_name in ("phi", "temp")
        assert isinstance(err.cell, tuple) and len(err.cell) == 2
        assert "non-finite" in str(err)

    def test_window_blowup_reports_whole_grid_cell(self):
        p = small_params(nx=48, ny=48, dt=1.0, seed_radius_sq=4.0, allow_unstable=True)
        st = initialize(p)
        phi, temp = st.phi.data, st.temp.data
        with pytest.raises(BlowupError) as exc_info:
            for _ in range(50):
                rows, cols = widen(nonzero_box((st.phi.data, st.temp.data)), (p.nx, p.ny))
                st = step(st, p)
                phi, temp = R.roll_step(phi, temp, p, p.dx, p.dt)
        err = exc_info.value
        phi, temp = R.roll_step(phi, temp, p, p.dx, p.dt)
        name, bad = ("phi", phi) if not np.isfinite(phi).all() else ("temp", temp)
        assert (err.step, err.field_name) == (st.step + 1, name)
        assert err.cell == tuple(int(k) for k in np.argwhere(~np.isfinite(bad))[0])
        assert (rows.stop - rows.start) * (cols.stop - cols.start) < p.nx * p.ny

    @pytest.mark.parametrize("rows", ["band", "spanned"])
    @pytest.mark.parametrize("col", [0, -1])
    def test_nan_in_temp_on_the_window_edge_reports_that_cell(self, rows, col):
        # a NaN in T alone at the window's first or last column: the window
        # spans the columns, so the halo wraps it into a column between two
        # rows of the flat layout, which must be neither checked nor reported
        p = small_params(nx=20, ny=24, seed_radius_sq=4.0 if rows == "band" else 80.0)
        st = initialize(p)
        temp = st.temp.data.copy()
        temp[10, col] = np.nan
        st = SimState(phi=st.phi, temp=Field(temp, p.dx))
        window = widen(st.box, (p.nx, p.ny))
        assert window[1] == slice(0, p.ny)
        assert (window[0] == slice(0, p.nx)) == (rows == "spanned")
        with pytest.raises(BlowupError) as exc_info:
            step(st, p)
        phi, temp = R.roll_step(st.phi.data, st.temp.data, p, p.dx, p.dt)
        name, bad = ("phi", phi) if not np.isfinite(phi).all() else ("temp", temp)
        err = exc_info.value
        assert (err.step, err.field_name) == (1, name)
        assert err.cell == tuple(int(k) for k in np.argwhere(~np.isfinite(bad))[0])
        assert err.cell == (10, col % p.ny)

    def test_run_emits_last_good_state_before_failing(self):
        p = small_params(nx=16, ny=16, dt=1.0, total_steps=400,
                         allow_unstable=True, snapshot_every=1000)
        seen = []
        with pytest.raises(BlowupError) as exc_info:
            run(p, on_snapshot=seen.append)
        final = seen[-1]
        assert final.step == exc_info.value.step - 1
        assert np.isfinite(final.phi.data).all()
        assert np.isfinite(final.temp.data).all()


class TestNoWarnings:
    @pytest.mark.parametrize("variant", ["noisy", "appendix-bug-centered"])
    def test_healthy_steps_raise_no_runtime_warning(self, variant):
        # the positions between the window's rows hold values of no cell;
        # they must stay finite too, from the seed to the whole-grid window
        p = SimParams(nx=40, ny=47, noise_amp=0.01, seed_radius_sq=4.0, j_mode=6,
                      replicate_appendix_bug=variant != "noisy",
                      divisor_mode=PAPER_CODE if variant == "noisy" else CENTERED)
        st, rng = initialize(p), RngStream(5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for _ in range(40):
                st = step(st, p, rng)
            measure(st, p)
        assert st.box == (slice(0, p.nx), slice(0, p.ny))


class TestRunLifecycle:
    def test_zero_steps_returns_initial_state(self):
        p = small_params(total_steps=0)
        snaps, recs = [], []
        state, records = run(p, on_snapshot=snaps.append, on_diagnostics=recs.append)
        assert state.step == 0
        assert [s.step for s in snaps] == [0]
        assert [r.step for r in recs] == [0]
        assert records == recs
        np.testing.assert_array_equal(state.phi.data, initialize(p).phi.data)

    def test_emission_cadence_includes_final_step(self):
        p = small_params(total_steps=7, snapshot_every=3, diagnostics_every=2)
        snaps, recs = [], []
        run(p, on_snapshot=snaps.append, on_diagnostics=recs.append)
        assert [s.step for s in snaps] == [0, 3, 6, 7]
        assert [r.step for r in recs] == [0, 2, 4, 6, 7]

    def test_no_duplicate_emission_when_final_step_lands_on_cadence(self):
        p = small_params(total_steps=6, snapshot_every=3, diagnostics_every=3)
        snaps, recs = [], []
        run(p, on_snapshot=snaps.append, on_diagnostics=recs.append)
        assert [s.step for s in snaps] == [0, 3, 6]
        assert [r.step for r in recs] == [0, 3, 6]

    def test_record_time_is_step_times_dt(self):
        p = small_params(total_steps=7, diagnostics_every=2, dt=7e-5)
        _, records = run(p)
        assert [r.step for r in records] == [0, 2, 4, 6, 7]
        assert [r.time for r in records] == [r.step * p.dt for r in records]

    def test_blowup_emits_each_state_once(self):
        # blows up at step 10; the last good state, 9, is on the cadence
        p = small_params(nx=16, ny=16, dt=1e-3, total_steps=40, snapshot_every=1,
                         allow_unstable=True)
        snaps = []
        with pytest.raises(BlowupError, match="at step 10,"), \
                np.errstate(over="ignore", invalid="ignore"):
            run(p, on_snapshot=snaps.append)
        assert [s.step for s in snaps] == list(range(10))

    def test_states_hold_no_negative_zero(self):
        # so a zero gradient always has the angle 0 (physics.epsilon_of_theta)
        p = small_params(noise_amp=0.01, total_steps=40, snapshot_every=1)
        snaps = []
        run(p, on_snapshot=snaps.append)
        assert len(snaps) == 41
        for st in snaps:
            for a in (st.phi.data, st.temp.data):
                assert not np.signbit(a[a == 0.0]).any()

    def test_two_runs_are_bitwise_identical(self):
        p = small_params(noise_amp=0.01, total_steps=30)
        a, _ = run(p)
        b, _ = run(p)
        assert a.phi.data.tobytes() == b.phi.data.tobytes()
        assert a.temp.data.tobytes() == b.temp.data.tobytes()

    def test_different_seeds_diverge_with_noise(self):
        pa = small_params(noise_amp=0.01, total_steps=30, rng_seed=1)
        pb = small_params(noise_amp=0.01, total_steps=30, rng_seed=2)
        a, _ = run(pa)
        b, _ = run(pb)
        assert (a.phi.data != b.phi.data).any()
