"""Time integration: stability bounds, initialization, the update step, run."""

import math

import numpy as np
import pytest

import reference as R
from dendrosim.diagnostics import free_energy
from dendrosim.lattice import CENTERED, PAPER_CODE, Field, lattice_sum, support_window
from dendrosim.physics import ModelParams, RngStream, m_of_temperature
from dendrosim.solver import (
    BlowupError,
    SimParams,
    SimState,
    WINDOW_REACH,
    initialize,
    run,
    stability_check,
    step,
)


class FixedNoise:
    """Stands in for RngStream when a test wants a hand-chosen noise field."""

    def __init__(self, chi):
        self.chi = chi

    def uniform_sym(self, shape):
        assert shape == self.chi.shape
        return self.chi


def small_params(**kwargs):
    defaults = dict(nx=32, ny=32, total_steps=10)
    defaults.update(kwargs)
    return SimParams(**defaults)


def uniform_state(nx, ny, dx, phi_value, temp_value):
    return SimState(
        phi=Field(np.full((nx, ny), float(phi_value)), dx),
        temp=Field(np.full((nx, ny), float(temp_value)), dx),
        step=0,
        time=0.0,
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

    def test_zero_interface_width_removes_phase_bound(self):
        p = SimParams(model=ModelParams(eps_bar=0.0))
        ok, dt_thermal, dt_phase = stability_check(p)
        assert ok
        assert math.isinf(dt_phase)

    def test_phase_bound_scales_with_peak_anisotropy(self):
        loose = stability_check(SimParams(model=ModelParams(delta=0.0)))[2]
        tight = stability_check(SimParams(model=ModelParams(delta=0.5)))[2]
        assert loose > tight


class TestSimParamsValidation:
    @pytest.mark.parametrize(
        "kwargs, name",
        [
            ({"nx": 2}, "nx/ny"),
            ({"ny": 1}, "nx/ny"),
            ({"dx": 0.0}, "dx"),
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

    def test_step_and_time_start_at_zero(self):
        st = initialize(small_params())
        assert (st.step, st.time) == (0, 0.0)


class TestStepAgainstOracle:
    @pytest.mark.parametrize("paper_div", [True, False])
    @pytest.mark.parametrize("bug", [False, True])
    @pytest.mark.parametrize("frozen", [False, True])
    def test_matches_longhand_update(self, paper_div, bug, frozen):
        rng = np.random.default_rng(42)
        nx = ny = 12
        dx, dt = 0.03, 1e-4
        phi0 = rng.random((nx, ny))
        t0 = rng.normal(0.0, 0.3, (nx, ny))
        chi = rng.random((nx, ny)) - 0.5
        mp = ModelParams(noise_amp=0.01)

        expected_phi, expected_temp = R.reference_step(
            phi0, t0, mp, dx, dt, paper_divisor=paper_div,
            replicate_bug=bug, chi=chi, freeze_temperature=frozen,
        )

        p = SimParams(
            nx=nx, ny=ny, dx=dx, dt=dt, model=mp,
            divisor_mode=PAPER_CODE if paper_div else CENTERED,
            replicate_appendix_bug=bug, total_steps=1,
        )
        st = SimState(
            phi=Field(phi0.copy(), dx),
            temp=Field(t0.copy(), dx),
        )
        out = step(st, p, rng=FixedNoise(chi), freeze_temperature=frozen)

        scale = max(np.max(np.abs(expected_phi)), np.max(np.abs(expected_temp)))
        assert np.max(np.abs(out.phi.data - expected_phi)) <= 1e-13 * scale
        assert np.max(np.abs(out.temp.data - expected_temp)) <= 1e-13 * scale
        assert (out.step, out.time) == (1, dt)
        # no two states share a buffer, even when temperature is frozen
        assert not np.shares_memory(out.temp.data, st.temp.data)

    def test_noise_free_path_needs_no_rng(self):
        p = small_params()
        out = step(initialize(p), p)
        assert np.isfinite(out.phi.data).all()

    def test_noise_requires_a_stream(self):
        p = small_params(model=ModelParams(noise_amp=0.01))
        with pytest.raises(ValueError, match="RngStream"):
            step(initialize(p), p)

    @pytest.mark.parametrize("name", ["phi", "temp"])
    def test_state_spacing_must_match_params(self, name):
        # dt 1e-4 passes the stability gate on dx 0.03 but not on dx 0.005,
        # where stepping blows up at step 8
        p = small_params()
        st = initialize(p)
        setattr(st, name, Field(getattr(st, name).data, 0.005))
        with pytest.raises(ValueError, match=rf"state {name} has dx=0\.005.*dx=0\.03"):
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
    @pytest.mark.parametrize("frozen", [False, True])
    def test_twenty_noisy_steps_bitwise(self, shape, paper_div, bug, frozen):
        rng = np.random.default_rng(43)
        dx, dt = 0.03, 1e-4
        phi = rng.random(shape)
        temp = rng.normal(0.0, 0.3, shape)
        mp = ModelParams(noise_amp=0.01)
        p = SimParams(
            nx=shape[0], ny=shape[1], dx=dx, dt=dt, model=mp, seed_radius_sq=0.0,
            divisor_mode=PAPER_CODE if paper_div else CENTERED,
            replicate_appendix_bug=bug, total_steps=20,
        )
        st = SimState(phi=Field(phi, dx), temp=Field(temp, dx))
        stream, twin_stream = RngStream(5), RngStream(5)
        for _ in range(p.total_steps):
            st = step(st, p, rng=stream, freeze_temperature=frozen)
            phi, temp = R.roll_step(
                phi, temp, mp, dx, dt, paper_divisor=paper_div, replicate_bug=bug,
                chi=twin_stream.uniform_sym(shape), freeze_temperature=frozen,
            )
        np.testing.assert_array_equal(st.phi.data, phi)
        np.testing.assert_array_equal(st.temp.data, temp)

    @pytest.mark.parametrize("layout", ["centred", "row-edge", "corner", "negative-zero"])
    @pytest.mark.parametrize("j_mode", [4, 6])
    @pytest.mark.parametrize("paper_div", [True, False])
    @pytest.mark.parametrize("bug", [False, True])
    @pytest.mark.parametrize("frozen", [False, True])
    def test_seeded_window_steps_bitwise(self, layout, j_mode, paper_div, bug, frozen):
        # a small seed in a zero melt: step updates only the window around it
        nx, ny = 40, 47
        mp = ModelParams(noise_amp=0.01, j_mode=j_mode)
        p = SimParams(
            nx=nx, ny=ny, model=mp, seed_radius_sq=4.0,
            divisor_mode=PAPER_CODE if paper_div else CENTERED,
            replicate_appendix_bug=bug, total_steps=30,
        )
        st = initialize(p)
        phi, temp = st.phi.data, st.temp.data
        if layout == "row-edge":
            phi = np.roll(phi, nx // 2, axis=0)
        elif layout == "corner":
            phi = np.roll(phi, (nx // 2, ny // 2), axis=(0, 1))
        elif layout == "negative-zero":
            far = np.logical_or.outer(np.arange(nx) % 5 == 0, np.arange(ny) % 7 == 0)
            phi = np.where(far & (phi == 0.0), -0.0, phi)
            temp = np.where(far, -0.0, temp)
        st = SimState(phi=Field(phi, p.dx), temp=Field(temp, p.dx))
        stream, twin_stream = RngStream(5), RngStream(5)
        areas = []
        for _ in range(p.total_steps):
            rows, cols = support_window(st.phi.data, st.temp.data, WINDOW_REACH)
            areas.append((rows.stop - rows.start) * (cols.stop - cols.start))
            st = step(st, p, rng=stream, freeze_temperature=frozen)
            phi, temp = R.roll_step(
                phi, temp, mp, p.dx, p.dt, paper_divisor=paper_div, replicate_bug=bug,
                chi=twin_stream.uniform_sym((nx, ny)), freeze_temperature=frozen,
            )
            assert st.phi.data.tobytes() == phi.tobytes()
            assert st.temp.data.tobytes() == temp.tobytes()
        if layout == "corner":
            assert areas[0] == nx * ny
        else:
            assert areas[0] < nx * ny / 2 and areas[-1] == nx * ny


class TestNoRolledCopies:
    def test_step_and_free_energy_never_call_np_roll(self, monkeypatch):
        def no_roll(*args, **kwargs):
            raise AssertionError("np.roll called")

        monkeypatch.setattr(np, "roll", no_roll)
        for mode in (PAPER_CODE, CENTERED):
            p = small_params(model=ModelParams(noise_amp=0.01), divisor_mode=mode)
            st = step(initialize(p), p, rng=RngStream(1))
            m = Field(m_of_temperature(st.temp.data, p.model), p.dx)
            assert np.isfinite(free_energy(st.phi, m, p.model))


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
        k = p.model.latent_heat
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
                rows, cols = support_window(st.phi.data, st.temp.data, WINDOW_REACH)
                st = step(st, p)
                phi, temp = R.roll_step(phi, temp, p.model, p.dx, p.dt)
        err = exc_info.value
        phi, temp = R.roll_step(phi, temp, p.model, p.dx, p.dt)
        name, bad = ("phi", phi) if not np.isfinite(phi).all() else ("temp", temp)
        assert (err.step, err.field_name) == (st.step + 1, name)
        assert err.cell == tuple(int(k) for k in np.argwhere(~np.isfinite(bad))[0])
        assert (rows.stop - rows.start) * (cols.stop - cols.start) < p.nx * p.ny

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

    def test_two_runs_are_bitwise_identical(self):
        p = small_params(model=ModelParams(noise_amp=0.01), total_steps=30)
        a, _ = run(p)
        b, _ = run(p)
        assert a.phi.data.tobytes() == b.phi.data.tobytes()
        assert a.temp.data.tobytes() == b.temp.data.tobytes()

    def test_different_seeds_diverge_with_noise(self):
        pa = small_params(model=ModelParams(noise_amp=0.01), total_steps=30, rng_seed=1)
        pb = small_params(model=ModelParams(noise_amp=0.01), total_steps=30, rng_seed=2)
        a, _ = run(pa)
        b, _ = run(pb)
        assert (a.phi.data != b.phi.data).any()
