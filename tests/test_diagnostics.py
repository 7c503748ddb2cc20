"""Measurements: solid fraction, tip extents, arm counting, sums, energy."""

import numpy as np
import pytest

import reference as R
from dendrosim.diagnostics import (
    arm_count,
    conservation_sum,
    free_energy,
    measure,
    solid_fraction,
    tip_extent,
)
from dendrosim.lattice import Field
from dendrosim.physics import ModelParams, double_well, m_of_temperature
from dendrosim.solver import SimParams, SimState, initialize, step

DX = 0.03


def disk_field(n, r_cells, dx=DX, value=1.0):
    c = n // 2
    ii, jj = np.meshgrid(np.arange(n) - c, np.arange(n) - c, indexing="ij")
    phi = np.where(ii * ii + jj * jj <= r_cells * r_cells, value, 0.0)
    return Field(phi, dx)


def star_field(n, r0, amp, lobes, dx=DX, phase=0.0):
    """Solid wherever radius <= r0 (1 + amp cos(lobes * (theta - phase)))."""
    c = n // 2
    ii, jj = np.meshgrid(np.arange(n) - c, np.arange(n) - c, indexing="ij")
    r = np.hypot(ii, jj)
    th = np.arctan2(jj, ii)
    solid = r <= r0 * (1.0 + amp * np.cos(lobes * (th - phase)))
    return Field(solid.astype(float), dx)


class TestSolidFraction:
    def test_extremes(self):
        assert solid_fraction(Field.zeros(8, 8, DX)) == 0.0
        assert solid_fraction(Field(np.ones((8, 8)), DX)) == 1.0

    def test_half_and_half(self):
        a = np.full((10, 10), 0.1)
        a[:5] = 0.9
        assert solid_fraction(Field(a, DX)) == 0.5

    def test_threshold_is_inclusive(self):
        a = np.zeros((4, 4))
        a[0, 0] = 0.5
        assert solid_fraction(Field(a, DX)) == 1.0 / 16.0


class TestTipExtent:
    def test_all_liquid_is_zero(self):
        f = Field.zeros(16, 16, DX)
        for d in ("+x", "-x", "+y", "-y"):
            assert tip_extent(f, d) == 0.0

    def test_disk_radius_within_one_cell(self):
        r = np.sqrt(104.0)
        f = disk_field(41, r)
        for d in ("+x", "-x", "+y", "-y"):
            assert abs(tip_extent(f, d) - r * DX) <= DX

    def test_default_seed_reaches_four_cells(self):
        st = initialize(SimParams())
        for d in ("+x", "-x", "+y", "-y"):
            assert tip_extent(st.phi, d) == 4 * DX

    def test_each_direction_scans_its_own_ray(self):
        n, c = 21, 10
        a = np.zeros((n, n))
        a[c, c] = 1.0
        a[c + 6, c] = 1.0
        a[c - 3, c] = 1.0
        a[c, c + 2] = 1.0
        a[c, c - 5] = 1.0
        f = Field(a, DX)
        assert tip_extent(f, "+x") == 6 * DX
        assert tip_extent(f, "-x") == 3 * DX
        assert tip_extent(f, "+y") == 2 * DX
        assert tip_extent(f, "-y") == 5 * DX

    def test_unknown_direction_rejected(self):
        with pytest.raises(ValueError, match="direction"):
            tip_extent(Field.zeros(8, 8, DX), "up")

    def test_subthreshold_offset_changes_nothing(self):
        base = disk_field(31, 8.0)
        shifted_values = Field(base.data + 0.49, DX)
        assert solid_fraction(shifted_values) == solid_fraction(base)
        for d in ("+x", "-x", "+y", "-y"):
            assert tip_extent(shifted_values, d) == tip_extent(base, d)


class TestArmCount:
    def test_disk_has_no_arms(self):
        assert arm_count(disk_field(101, 30.0)) == 0

    def test_all_liquid_has_no_arms(self):
        assert arm_count(Field.zeros(64, 64, DX)) == 0

    @pytest.mark.parametrize("lobes", [4, 5, 6, 8])
    def test_synthetic_star_lobe_count(self, lobes):
        assert arm_count(star_field(101, 30.0, 0.3, lobes)) == lobes

    def test_star_count_survives_rotation_of_the_pattern(self):
        for phase in (0.0, 0.2, 0.7):
            assert arm_count(star_field(101, 30.0, 0.3, 4, phase=phase)) == 4

    def test_sub_resolution_modulation_reads_as_disk(self):
        # 1% of 30 cells is far below the two-cell prominence floor
        assert arm_count(star_field(101, 30.0, 0.01, 4)) == 0

    @pytest.mark.parametrize("n", [101, 100])
    def test_invariant_under_quarter_turns(self, n):
        rng = np.random.default_rng(31)
        c = n // 2
        ii, jj = np.meshgrid(np.arange(n) - c, np.arange(n) - c, indexing="ij")
        r = np.hypot(ii, jj)
        th = np.arctan2(jj, ii)
        ragged = r <= 28.0 * (1.0 + 0.25 * np.cos(5 * th)) + rng.normal(0.0, 0.7, (n, n))
        base = Field(ragged.astype(float), DX)
        expected = arm_count(base)
        for k in (1, 2, 3):
            rot = Field(R.rotated90(base.data, k), DX)
            assert arm_count(rot) == expected

    def test_window_knob_accepted(self):
        f = star_field(101, 30.0, 0.3, 4)
        assert arm_count(f, window=7) == 4
        assert arm_count(f, prominence_cells=1.0) == 4


class TestConservationSum:
    def test_empty_state(self):
        st = SimState(phi=Field.zeros(8, 8, DX), temp=Field.zeros(8, 8, DX))
        assert conservation_sum(st, 1.8) == 0.0

    def test_all_solid_cold_bath(self):
        st = SimState(
            phi=Field(np.ones((100, 100)), DX),
            temp=Field.zeros(100, 100, DX),
        )
        assert conservation_sum(st, 1.8) == pytest.approx(-16.2, rel=1e-12)

    def test_invariant_across_one_step(self):
        p = SimParams(nx=64, ny=64)
        st = initialize(p)
        before = conservation_sum(st, p.model.latent_heat)
        after = conservation_sum(step(st, p), p.model.latent_heat)
        assert after == pytest.approx(before, rel=1e-12, abs=1e-12)


class TestFreeEnergy:
    def test_all_liquid_is_zero(self):
        p = ModelParams()
        phi = Field.zeros(16, 16, DX)
        m = Field.zeros(16, 16, DX)
        assert free_energy(phi, m, p) == 0.0

    def test_all_solid_well_depth(self):
        p = ModelParams()
        m_value = 0.3
        phi = Field(np.ones((16, 16)), DX)
        m = Field(np.full((16, 16), m_value), DX)
        area = 16 * 16 * DX * DX
        assert free_energy(phi, m, p) == pytest.approx(-m_value / 6.0 * area, rel=1e-12)

    def test_uniform_field_is_pointwise_density_times_area(self):
        p = ModelParams()
        value, m_value = 0.3, 0.1
        phi = Field(np.full((16, 16), value), DX)
        m = Field(np.full((16, 16), m_value), DX)
        expected = 256 * double_well(value, m_value) * DX * DX
        assert free_energy(phi, m, p) == expected

    def test_mismatched_extents_rejected(self):
        p = ModelParams()
        with pytest.raises(ValueError, match="extents"):
            free_energy(Field.zeros(8, 8, DX), Field.zeros(8, 9, DX), p)

    def test_gradient_term_is_positive(self):
        p = ModelParams()
        phi = disk_field(31, 8.0)
        m = Field.zeros(31, 31, DX)
        assert free_energy(phi, m, p) > 0.0

    def test_decays_under_isotropic_gradient_flow(self):
        p = SimParams(nx=32, ny=32, model=ModelParams(delta=0.0), seed_radius_sq=12.0)
        st = initialize(p)
        previous = measure(st, p.model).free_energy
        for _ in range(50):
            st = step(st, p, freeze_temperature=True)
            current = measure(st, p.model).free_energy
            assert current <= previous + 1e-12 * abs(previous)
            previous = current


class TestMeasure:
    def test_initial_state_record(self):
        p = SimParams(nx=128, ny=128)
        st = initialize(p)
        rec = measure(st, p.model)
        count, _ = R.disk_cells(20.0)
        assert (rec.step, rec.time) == (0, 0.0)
        assert rec.solid_fraction == count / (128 * 128)
        assert rec.tip_px == rec.tip_mx == rec.tip_py == rec.tip_my == 4 * DX
        assert rec.conservation_sum == pytest.approx(-p.model.latent_heat * count * DX * DX, rel=1e-12)
        assert rec.arm_count == 0
        # supercooled bath: the tilted solid well outweighs the interface term
        assert np.isfinite(rec.free_energy) and rec.free_energy < 0.0

    def test_record_reflects_supercooling_in_energy(self):
        # the m field entering the energy comes from the current temperature
        p = SimParams(nx=32, ny=32)
        st = initialize(p)
        warm = SimState(
            phi=st.phi.copy(),
            temp=Field(np.full((32, 32), p.model.t_eq), st.temp.dx),
        )
        e_cold = measure(st, p.model).free_energy
        e_warm = measure(warm, p.model).free_energy
        m_cold = float(m_of_temperature(0.0, p.model))
        assert e_warm != e_cold
        assert e_cold < e_warm  # supercooling tilts the solid well downward
        assert m_cold > 0.0
