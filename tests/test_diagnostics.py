"""Measurements: solid fraction, tip extents, arm counting, sums, energy."""

import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as hst

import reference as R
from dendrosim.diagnostics import (
    ARM_MIN_CELLS,
    DiagnosticsRecord,
    _radius_profile,
    arm_count,
    conservation_sum,
    free_energy,
    measure,
    solid_fraction,
    tip_extent,
)
from dendrosim.lattice import CENTERED, PAPER_CODE, Field, nonzero_box, widen
from dendrosim.physics import RngStream, double_well, m_of_temperature
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


def ragged_field(n, dx=DX):
    """A five-lobed star whose edge is jittered cell by cell."""
    rng = np.random.default_rng(31)
    c = n // 2
    ii, jj = np.meshgrid(np.arange(n) - c, np.arange(n) - c, indexing="ij")
    r = np.hypot(ii, jj)
    th = np.arctan2(jj, ii)
    ragged = r <= 28.0 * (1.0 + 0.25 * np.cos(5 * th)) + rng.normal(0.0, 0.7, (n, n))
    return Field(ragged.astype(float), dx)


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


def run_states(p, steps):
    """The states of a run of `steps` steps after the initial one."""
    st = initialize(p)
    rng = RngStream(p.rng_seed)
    for _ in range(steps):
        st = step(st, p, rng)
        yield st


def assert_bitwise(actual, expected):
    assert actual.tobytes() == expected.tobytes()


class TestRadiusProfileAgainstLoop:
    """_radius_profile against the per-sector-offset loop it replaced."""

    @pytest.mark.parametrize("params, steps", [
        (SimParams(nx=41, ny=40, noise_amp=0.01, rng_seed=5), 150),
        (SimParams(nx=64, ny=64, j_mode=6, noise_amp=0.01, rng_seed=7,
                   replicate_appendix_bug=True, divisor_mode=CENTERED), 300),
    ])
    def test_every_step_of_a_noisy_run(self, params, steps):
        for st in run_states(params, steps):
            assert_bitwise(_radius_profile(st.phi), R.loop_radius_profile(st.phi))

    @pytest.mark.parametrize("shape", [(3, 3), (3, 4)])
    def test_smallest_grids(self, shape):
        rng = np.random.default_rng(3)
        for phi in [np.ones(shape)] + [rng.random(shape) for _ in range(20)]:
            f = Field(phi, DX)
            assert_bitwise(_radius_profile(f), R.loop_radius_profile(f))

    def test_all_liquid_is_zero(self):
        f = Field.zeros(16, 17, DX)
        assert_bitwise(_radius_profile(f), np.zeros(360))
        assert_bitwise(R.loop_radius_profile(f), np.zeros(360))

    @pytest.mark.parametrize("shape", [(3, 3), (8, 8), (9, 6)])
    def test_only_the_center_cell_solid_keeps_no_cell(self, shape):
        a = np.zeros(shape)
        a[shape[0] // 2, shape[1] // 2] = 1.0
        f = Field(a, DX)
        assert_bitwise(_radius_profile(f), np.zeros(360))
        assert_bitwise(R.loop_radius_profile(f), np.zeros(360))

    @pytest.mark.parametrize("shape", [(3, 4), (8, 8), (9, 6)])
    @pytest.mark.parametrize("corner", [(0, 0), (0, -1), (-1, 0), (-1, -1)])
    def test_solid_corner_cell(self, shape, corner):
        # a corner has the largest folded offsets u and v of the grid
        a = np.zeros(shape)
        a[corner] = 1.0
        f = Field(a, DX)
        profile = _radius_profile(f)
        assert profile.max() > 0.0
        assert_bitwise(profile, R.loop_radius_profile(f))

    @given(hst.integers(3, 40), hst.integers(3, 40), hst.floats(1e-6, 1e3),
           hst.floats(0.0, 1.0), hst.integers(0, 2**32 - 1))
    def test_random_solid_masks(self, nx, ny, dx, density, seed):
        rng = np.random.default_rng(seed)
        # solid cells sit exactly on the threshold, liquid ones just below it
        f = Field(np.where(rng.random((nx, ny)) < density, 0.5, 0.4999), dx)
        assert_bitwise(_radius_profile(f), R.loop_radius_profile(f))


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
        # 1% of 30 cells is far below the two-cell swing floor
        assert arm_count(star_field(101, 30.0, 0.01, 4)) == 0

    @pytest.mark.parametrize("n", [101, 100])
    def test_invariant_under_quarter_turns(self, n):
        base = ragged_field(n)
        expected = arm_count(base)
        for k in (1, 2, 3):
            rot = Field(R.rotated90(base.data, k), DX)
            assert arm_count(rot) == expected

    def test_tips_split_in_mirror_pairs_read_the_symmetry_order(self):
        # each of the four arms forked into two lobes 20 degrees apart, with
        # a notch 10 cells deep between them: eight crests, and the
        # fourfold mode still dominates
        c = 50
        ii, jj = np.meshgrid(np.arange(101) - c, np.arange(101) - c, indexing="ij")
        th = np.arctan2(jj, ii)
        forks = sum(np.exp(-((np.angle(np.exp(1j * (th - a))) / 0.12) ** 2))
                    for a in np.deg2rad(np.arange(0, 360, 90)[:, None] + [-10, 10]).ravel())
        phi = Field((np.hypot(ii, jj) <= 25.0 * (1.0 + 0.6 * forks)).astype(float), DX)
        assert arm_count(phi) == 4


class TestArmCountOracle:
    """arm_count against the loop-built profile and the fsum spectrum."""

    @pytest.mark.parametrize("amp", [0.01, 0.3])
    @pytest.mark.parametrize("lobes", [4, 5, 6, 8])
    @pytest.mark.parametrize("phase", [0.0, 0.2, 0.7])
    def test_synthetic_stars(self, lobes, amp, phase):
        phi = star_field(101, 30.0, amp, lobes, phase=phase)
        assert arm_count(phi) == R.longhand_arm_count(phi, ARM_MIN_CELLS * DX)

    @pytest.mark.parametrize("n", [101, 100])
    def test_ragged_five_lobe_field(self, n):
        for k in range(4):
            phi = Field(R.rotated90(ragged_field(n).data, k), DX)
            assert arm_count(phi) == R.longhand_arm_count(phi, ARM_MIN_CELLS * DX)


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
        before = conservation_sum(st, p.latent_heat)
        after = conservation_sum(step(st, p), p.latent_heat)
        assert after == pytest.approx(before, rel=1e-12, abs=1e-12)


class TestFreeEnergy:
    def test_all_liquid_is_zero(self):
        p = SimParams()
        phi = Field.zeros(16, 16, DX)
        m = Field.zeros(16, 16, DX)
        assert free_energy(phi, m, p) == 0.0

    def test_all_solid_well_depth(self):
        p = SimParams()
        m_value = 0.3
        phi = Field(np.ones((16, 16)), DX)
        m = Field(np.full((16, 16), m_value), DX)
        area = 16 * 16 * DX * DX
        assert free_energy(phi, m, p) == pytest.approx(-m_value / 6.0 * area, rel=1e-12)

    def test_uniform_field_is_pointwise_density_times_area(self):
        p = SimParams()
        value, m_value = 0.3, 0.1
        phi = Field(np.full((16, 16), value), DX)
        m = Field(np.full((16, 16), m_value), DX)
        expected = 256 * double_well(value, m_value) * DX * DX
        assert free_energy(phi, m, p) == expected

    def test_mismatched_extents_rejected(self):
        p = SimParams()
        with pytest.raises(ValueError, match="extents"):
            free_energy(Field.zeros(8, 8, DX), Field.zeros(8, 9, DX), p)
        with pytest.raises(ValueError, match="extents"):
            free_energy(Field.zeros(10, 10, DX), Field.zeros(8, 8, DX), p)

    def test_gradient_term_is_positive(self):
        p = SimParams()
        phi = disk_field(31, 8.0)
        m = Field.zeros(31, 31, DX)
        assert free_energy(phi, m, p) > 0.0

    def test_decays_under_isotropic_gradient_flow(self):
        # no latent heat: T stays +0.0 from the start, so the bath is fixed
        p = SimParams(nx=32, ny=32, delta=0.0, latent_heat=0.0, seed_radius_sq=12.0)
        st = initialize(p)
        previous = measure(st, p).free_energy
        for _ in range(50):
            st = step(st, p)
            current = measure(st, p).free_energy
            assert current <= previous + 1e-12 * abs(previous)
            previous = current


class TestFreeEnergyAgainstLonghand:
    @pytest.mark.parametrize("j_mode", [4, 6])
    @pytest.mark.parametrize("divisor_mode", [PAPER_CODE, CENTERED])
    def test_noisy_states_bitwise(self, j_mode, divisor_mode):
        p = SimParams(nx=48, ny=48, j_mode=j_mode, noise_amp=0.01, rng_seed=13,
                      divisor_mode=divisor_mode)
        for st in run_states(p, 120):
            if st.step % 10:
                continue
            m = m_of_temperature(st.temp.data, p)
            expected = R.roll_free_energy(st.phi.data, m, p, DX)
            assert free_energy(st.phi, Field(m, DX), p) == expected


def tip_state(n, r0, amp, lobes, dx=DX):
    """A star-shaped crystal with a tanh interface in a warm halo."""
    c = n // 2
    ii, jj = np.meshgrid(np.arange(n) - c, np.arange(n) - c, indexing="ij")
    r = np.hypot(ii, jj)
    th = np.arctan2(jj, ii)
    phi = 0.5 * (1.0 - np.tanh((r - r0 * (1.0 + amp * np.cos(lobes * th))) / 1.5))
    temp = 0.3 * np.exp(-r / 40.0)
    return SimState(phi=Field(phi, dx), temp=Field(temp, dx))


def peak_grid_arrays(fn, n):
    """Peak memory that fn() allocates, in float64 n x n arrays."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn()
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    return peak / (8 * n * n)


class TestMemory:
    """A sample's temporaries stay a few grid arrays, so sampling every step
    does not raise a run's peak memory."""

    N = 300

    @pytest.fixture(scope="class")
    def state(self):
        st = tip_state(self.N, 18.0, 0.3, 4)
        assert 0.01 <= solid_fraction(st.phi) <= 0.02
        return st

    def test_radius_profile_peaks_below_two_grid_arrays(self, state):
        assert peak_grid_arrays(lambda: _radius_profile(state.phi), self.N) < 2.0

    def test_measure_peaks_at_ten_grid_arrays(self, state):
        assert peak_grid_arrays(lambda: measure(state, SimParams()), self.N) <= 10.0

    def test_measure_of_a_growing_crystal_peaks_below_one_grid_array(self):
        # 12 steps into a noisy 300x300 run the crystal's window is small,
        # and a sample allocates only boolean masks of the grid
        p = SimParams(nx=self.N, ny=self.N, noise_amp=0.01, rng_seed=1)
        st = list(run_states(p, 12))[-1]
        assert peak_grid_arrays(lambda: measure(st, p), self.N) < 1.0


class TestMeasure:
    def test_initial_state_record(self):
        p = SimParams(nx=128, ny=128)
        st = initialize(p)
        rec = measure(st, p)
        count, _ = R.disk_cells(20.0)
        assert (rec.step, rec.time) == (0, 0.0)
        assert rec.solid_fraction == count / (128 * 128)
        assert rec.tip_px == rec.tip_mx == rec.tip_py == rec.tip_my == 4 * DX
        assert rec.conservation_sum == pytest.approx(-p.latent_heat * count * DX * DX, rel=1e-12)
        assert rec.arm_count == 0
        # supercooled bath: the tilted solid well outweighs the interface term
        assert np.isfinite(rec.free_energy) and rec.free_energy < 0.0

    def test_record_reflects_supercooling_in_energy(self):
        # the m field entering the energy comes from the current temperature
        p = SimParams(nx=32, ny=32)
        st = initialize(p)
        warm = SimState(
            phi=st.phi.copy(),
            temp=Field(np.full((32, 32), p.t_eq), st.temp.dx),
        )
        e_cold = measure(st, p).free_energy
        e_warm = measure(warm, p).free_energy
        m_cold = float(m_of_temperature(0.0, p))
        assert e_warm != e_cold
        assert e_cold < e_warm  # supercooling tilts the solid well downward
        assert m_cold > 0.0


def whole_grid_record(state, p):
    """measure's record built from the whole-grid public functions."""
    phi = state.phi
    m = Field(m_of_temperature(state.temp.data, p), state.temp.dx)
    return DiagnosticsRecord(
        step=state.step,
        time=state.step * p.dt,
        solid_fraction=solid_fraction(phi),
        tip_px=tip_extent(phi, "+x"),
        tip_mx=tip_extent(phi, "-x"),
        tip_py=tip_extent(phi, "+y"),
        tip_my=tip_extent(phi, "-y"),
        conservation_sum=conservation_sum(state, p.latent_heat),
        free_energy=free_energy(phi, m, p),
        arm_count=arm_count(phi),
    )


def assert_same_record(state, p):
    """measure(state, p) equals the whole-grid record bit for bit (NaN too)."""
    got, want = measure(state, p), whole_grid_record(state, p)
    for name, value in dataclasses.asdict(want).items():
        assert np.float64(getattr(got, name)).tobytes() == np.float64(value).tobytes(), name


class TestWindowedMeasure:
    """measure sums on the box widened by REACH; the records equal the
    whole-grid ones.  (lattice_sum's near-overflow fallback, whose threshold
    depends on the cell count, is the one case where they may differ; no
    state here comes near it.)"""

    def test_every_step_of_a_noisy_run(self):
        p = SimParams(nx=40, ny=56, noise_amp=0.01, rng_seed=3, seed_radius_sq=6.0)
        spans = set()
        for st in run_states(p, 40):
            rows, cols = widen(nonzero_box((st.phi.data, st.temp.data)), (p.nx, p.ny))
            spans.add((rows.stop - rows.start == p.nx, cols.stop - cols.start == p.ny))
            assert_same_record(st, p)
        # small windows, windows spanning one axis, and spanning both
        assert spans == {(False, False), (True, False), (True, True)}

    @pytest.mark.parametrize("layout", ["row-edge", "corner"])
    def test_crystal_across_the_grid_edge(self, layout):
        p = SimParams(nx=40, ny=47, noise_amp=0.01, rng_seed=8, j_mode=6)
        st = list(run_states(p, 8))[-1]
        shift = (p.nx // 2, 0) if layout == "row-edge" else (p.nx // 2, p.ny // 2)
        moved = SimState(phi=Field(np.roll(st.phi.data, shift, axis=(0, 1)), p.dx),
                         temp=Field(np.roll(st.temp.data, shift, axis=(0, 1)), p.dx))
        assert_same_record(moved, p)

    def test_negative_zeros_outside_the_crystal(self):
        p = SimParams(nx=40, ny=47, noise_amp=0.01, rng_seed=2)
        st = list(run_states(p, 6))[-1]
        far = np.logical_or.outer(np.arange(p.nx) % 3 == 0, np.arange(p.ny) % 4 == 0)
        st = dataclasses.replace(
            st,
            phi=Field(np.where(far & (st.phi.data == 0.0), -0.0, st.phi.data), p.dx),
            temp=Field(np.where(far & (st.temp.data == 0.0), -0.0, st.temp.data), p.dx),
        )
        assert np.signbit(st.phi.data).any() and np.signbit(st.temp.data).any()
        assert_same_record(st, p)

    @pytest.mark.parametrize("name, cell", [("phi", (20, 23)), ("phi", (2, 40)),
                                            ("temp", (21, 24)), ("temp", (37, 3))])
    def test_nan_cell_propagates(self, name, cell):
        p = SimParams(nx=40, ny=47)
        st = list(run_states(p, 4))[-1]
        data = getattr(st, name).data.copy()
        data[cell] = np.nan
        st = dataclasses.replace(st, **{name: Field(data, p.dx)})
        rec = measure(st, p)
        assert np.isnan(rec.conservation_sum) and np.isnan(rec.free_energy)
        assert_same_record(st, p)

    @pytest.mark.parametrize("shape, window", [
        ((3, 3), (slice(0, 3), slice(0, 3))),
        ((3, 7), (slice(0, 3), slice(2, 5))),
        ((16, 16), (slice(2, 5), slice(2, 5))),
    ])
    def test_all_zero_state(self, shape, window):
        # a 3-cell span REACH cells in, or the whole axis where its halo
        # would not fit
        p = SimParams(nx=shape[0], ny=shape[1], seed_radius_sq=0.0)
        zeros = Field.zeros(*shape, p.dx)
        st = SimState(phi=zeros, temp=zeros)
        assert widen(nonzero_box((zeros.data, zeros.data)), shape) == window
        assert measure(st, p).free_energy == 0.0
        assert_same_record(st, p)

    def test_three_by_three_grids(self):
        p = SimParams(nx=3, ny=3, seed_radius_sq=0.0)
        rng = np.random.default_rng(17)
        for _ in range(10):
            phi, temp = rng.random((3, 3)), rng.normal(0.0, 0.3, (3, 3))
            assert_same_record(SimState(phi=Field(phi, p.dx), temp=Field(temp, p.dx)), p)
        one = np.zeros((3, 3))
        one[1, 2] = 0.7
        assert_same_record(SimState(phi=Field(one, p.dx), temp=Field(one, p.dx)), p)

    @given(hst.integers(3, 24), hst.integers(3, 24), hst.integers(0, 2**32 - 1))
    def test_random_blobs(self, nx, ny, seed):
        # a box of random values anywhere, in a melt of signed zeros
        rng = np.random.default_rng(seed)
        p = SimParams(nx=nx, ny=ny, seed_radius_sq=0.0, j_mode=int(rng.integers(1, 7)))
        fields = []
        for scale in (1.0, 0.5):
            a = np.where(rng.random((nx, ny)) < 0.5, -0.0, 0.0)
            i, j = rng.integers(0, nx), rng.integers(0, ny)
            a[i:i + rng.integers(1, 6), j:j + rng.integers(1, 6)] = scale * rng.random()
            fields.append(Field(a, p.dx))
        assert_same_record(SimState(phi=fields[0], temp=fields[1], step=3), p)
