"""Grid container and stencil operators: wrap, gradient, Laplacian, sums."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

import reference as R
from dendrosim.lattice import (
    CENTERED,
    PAPER_CODE,
    Field,
    divisors,
    embed,
    gradient_arrays,
    laplacian9_arrays,
    lattice_sum,
    periodic_pad,
    support_window,
)


def random_field(nx, ny, dx=0.03, seed=0):
    rng = np.random.default_rng(seed)
    return Field(rng.normal(size=(nx, ny)), dx)


# cells from 2^-1074 (subnormal) up to 2^990, of either sign, so that one
# field spans hundreds of decades
WIDE_CELLS = st.builds(math.ldexp, st.floats(-1.0, 1.0), st.integers(-1074, 990))


@st.composite
def wide_arrays(draw):
    nx, ny = draw(st.integers(3, 12)), draw(st.integers(3, 12))
    a = np.array(draw(st.lists(WIDE_CELLS, min_size=nx * ny, max_size=nx * ny))).reshape(nx, ny)
    if draw(st.booleans()):
        # heavy cancellation: the exact sum is the difference of two cells
        a = np.hstack([a, -a])
        a[0, 0] = draw(WIDE_CELLS)
    return a


class TestField:
    def test_rejects_tiny_extents(self):
        with pytest.raises(ValueError, match="extents"):
            Field.zeros(2, 8, 0.1)
        with pytest.raises(ValueError, match="extents"):
            Field.zeros(8, 2, 0.1)

    def test_rejects_nonpositive_spacing(self):
        with pytest.raises(ValueError, match="spacing"):
            Field.zeros(8, 8, 0.0)
        with pytest.raises(ValueError, match="spacing"):
            Field.zeros(8, 8, -0.1)

    def test_from_array_casts_to_contiguous_float64(self):
        f = Field(np.arange(9, dtype=np.int32).reshape(3, 3).T, 0.1)
        assert f.data.dtype == np.float64
        assert f.data.flags["C_CONTIGUOUS"]
        assert f.data[2, 0] == 2.0

    def test_copy_is_independent(self):
        f = random_field(5, 5)
        g = f.copy()
        g.data[0, 0] += 1.0
        assert f.data[0, 0] != g.data[0, 0]

    def test_zeros_defaults_square_spacing(self):
        f = Field.zeros(4, 6, 0.25)
        assert (f.nx, f.ny, f.dx) == (4, 6, 0.25)
        assert not f.data.any()


class TestWrapAndShift:
    @pytest.mark.parametrize("shape", [(3, 3), (3, 8), (8, 3)])
    def test_periodic_pad_wraps_every_border_cell(self, shape):
        a = np.random.default_rng(31).normal(size=shape)
        np.testing.assert_array_equal(periodic_pad(a), np.pad(a, 1, mode="wrap"))


class TestSupportWindow:
    SHAPE = (20, 30)

    def window(self, a_cells=(), b_cells=(), fill=0.0):
        a = np.full(self.SHAPE, fill)
        b = np.full(self.SHAPE, fill)
        for i, j in a_cells:
            a[i, j] = 1.0
        for i, j in b_cells:
            b[i, j] = -2.5
        return support_window(a, b, 3)

    def test_all_zero_pair_is_one_cell_at_origin(self):
        assert self.window() == (slice(0, 1), slice(0, 1))

    def test_centred_blob_widened_by_reach(self):
        assert self.window([(9, 14), (10, 16)]) == (slice(6, 14), slice(11, 20))

    def test_cells_of_both_arrays_count(self):
        assert self.window([(9, 14)], [(12, 20)]) == (slice(6, 16), slice(11, 24))

    @pytest.mark.parametrize(
        "cell, expected",
        [
            ((2, 14), (slice(0, 20), slice(11, 18))),
            ((17, 14), (slice(0, 20), slice(11, 18))),
            ((9, 2), (slice(6, 13), slice(0, 30))),
            ((9, 27), (slice(6, 13), slice(0, 30))),
        ],
        ids=["top", "bottom", "left", "right"],
    )
    def test_blob_within_reach_of_an_edge_takes_that_axis_whole(self, cell, expected):
        assert self.window([cell]) == expected
        assert self.window([], [cell]) == expected

    def test_blob_just_outside_the_frame_keeps_a_window(self):
        assert self.window([(3, 3), (16, 26)]) == (slice(0, 20), slice(0, 30))
        assert self.window([(3, 3)]) == (slice(0, 7), slice(0, 7))
        assert self.window([(16, 26)]) == (slice(13, 20), slice(23, 30))

    def test_blob_straddling_the_wrap_takes_the_whole_grid(self):
        assert self.window([(0, 0), (19, 29), (0, 29), (19, 0)]) == (slice(0, 20), slice(0, 30))

    def test_negative_zero_counts_as_zero(self):
        assert self.window(fill=-0.0) == (slice(0, 1), slice(0, 1))
        assert self.window([(9, 14)], fill=-0.0) == (slice(6, 13), slice(11, 18))

    def test_nan_counts_as_nonzero(self):
        a = np.zeros(self.SHAPE)
        a[9, 14] = np.nan
        assert support_window(a, np.zeros(self.SHAPE), 3) == (slice(6, 13), slice(11, 18))
        a[0, 14] = np.nan
        assert support_window(np.zeros(self.SHAPE), a, 3) == (slice(0, 20), slice(11, 18))

    def test_embed_writes_into_zeros_and_keeps_a_whole_grid_array(self):
        a = np.arange(1.0, 7.0).reshape(2, 3)
        out = embed(a, (4, 5), (slice(1, 3), slice(2, 5)))
        expected = np.zeros((4, 5))
        expected[1:3, 2:5] = a
        assert out.tobytes() == expected.tobytes()
        assert embed(a, (2, 3), (slice(0, 2), slice(0, 3))) is a


class TestGradient:
    def test_divisors_per_mode(self):
        assert divisors(0.03, PAPER_CODE) == 0.03
        assert divisors(0.03, CENTERED) == 0.06

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="divisor_mode"):
            divisors(0.1, "upwind")

    def test_constant_field_gradient_is_exactly_zero(self):
        a = np.full((6, 7), 3.7)
        for mode in (PAPER_CODE, CENTERED):
            gx, gy = gradient_arrays(a, 0.03, mode)
            assert not gx.any()
            assert not gy.any()

    def test_linear_field_interior_slopes(self):
        # dx = 0.25 keeps every product and difference exact in binary
        dx = 0.25
        x = np.arange(9)[:, None] * dx * np.ones((1, 5))
        gx_p, gy_p = gradient_arrays(x, dx, PAPER_CODE)
        gx_c, gy_c = gradient_arrays(x, dx, CENTERED)
        interior = slice(1, -1)
        assert (gx_p[interior, :] == 2.0).all()
        assert (gx_c[interior, :] == 1.0).all()
        assert not gy_p.any()
        assert not gy_c.any()

    def test_matches_loop_oracle_bitwise(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(7, 9))
        for mode, paper in ((PAPER_CODE, True), (CENTERED, False)):
            gx, gy = gradient_arrays(a, 0.03, mode)
            ox, oy = R.naive_gradient(a, 0.03, 0.03, paper)
            np.testing.assert_array_equal(gx, ox)
            np.testing.assert_array_equal(gy, oy)

    @pytest.mark.parametrize("shape", [(3, 3), (3, 8), (8, 3)])
    def test_matches_roll_formulas_bitwise(self, shape):
        a = np.random.default_rng(37).normal(size=shape)
        for mode, paper in ((PAPER_CODE, True), (CENTERED, False)):
            gx, gy = gradient_arrays(a, 0.03, mode)
            rx, ry = R.roll_gradient(a, 0.03, 0.03, paper)
            np.testing.assert_array_equal(gx, rx)
            np.testing.assert_array_equal(gy, ry)

    def test_translation_equivariance_bitwise(self):
        a = np.random.default_rng(5).normal(size=(8, 8))
        gx, gy = gradient_arrays(a, 0.03, PAPER_CODE)
        sx, sy = gradient_arrays(np.roll(a, (2, -3), axis=(0, 1)), 0.03, PAPER_CODE)
        np.testing.assert_array_equal(sx, np.roll(gx, (2, -3), axis=(0, 1)))
        np.testing.assert_array_equal(sy, np.roll(gy, (2, -3), axis=(0, 1)))


class TestLaplacian:
    def test_constant_field_maps_to_exact_zero(self):
        assert not laplacian9_arrays(np.full((5, 5), 2.25), 1.0).any()

    def test_unit_spike_stencil_weights(self):
        a = np.zeros((7, 7))
        a[3, 3] = 1.0
        lap = laplacian9_arrays(a, 1.0)
        assert lap[3, 3] == -4.0
        for i, j in [(2, 3), (4, 3), (3, 2), (3, 4)]:
            assert lap[i, j] == 2.0 / 3.0
        for i, j in [(2, 2), (2, 4), (4, 2), (4, 4)]:
            assert lap[i, j] == 1.0 / 3.0
        far = np.ones((7, 7), dtype=bool)
        far[2:5, 2:5] = False
        assert not lap[far].any()

    def test_sine_mode_matches_analytic_symbol(self):
        n, dx, k = 32, 0.03, 3
        x = 2.0 * np.pi * k * np.arange(n) / n
        f = np.sin(x)[:, None] * np.ones((1, n))
        lap = laplacian9_arrays(f, dx)
        X, Y = 2.0 * np.pi * k / n, 0.0
        lam = (2.0 * (2.0 * np.cos(X) + 2.0 * np.cos(Y))
               + 2.0 * np.cos(X + Y) + 2.0 * np.cos(X - Y) - 12.0) / (3.0 * dx * dx)
        np.testing.assert_allclose(lap, lam * f, rtol=0, atol=1e-9 * abs(lam))

    def test_matches_loop_oracle(self):
        a = np.random.default_rng(7).normal(size=(9, 6))
        lap = laplacian9_arrays(a, 0.03)
        np.testing.assert_allclose(lap, R.naive_laplacian9(a, 0.03), rtol=1e-12)

    @pytest.mark.parametrize("shape", [(3, 3), (3, 8), (8, 3)])
    def test_matches_roll_formulas_bitwise(self, shape):
        a = np.random.default_rng(41).normal(size=shape)
        np.testing.assert_array_equal(laplacian9_arrays(a, 0.03), R.roll_laplacian9(a, 0.03))

    def test_translation_equivariance_bitwise(self):
        a = np.random.default_rng(11).normal(size=(10, 10))
        lap = laplacian9_arrays(a, 0.5)
        for shift in [(1, 0), (0, 1), (3, -2)]:
            rolled = np.roll(a, shift, axis=(0, 1))
            np.testing.assert_array_equal(
                laplacian9_arrays(rolled, 0.5), np.roll(lap, shift, axis=(0, 1))
            )

    def test_square_symmetry_equivariance_bitwise(self):
        # the stencil commutes with every symmetry of the square, bitwise,
        # because neighbor contributions are grouped in opposite pairs
        a = np.random.default_rng(13).normal(size=(8, 8))
        lap = laplacian9_arrays(a, 0.5)
        images = [np.rot90(a, k) for k in range(4)]
        images += [np.rot90(a.T, k) for k in range(4)]
        expected = [np.rot90(lap, k) for k in range(4)]
        expected += [np.rot90(lap.T, k) for k in range(4)]
        for img, exp in zip(images, expected):
            np.testing.assert_array_equal(laplacian9_arrays(np.ascontiguousarray(img), 0.5), exp)


class TestLatticeSum:
    def test_zeros(self):
        assert lattice_sum(Field.zeros(10, 10, 0.03)) == 0.0

    def test_unit_field_area(self):
        f = Field(np.ones((10, 10)), 0.03)
        assert lattice_sum(f) == pytest.approx(0.09, rel=1e-12)

    def test_matches_sequential_oracle(self):
        rng = np.random.default_rng(17)
        a = rng.normal(size=(23, 31))
        f = Field(a, 0.03)
        assert lattice_sum(f) == pytest.approx(
            R.naive_sequential_sum(a, 0.03, 0.03), rel=1e-12
        )

    def test_repeatable(self):
        f = random_field(16, 16, seed=19)
        assert lattice_sum(f) == lattice_sum(f.copy())

    @given(wide_arrays())
    def test_is_correctly_rounded(self, a):
        f = Field(a, 0.03)
        assert lattice_sum(f) == math.fsum(a.ravel().tolist()) * 0.03 * 0.03

    @given(wide_arrays())
    def test_independent_of_cell_order(self, a):
        expected = lattice_sum(Field(a, 0.03))
        assert lattice_sum(Field(a.T, 0.03)) == expected
        assert lattice_sum(Field(a[::-1, ::-1], 0.03)) == expected

    @given(st.integers(3, 40), st.integers(3, 40), st.floats(-1e300, 1e300))
    def test_uniform_field_is_count_times_value(self, nx, ny, value):
        f = Field(np.full((nx, ny), value), 0.03)
        assert lattice_sum(f) == nx * ny * value * 0.03 * 0.03

    def test_nan_propagates(self):
        f = random_field(16, 16, seed=23)
        f.data[3, 5] = np.nan
        assert math.isnan(lattice_sum(f))

    def test_inf_propagates(self):
        f = random_field(16, 16, seed=29)
        f.data[3, 5] = np.inf
        assert lattice_sum(f) == np.inf
        f.data[3, 5] = -np.inf
        assert lattice_sum(f) == -np.inf

    def test_cells_near_overflow_use_plain_sum(self):
        f = Field(np.full((4, 4), 1e307), 1.0)
        assert lattice_sum(f) == 16 * 1e307
