"""Grid container and stencil operators: wrap, gradient, Laplacian, sums."""

import math
import types

import numpy as np
import pytest
from hypothesis import given, strategies as st

import reference as R
from dendrosim import lattice
from dendrosim.lattice import (
    CENTERED,
    PAPER_CODE,
    Field,
    cell_view,
    divisors,
    gradient_arrays,
    laplacian9_arrays,
    REACH,
    halo,
    lattice_sum,
    nonzero_box,
    widen,
)
from dendrosim.solver import SimParams, run


def wrapped(a):
    """`a` with one periodic ring, the input a valid-mode stencil needs for
    the periodic result on all of `a`."""
    return np.pad(a, 1, mode="wrap")


def gradient2d(h, dx, mode):
    """gradient_arrays on `h`, as 2-D arrays: `h` less its outer ring."""
    pitch = h.shape[1]
    return tuple(np.ascontiguousarray(cell_view(g, pitch, pitch - 2))
                 for g in gradient_arrays(h.ravel(), pitch, dx, mode))


def laplacian2d(h, dx):
    """laplacian9_arrays on `h`, as a 2-D array: `h` less its outer ring."""
    pitch = h.shape[1]
    return np.ascontiguousarray(
        cell_view(laplacian9_arrays(h.ravel(), pitch, dx), pitch, pitch - 2))


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
        with pytest.raises(ValueError, match="spacing"):
            Field.zeros(8, 8, True)

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


class TestHalo:
    # grids of 3 and 4 cells along an axis are the ones whose REACH rings
    # on the two sides overlap or meet
    @pytest.mark.parametrize("shape", [(3, 3), (3, 8), (8, 3), (9, 11), (4, 4), (4, 7),
                                       (7, 4), (3, 4), (4, 3), (5, 5)])
    def test_whole_grid_window_wraps_like_np_pad(self, shape):
        a = np.random.default_rng(31).normal(size=shape)
        want = np.pad(a, REACH, mode="wrap")
        for window in (np.s_[:, :], (slice(0, shape[0]), slice(0, shape[1]))):
            got = halo((a,), window)[0]
            assert got.tobytes() == want.tobytes() and got.shape == want.shape

    @pytest.mark.parametrize("rows, cols", [
        ((2, 10), (2, 13)), ((3, 4), (5, 6)), ((REACH, 12 - REACH), (REACH, 15 - REACH))])
    def test_interior_window_is_the_plain_grid_slice(self, rows, cols):
        a = np.random.default_rng(32).normal(size=(12, 15))
        k = REACH
        got = halo((a,), (slice(*rows), slice(*cols)))[0]
        want = a[rows[0] - k:rows[1] + k, cols[0] - k:cols[1] + k]
        assert got.tobytes() == want.tobytes() and got.shape == want.shape

    @pytest.mark.parametrize("spanned", ["rows", "cols"])
    def test_mixed_axes_wrap_only_the_spanned_one(self, spanned):
        a = np.random.default_rng(33).normal(size=(10, 13))
        k = REACH
        if spanned == "rows":
            got = halo((a,), (slice(0, 10), slice(4, 9)))[0]
            want = np.pad(a, ((k, k), (0, 0)), mode="wrap")[:, 4 - k:9 + k]
        else:
            got = halo((a,), (slice(3, 6), slice(0, 13)))[0]
            want = np.pad(a, ((0, 0), (k, k)), mode="wrap")[3 - k:6 + k]
        assert got.tobytes() == want.tobytes() and got.shape == want.shape

    @pytest.mark.parametrize("shape, window", [
        *(((10, 13), w) for w in (np.s_[1:9, :], np.s_[:, 2:12], np.s_[0:3, 4:6],
                                  np.s_[4:6, 11:13])),
        # the appendix-bug block: the halo of the grid's last cell, and of
        # the other corners, on the least grid and a larger one
        *((shape, w) for shape in ((3, 3), (20, 30))
          for w in (np.s_[:1, :1], np.s_[:1, -1:], np.s_[-1:, :1], np.s_[-1:, -1:])),
    ])
    def test_rings_past_the_edge_of_an_unspanned_axis_are_the_periodic_neighbours(
            self, shape, window):
        a = np.random.default_rng(36).normal(size=shape)
        (r0, r1, _), (c0, c1, _) = (s.indices(n) for s, n in zip(window, shape))
        want = np.pad(a, 2, mode="wrap")[r0:r1 + 4, c0:c1 + 4]
        got = halo((a,), window)[0]
        assert got.tobytes() == want.tobytes() and got.shape == want.shape

    def test_signed_zeros_and_nan_are_copied_bit_for_bit(self):
        a = np.where(np.random.default_rng(34).random((6, 7)) < 0.5, -0.0, 0.0)
        a[2, 3] = np.nan
        assert halo((a,), np.s_[:, :]).tobytes() == np.pad(a, 2, mode="wrap").tobytes()

    @pytest.mark.parametrize("window", [np.s_[:, :], np.s_[2:5, 0:11], np.s_[3:6, 4:7]],
                             ids=["whole", "rows", "interior"])
    def test_planes_are_copied_together(self, window):
        a, b = np.random.default_rng(35).normal(size=(2, 9, 11))
        pair = halo((a, b), window)
        assert pair.shape[0] == 2
        assert pair[0].tobytes() == halo((a,), window)[0].tobytes()
        assert pair[1].tobytes() == halo((b,), window)[0].tobytes()

    # the step's input: phi and T as the planes of one (2, nx, ny) grid
    @pytest.mark.parametrize("shape", [(9, 11), (3, 3), (4, 7)])
    @pytest.mark.parametrize("window", [
        np.s_[:, :], np.s_[2:5, 0:11], np.s_[0:9, 3:6], np.s_[3:6, 4:7], np.s_[0:2, 0:2],
        np.s_[-2:, -1:], np.s_[2:3, 2:3]],
        ids=["whole", "rows", "cols", "interior", "top-left", "bottom-right", "no-wrap-cell"])
    def test_stacked_planes_match_np_pad(self, shape, window):
        grid = np.random.default_rng(37).normal(size=(2, *shape))
        grid[0, 0, 0], grid[1, -1, -1] = np.nan, -0.0
        (r0, r1, _), (c0, c1, _) = (s.indices(n) for s, n in zip(window, shape))
        got = halo(grid, window)
        nx, ny = shape
        for plane, a in zip(got, grid):
            # a period of wrap padding on each side holds every ring
            wrapped = np.pad(a, ((nx, nx), (ny, ny)), mode="wrap")
            want = wrapped[r0 + nx - 2:r1 + nx + 2, c0 + ny - 2:c1 + ny + 2]
            assert plane.tobytes() == want.tobytes()
            assert plane.shape == (r1 - r0 + 4, c1 - c0 + 4)
        assert halo(tuple(grid), window).tobytes() == got.tobytes()


class TestSupportWindow:
    SHAPE = (20, 30)

    def window(self, a_cells=(), b_cells=(), fill=0.0):
        a = np.full(self.SHAPE, fill)
        b = np.full(self.SHAPE, fill)
        for i, j in a_cells:
            a[i, j] = 1.0
        for i, j in b_cells:
            b[i, j] = -2.5
        return self.widened(a, b)

    def widened(self, a, b):
        return widen(nonzero_box((a, b)), self.SHAPE)

    def test_all_zero_pair_is_three_by_three_at_the_origin(self):
        assert self.window() == (slice(0, 3), slice(0, 3))

    @pytest.mark.parametrize("shape", [(3, 3), (6, 7), (7, 6)])
    def test_all_zero_pair_is_three_by_three_at_the_origin_of_any_grid(self, shape):
        zeros = np.zeros(shape)
        assert widen(nonzero_box((zeros, zeros)), shape) == (slice(0, 3), slice(0, 3))

    def test_centred_blob_widened_by_reach(self):
        assert self.window([(9, 14), (10, 16)]) == (slice(7, 13), slice(12, 19))

    def test_cells_of_both_arrays_count(self):
        assert self.window([(9, 14)], [(12, 20)]) == (slice(7, 15), slice(12, 23))

    @pytest.mark.parametrize(
        "cell, expected",
        [
            ((1, 14), (slice(0, 20), slice(12, 17))),
            ((18, 14), (slice(0, 20), slice(12, 17))),
            ((9, 1), (slice(7, 12), slice(0, 30))),
            ((9, 28), (slice(7, 12), slice(0, 30))),
        ],
        ids=["top", "bottom", "left", "right"],
    )
    def test_blob_within_reach_of_an_edge_takes_that_axis_whole(self, cell, expected):
        assert self.window([cell]) == expected
        assert self.window([], [cell]) == expected

    def test_blob_just_outside_the_frame_keeps_a_window(self):
        # REACH cells from an edge: the window ends on the edge, and its
        # halo wraps round it
        assert self.window([(2, 2), (17, 27)]) == (slice(0, 20), slice(0, 30))
        assert self.window([(2, 2)]) == (slice(0, 5), slice(0, 5))
        assert self.window([(17, 27)]) == (slice(15, 20), slice(25, 30))

    def test_blob_straddling_the_wrap_takes_the_whole_grid(self):
        assert self.window([(0, 0), (19, 29), (0, 29), (19, 0)]) == (slice(0, 20), slice(0, 30))

    def test_negative_zero_counts_as_zero(self):
        assert self.window(fill=-0.0) == (slice(0, 3), slice(0, 3))
        assert self.window([(9, 14)], fill=-0.0) == (slice(7, 12), slice(12, 17))

    def test_nan_counts_as_nonzero(self):
        a = np.zeros(self.SHAPE)
        a[9, 14] = np.nan
        assert self.widened(a, np.zeros(self.SHAPE)) == (slice(7, 12), slice(12, 17))
        a[0, 14] = np.nan
        assert self.widened(np.zeros(self.SHAPE), a) == (slice(0, 20), slice(12, 17))

    def test_box_of_one_cell_is_that_cell(self):
        a = np.zeros(self.SHAPE)
        a[9, 14] = 1.0
        assert nonzero_box((a, np.zeros(self.SHAPE))) == (slice(9, 10), slice(14, 15))
        assert nonzero_box((np.zeros(self.SHAPE), a)) == (slice(9, 10), slice(14, 15))

    def test_cells_on_every_edge_give_the_whole_box(self):
        a = np.zeros(self.SHAPE)
        b = np.zeros(self.SHAPE)
        a[0, 5], a[7, -1], b[-1, 3], b[12, 0] = 1.0, np.nan, -1.0, 2.0
        assert nonzero_box((a, b)) == (slice(0, 20), slice(0, 30))
        b[12, 0] = -0.0
        assert nonzero_box((a, b)) == (slice(0, 20), slice(3, 30))

    @given(st.integers(3, 12), st.integers(3, 12), st.integers(0, 2**32 - 1))
    def test_box_and_window_match_the_longhand(self, nx, ny, seed):
        rng = np.random.default_rng(seed)
        pair = []
        for _ in range(2):
            # mostly signed zeros, a few cells of any value, NaN among them
            a = np.where(rng.random((nx, ny)) < 0.5, -0.0, 0.0)
            live = rng.random((nx, ny)) < rng.choice([0.0, 0.05, 0.3, 1.0])
            a[live] = rng.choice([1.0, -2.5, 5e-324, np.nan], size=int(live.sum()))
            pair.append(a)
        box = nonzero_box(pair)
        assert box == R.naive_nonzero_box(*pair)
        assert nonzero_box(np.stack(pair)) == box
        assert widen(box, (nx, ny)) == R.naive_window(*pair, REACH)


class TestStackedBox:
    """nonzero_box of a (2, nx, ny) array, the step's result, against the
    longhand box of its two planes."""

    SHAPE = (7, 9)

    @staticmethod
    def pair(cells, fill=0.0):
        grid = np.full((2, *TestStackedBox.SHAPE), fill)
        for (k, i, j), v in cells.items():
            grid[k, i, j] = v
        return grid

    @pytest.mark.parametrize("cells, fill", [
        ({}, 0.0),
        ({}, -0.0),
        ({(0, 3, 4): 1.0}, -0.0),
        ({(1, 3, 4): np.nan}, 0.0),
        ({(0, 2, 2): np.nan, (1, 5, 6): -0.0, (1, 4, 7): 5e-324}, -0.0),
        ({(0, 0, 4): 1.0, (1, 6, 0): -1.0}, 0.0),
        ({(0, 0, 0): 1.0, (1, 6, 8): np.nan}, 0.0),
        # three edges live, the fourth only through a -0.0
        ({(0, 0, 3): 1.0, (0, 6, 3): 1.0, (1, 3, 0): 2.0, (1, 3, 8): -0.0}, 0.0),
        # every edge live, each through one plane only
        ({(0, 0, 3): 1.0, (1, 6, 3): np.nan, (0, 3, 0): 2.0, (1, 3, 8): -3.0}, 0.0),
    ], ids=["zero", "negative-zero", "one-cell", "nan", "mixed", "two-edges", "corners",
            "three-edges", "four-edges"])
    def test_matches_the_longhand(self, cells, fill):
        grid = self.pair(cells, fill)
        box = nonzero_box(grid)
        assert box == R.naive_nonzero_box(*grid)
        assert nonzero_box(tuple(grid)) == box
        assert nonzero_box(grid[::-1]) == box


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
            gx, gy = gradient2d(a, 0.03, mode)
            assert not gx.any()
            assert not gy.any()

    def test_linear_field_slopes_in_valid_mode(self):
        # dx = 0.25 keeps every product and difference exact in binary; the
        # result covers the cells with both neighbours, so no wrap enters
        dx = 0.25
        x = np.arange(9)[:, None] * dx * np.ones((1, 5))
        gx_p, gy_p = gradient2d(x, dx, PAPER_CODE)
        gx_c, gy_c = gradient2d(x, dx, CENTERED)
        assert gx_p.shape == gy_c.shape == (7, 3)
        assert (gx_p == 2.0).all()
        assert (gx_c == 1.0).all()
        assert not gy_p.any()
        assert not gy_c.any()

    def test_matches_loop_oracle_bitwise(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(7, 9))
        for mode, paper in ((PAPER_CODE, True), (CENTERED, False)):
            gx, gy = gradient2d(wrapped(a), 0.03, mode)
            ox, oy = R.naive_gradient(a, 0.03, 0.03, paper)
            np.testing.assert_array_equal(gx, ox)
            np.testing.assert_array_equal(gy, oy)

    @pytest.mark.parametrize("shape", [(3, 3), (3, 8), (8, 3)])
    def test_matches_roll_formulas_bitwise(self, shape):
        a = np.random.default_rng(37).normal(size=shape)
        for mode, paper in ((PAPER_CODE, True), (CENTERED, False)):
            gx, gy = gradient2d(wrapped(a), 0.03, mode)
            rx, ry = R.roll_gradient(a, 0.03, 0.03, paper)
            np.testing.assert_array_equal(gx, rx)
            np.testing.assert_array_equal(gy, ry)

    def test_translation_equivariance_bitwise(self):
        a = np.random.default_rng(5).normal(size=(8, 8))
        gx, gy = gradient2d(wrapped(a), 0.03, PAPER_CODE)
        sx, sy = gradient2d(wrapped(np.roll(a, (2, -3), axis=(0, 1))), 0.03, PAPER_CODE)
        np.testing.assert_array_equal(sx, np.roll(gx, (2, -3), axis=(0, 1)))
        np.testing.assert_array_equal(sy, np.roll(gy, (2, -3), axis=(0, 1)))


class TestValidMode:
    @pytest.mark.parametrize("shape", [(3, 3), (5, 8), (9, 4)])
    def test_result_is_one_ring_smaller_and_reads_only_its_input(self, shape):
        # the valid-mode result on `a` is the periodic one on its inner cells
        a = np.random.default_rng(47).normal(size=shape)
        inner = np.s_[1:-1, 1:-1]
        for mode, paper in ((PAPER_CODE, True), (CENTERED, False)):
            for got, want in zip(gradient2d(a, 0.03, mode),
                                 R.roll_gradient(a, 0.03, 0.03, paper)):
                assert got.tobytes() == want[inner].tobytes()
        assert laplacian2d(a, 0.03).tobytes() == R.roll_laplacian9(a, 0.03)[inner].tobytes()

    @pytest.mark.parametrize("pitch, n", [(3, 9), (5, 13), (5, 25), (7, 40)])
    def test_result_drops_pitch_plus_one_at_each_end(self, pitch, n):
        # 9 values at pitch 3 and 13 at pitch 5 are the least with a result
        f = np.random.default_rng(pitch).normal(size=(2, n))
        size = n - 2 * (pitch + 1)
        for mode in (PAPER_CODE, CENTERED):
            for g in gradient_arrays(f[0], pitch, 0.03, mode):
                assert g.shape == (size,)
        lap = laplacian9_arrays(f, pitch, 0.03)
        assert lap.shape == (2, size)
        for got, plane in zip(lap, f):
            assert got.tobytes() == laplacian9_arrays(plane, pitch, 0.03).tobytes()


class TestFlatStencils:
    """The step's layout: two fields copied together with REACH rings, the
    gradient taken on the copy, which gives the window plus one ring, and
    the pair Laplacian on that ring, which gives the window, both read back
    through cell_view and matched against the roll formulas, bit for bit."""

    CASES = [
        ((12, 15), np.s_[2:6, 2:5]),  # 2 cells from the top and left edges
        ((12, 15), np.s_[6:10, 10:13]),  # 2 cells from the bottom and right
        ((12, 15), np.s_[0:12, 5:8]),  # the rows spanned, the narrowest columns
        ((12, 15), np.s_[4:7, 0:15]),  # the columns spanned
        ((12, 15), np.s_[0:12, 0:15]),
        ((15, 7), np.s_[2:13, 0:7]),
        ((7, 16), np.s_[0:7, 2:14]),
        ((3, 9), np.s_[0:3, 2:5]),
        ((3, 3), np.s_[0:3, 0:3]),
    ]

    @pytest.mark.parametrize("shape, window", CASES)
    @pytest.mark.parametrize("seed", [0, 1])
    def test_match_the_roll_formulas_bitwise(self, shape, window, seed):
        rng = np.random.default_rng(seed)
        pair = rng.normal(size=(2, *shape))
        h = halo(pair, window)
        pitch = h.shape[2]
        f = h.reshape(2, -1)
        # the window and its ring as whole-grid cells, wrapped on a spanned axis
        around = np.ix_(*(np.arange(w.start - 1, w.stop + 1) % n for w, n in zip(window, shape)))
        for mode, paper in ((PAPER_CODE, True), (CENTERED, False)):
            got = gradient_arrays(f[0], pitch, 0.03, mode)
            for g, want in zip(got, R.roll_gradient(pair[0], 0.03, 0.03, paper)):
                assert cell_view(g, pitch, pitch - 2).tobytes() == want[around].tobytes()
        lap = laplacian9_arrays(f[:, pitch + 1:-pitch - 1], pitch, 0.03)
        for got, a in zip(lap, pair):
            assert cell_view(got, pitch, pitch - 4).tobytes() == \
                R.roll_laplacian9(a, 0.03)[window].tobytes()

    def test_cell_view_drops_the_positions_between_rows(self):
        a = np.arange(3 * 7 - 4.0)
        view = cell_view(a, 7, 3)
        assert view.shape == (3, 3)
        assert view.tolist() == [[0, 1, 2], [7, 8, 9], [14, 15, 16]]


class TestLaplacian:
    def test_constant_field_maps_to_exact_zero(self):
        assert not laplacian2d(np.full((5, 5), 2.25), 1.0).any()

    def test_unit_spike_stencil_weights(self):
        a = np.zeros((7, 7))
        a[3, 3] = 1.0
        lap = laplacian2d(wrapped(a), 1.0)
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
        lap = laplacian2d(wrapped(f), dx)
        X, Y = 2.0 * np.pi * k / n, 0.0
        lam = (2.0 * (2.0 * np.cos(X) + 2.0 * np.cos(Y))
               + 2.0 * np.cos(X + Y) + 2.0 * np.cos(X - Y) - 12.0) / (3.0 * dx * dx)
        np.testing.assert_allclose(lap, lam * f, rtol=0, atol=1e-9 * abs(lam))

    def test_matches_loop_oracle(self):
        a = np.random.default_rng(7).normal(size=(9, 6))
        lap = laplacian2d(wrapped(a), 0.03)
        np.testing.assert_allclose(lap, R.naive_laplacian9(a, 0.03), rtol=1e-12)

    @pytest.mark.parametrize("shape", [(3, 3), (3, 8), (8, 3)])
    def test_matches_roll_formulas_bitwise(self, shape):
        a = np.random.default_rng(41).normal(size=shape)
        np.testing.assert_array_equal(laplacian2d(wrapped(a), 0.03),
                                      R.roll_laplacian9(a, 0.03))

    def test_translation_equivariance_bitwise(self):
        a = np.random.default_rng(11).normal(size=(10, 10))
        lap = laplacian2d(wrapped(a), 0.5)
        for shift in [(1, 0), (0, 1), (3, -2)]:
            rolled = np.roll(a, shift, axis=(0, 1))
            np.testing.assert_array_equal(
                laplacian2d(wrapped(rolled), 0.5), np.roll(lap, shift, axis=(0, 1))
            )

    def test_square_symmetry_equivariance_bitwise(self):
        # the stencil commutes with every symmetry of the square, bitwise,
        # because neighbor contributions are grouped in opposite pairs
        a = np.random.default_rng(13).normal(size=(8, 8))
        lap = laplacian2d(wrapped(a), 0.5)
        images = [np.rot90(a, k) for k in range(4)]
        images += [np.rot90(a.T, k) for k in range(4)]
        expected = [np.rot90(lap, k) for k in range(4)]
        expected += [np.rot90(lap.T, k) for k in range(4)]
        for img, exp in zip(images, expected):
            np.testing.assert_array_equal(laplacian2d(wrapped(img), 0.5), exp)


def fsum_area(a, dx=0.03):
    return math.fsum(a.ravel().tolist()) * dx * dx


ADVERSARIAL_SHAPES = [(3, 3), (3, 5), (7, 9), (15, 17), (31, 33), (40, 50)]


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

    # fields whose float sum of the extraction's remainder cannot settle the
    # rounded total, so lattice_sum falls to math.fsum of the cells
    @pytest.mark.parametrize("shape", ADVERSARIAL_SHAPES)
    @pytest.mark.parametrize("nudge", [0.0, math.ldexp(1.0, -200), -math.ldexp(1.0, -200)])
    def test_rounding_midpoint(self, shape, nudge):
        # 1 + 2**-53 is halfway between 1 and the next float: it rounds to
        # even (1), and any nudge decides the other way or keeps it
        a = np.zeros(shape)
        a[0, 0], a[-1, -1], a[1, 2] = 1.0, math.ldexp(1.0, -53), nudge
        expected = fsum_area(a)
        assert lattice_sum(Field(a, 0.03)) == expected
        assert lattice_sum(Field(-a, 0.03)) == -expected

    @pytest.mark.parametrize("shape", ADVERSARIAL_SHAPES)
    def test_all_subnormal(self, shape):
        # the certified error bound underflows to 0 here
        rng = np.random.default_rng(31)
        a = rng.integers(-2**52 + 1, 2**52, size=shape) * math.ldexp(1.0, -1074)
        assert np.all(np.abs(a) < np.finfo(float).smallest_normal)
        assert lattice_sum(Field(a, 0.03)) == fsum_area(a)

    @pytest.mark.parametrize("shape", [*ADVERSARIAL_SHAPES, (300, 300)])
    @pytest.mark.parametrize("value", [1.0, -1.0, 0.75, math.ldexp(1.0, -1070)])
    def test_single_nonzero_cell(self, shape, value):
        # on 300 x 300 cells the bound spans the float below 1.0
        a = np.zeros(shape)
        a[shape[0] // 2, shape[1] // 3] = value
        assert lattice_sum(Field(a, 0.03)) == fsum_area(a) == value * 0.03 * 0.03

    def test_every_sum_of_a_noisy_run_settles_in_the_certified_pass(self, monkeypatch):
        # a noisy 128 x 128 run sampled at every step: math.fsum, as lattice
        # sees it, only ever rounds the pass's two-term totals, and never
        # receives the cells
        calls = []

        def recording(values):
            calls.append(isinstance(values, np.ndarray))
            return math.fsum(values)

        seen = types.SimpleNamespace(**{**vars(math), "fsum": recording})
        monkeypatch.setattr(lattice, "math", seen)
        p = SimParams(nx=128, ny=128, total_steps=100, noise_amp=0.01, rng_seed=3,
                      diagnostics_every=1, snapshot_every=100)
        _, records = run(p)
        assert len(records) == 101
        assert calls and not any(calls)

    @pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
    def test_cell_count_one_below_a_power_of_two(self, k):
        # n = 2**(2k) - 1 cells of 1.0, one of them raised by half an ulp of
        # their sum: a midpoint, which rounds to the even n
        n = 4**k - 1
        a = np.ones((2**k - 1, 2**k + 1))
        a[0, 0] += math.ldexp(1.0, 2 * k - 54)
        assert lattice_sum(Field(a, 1.0)) == fsum_area(a, 1.0) == n
        assert lattice_sum(Field(-a, 1.0)) == fsum_area(-a, 1.0) == -n
