"""Periodic 2D scalar fields and the discrete stencil operators built on them.

Fields are stored as C-contiguous float64 arrays of shape (nx, ny): the first
index is x, the second (fast) index is y.  Stencils run on the flat view of a
`halo` copy, whose rows are `pitch` cells long: the neighbours of flat
position t are t +- 1 (y), t +- pitch (x) and both.  A stencil works in valid
mode: it computes at every position of its input whose 8 neighbours lie in
the input, which is the input less `pitch + 1` positions at each end, so its
result is the input less one ring, still at that pitch.  The positions past
the ends of the rows hold values of no cell; `cell_view` drops them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

PAPER_CODE = "paper_code"
CENTERED = "centered"
DIVISOR_MODES = (PAPER_CODE, CENTERED)


@dataclass(frozen=True)
class Field:
    """Scalar values on a periodic nx-by-ny lattice of square cells of side dx."""

    data: np.ndarray
    dx: float

    def __post_init__(self):
        object.__setattr__(self, "data", np.ascontiguousarray(self.data, dtype=np.float64))
        if self.data.ndim != 2 or min(self.data.shape) < 3:
            raise ValueError(
                f"grid extents must be >= 3, got {'x'.join(map(str, self.data.shape))}"
            )
        if isinstance(self.dx, bool) or not 0.0 < self.dx < math.inf:
            raise ValueError(f"cell spacing must be positive and finite, got dx={self.dx!r}")

    @property
    def nx(self) -> int:
        return self.data.shape[0]

    @property
    def ny(self) -> int:
        return self.data.shape[1]

    @classmethod
    def zeros(cls, nx: int, ny: int, dx: float) -> "Field":
        return cls(np.zeros((nx, ny)), dx)

    def copy(self) -> "Field":
        return Field(self.data.copy(), self.dx)


def divisors(dx: float, mode: str) -> float:
    """Denominator of the central differences for the given divisor mode.

    paper_code divides f(i+1) - f(i-1) by the bare spacing, which doubles the
    usual centered estimate; centered divides by twice the spacing.
    """
    if mode == PAPER_CODE:
        return dx
    if mode == CENTERED:
        return 2.0 * dx
    raise ValueError(f"unknown divisor_mode {mode!r}, expected one of {DIVISOR_MODES}")


def halo(planes, window: tuple[slice, slice], k: int) -> np.ndarray:
    """Copy of `window` of each of `planes` (equal-shape 2-D arrays) with `k`
    rings of its grid neighbours, as one array of shape (len(planes), window
    rows + 2k, window columns + 2k).  It is built from slice copies (cheaper
    than np.pad, and far cheaper than fancy indexing).  The rings wrap only
    on an axis the window spans, so the whole grid is the case where they
    wrap on both; on another axis they must lie in the grid (`widen` sees to
    that), or it is a ValueError."""
    def pieces(s, n):
        lo, hi, _ = s.indices(n)
        if hi - lo == n:  # (start, stop, start in the copy): the last k, all, the first k
            return (n - k, n, 0), (0, n, k), (0, k, n + k)
        if lo < k or hi + k > n:
            raise ValueError(f"a halo of {k} around cells {lo}:{hi} leaves an axis of {n}")
        return ((lo - k, hi + k, 0),)

    shape = planes[0].shape
    rows, cols = (pieces(s, n) for s, n in zip(window, shape))
    out = np.empty([len(planes)] + [len(range(*s.indices(n))) + 2 * k
                                    for s, n in zip(window, shape)])
    for plane, a in zip(out, planes):
        for r0, r1, i in rows:
            for c0, c1, j in cols:
                plane[i:i + r1 - r0, j:j + c1 - c0] = a[r0:r1, c0:c1]
    return out


Box = tuple[slice, slice]

_EDGES = (np.s_[0], np.s_[-1], np.s_[:, 0], np.s_[:, -1])


def nonzero_box(planes) -> Box | None:
    """Smallest (row slice, column slice) box holding every nonzero cell of
    the planes of `planes`, an array of shape (k, nx, ny) or a sequence of
    equal-shape 2-D arrays, or None when they are all zero.

    NaN cells count as nonzero and -0.0 cells as zero.  The four edge lines
    are read first: when each holds a nonzero cell the box is the whole
    plane, and no other cell is read.
    """
    nx, ny = planes[0].shape
    if all(any(p[e].any() for p in planes) for e in _EDGES):
        return slice(0, nx), slice(0, ny)
    live = planes[0] != 0.0
    for p in planes[1:]:
        live |= p != 0.0
    rows = np.flatnonzero(live.any(axis=1))
    if rows.size == 0:
        return None
    cols = np.flatnonzero(live.any(axis=0))
    return slice(int(rows[0]), int(rows[-1]) + 1), slice(int(cols[0]), int(cols[-1]) + 1)


# How far past the box of the nonzero phi and T cells a window reaches, and
# the width of its halo: a new value reads cells at most 2 away (a stencil of
# a stencil), so every cell further out updates to +0.0.
REACH = 2


def widen(box: Box | None, shape: tuple[int, int]) -> Box:
    """`box` widened by REACH cells on each side, within a grid of `shape`.

    An axis where the widened box, with a halo of REACH more cells on each
    side, would pass the grid's edge gets its full extent instead.  So a
    halo wraps only on an axis its window spans, and when both axes are full
    the window is the whole grid.  No box (an all-zero grid) gives a window
    of 3 cells, the least a Field holds, REACH cells from the origin.
    """
    spans = ([(REACH, REACH + 3)] * 2 if box is None
             else [(s.start - REACH, s.stop + REACH) for s in box])
    return tuple(
        slice(lo, hi) if lo >= REACH and hi <= n - REACH else slice(0, n)
        for (lo, hi), n in zip(spans, shape)
    )


def cell_view(a: np.ndarray, pitch: int, cols: int) -> np.ndarray:
    """The cells of `a`, a 1-D span of a padded-row array that starts at a
    cell, as a (rows, cols) view: cell (i, j) is a[i * pitch + j]."""
    rows = (a.size + pitch - cols) // pitch
    return np.ndarray((rows, cols), a.dtype, a, strides=(pitch * a.itemsize, a.itemsize))


def gradient_arrays(f: np.ndarray, pitch: int, dx: float,
                    mode: str) -> tuple[np.ndarray, np.ndarray]:
    """Central differences (df/dx, df/dy) of `f`, rows of `pitch` cells laid
    end to end, in valid mode (see the module docstring); see `divisors`
    for the two modes."""
    div = divisors(dx, mode)
    gx = (f[2 * pitch + 1:-1] - f[1:-2 * pitch - 1]) / div
    gy = (f[pitch + 2:-pitch] - f[pitch:-pitch - 2]) / div
    return gx, gy


def laplacian9_arrays(f: np.ndarray, pitch: int, dx: float) -> np.ndarray:
    """Nine-point Laplacian [edges 2, diagonals 1, center -12] / (3 dx^2) of
    `f`, laid out and in valid mode as gradient_arrays; on a (k, n) `f` it
    is one call for the k fields f[0], ..., f[k - 1].

    Neighbor contributions are accumulated in opposite-pair order, which
    keeps the stencil bitwise equivariant under the square's symmetries (pair
    sums only swap or commute under D4).
    """
    xp, xm = f[..., 2 * pitch + 1:-1], f[..., 1:-2 * pitch - 1]
    yp, ym = f[..., pitch + 2:-pitch], f[..., pitch:-pitch - 2]
    pp, mm = f[..., 2 * pitch + 2:], f[..., :-2 * pitch - 2]
    pm, mp = f[..., 2 * pitch:-2], f[..., 2:-2 * pitch]
    c = f[..., pitch + 1:-pitch - 1]
    return (2.0 * ((xp + xm) + (yp + ym)) + ((pp + mm) + (pm + mp)) - 12.0 * c) / (3.0 * dx * dx)


def lattice_sum(f: Field) -> float:
    """Sum of all cells times the cell area dx^2; the cell sum is correctly rounded.

    The cell sum is the float64 nearest the exact sum of the n cells, as
    math.fsum gives it, so it is the same on every numpy build and for any
    order of the cells.  It is found by error-free extraction (Rump, Ogita and
    Oishi, "Accurate floating-point summation", SIAM J. Sci. Comput. 31,
    2008): each pass splits the remaining cells r into q + (r - q), where q is
    r rounded to a multiple of the ulp of sigma, a power of two at least
    (n + 2) max|r|.  The n values q then sum exactly in any order.  The passes
    stop when the remainder, whose sum is smaller than sigma, can no longer
    change the rounded total.

    A field holding NaN or inf is summed by numpy, so NaN and inf propagate.
    So is a field with a cell within a factor 4(n + 2) of float64 overflow,
    where sigma itself would overflow; only there is the cell sum not
    correctly rounded.
    """
    r = f.data.ravel()
    top = float(np.max(np.abs(r)))
    scale = (r.size + 1).bit_length()
    if not math.isfinite(top) or math.frexp(top)[1] + scale > 1023:
        return float(np.sum(r)) * f.dx * f.dx
    parts = []
    while top:
        sigma = math.ldexp(1.0, scale + math.frexp(top)[1])
        total = math.fsum(parts)
        # rounding is monotone and |sum(r)| < sigma
        if math.fsum(parts + [sigma]) == total == math.fsum(parts + [-sigma]):
            break
        q = r + sigma
        q -= sigma
        parts.append(float(np.sum(q)))
        r = r - q
        top = float(np.max(np.abs(r)))
    return math.fsum(parts) * f.dx * f.dx
