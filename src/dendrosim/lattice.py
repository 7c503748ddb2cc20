"""Periodic 2D scalar fields and the discrete stencil operators built on them.

Fields are stored as C-contiguous float64 arrays of shape (nx, ny): the first
index is x, the second (fast) index is y.  All operators wrap periodically.
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
        if not 0.0 < self.dx < math.inf:
            raise ValueError(f"cell spacing must be positive and finite, got dx={self.dx}")

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


def periodic_pad(a: np.ndarray) -> np.ndarray:
    """(nx+2, ny+2) copy of `a` with a one-cell periodic border.

    Cell (i, j) of `a` is cell (i+1, j+1) of the copy, so the neighbour at
    (i+di, j+dj) of every cell is the slice view [1+di : nx+1+di, 1+dj : ny+1+dj].
    """
    nx, ny = a.shape
    out = np.empty((nx + 2, ny + 2), dtype=a.dtype)
    out[1:-1, 1:-1] = a
    out[0, 1:-1] = a[-1]
    out[-1, 1:-1] = a[0]
    out[:, 0] = out[:, -2]
    out[:, -1] = out[:, 1]
    return out


Box = tuple[slice, slice]

_EDGES = (np.s_[0], np.s_[-1], np.s_[:, 0], np.s_[:, -1])


def nonzero_box(a: np.ndarray, b: np.ndarray) -> Box | None:
    """Smallest (row slice, column slice) box holding every nonzero cell of
    `a` and `b`, or None when both are all zero.

    NaN cells count as nonzero and -0.0 cells as zero.  The four edge lines
    are read first: when each holds a nonzero cell the box is the whole
    array, and no other cell is read.
    """
    nx, ny = a.shape
    if all(a[e].any() or b[e].any() for e in _EDGES):
        return slice(0, nx), slice(0, ny)
    live = (a != 0.0) | (b != 0.0)
    rows = np.flatnonzero(live.any(axis=1))
    if rows.size == 0:
        return None
    cols = np.flatnonzero(live.any(axis=0))
    return slice(int(rows[0]), int(rows[-1]) + 1), slice(int(cols[0]), int(cols[-1]) + 1)


# How far past the box of the nonzero phi and T cells a window reaches for
# the work on it to give the whole grid's bits.  A new value depends on cells
# at most 2 away (stencils of stencils), so every cell further out holds
# +-0.0 with zero gradients and updates to +0.0.  The third cell is for the
# wrap at the window's edge: there a stencil reads the far side of the
# window where the grid reads the next cell out.  Both hold +-0.0, but a
# -0.0 can turn the angle of a zero gradient from 0 to pi and so change
# eps^2 in the last bit; 3 cells out, that eps^2 meets only zero gradients
# of phi.
REACH = 3


def widen(box: Box | None, shape: tuple[int, int], reach: int) -> Box:
    """`box` widened by `reach` cells on each side, within a grid of `shape`.

    An axis along which the widened box would wrap past the grid's edge gets
    its full extent, so the window never wraps, and when both axes are full
    that is the whole grid.  No box (an all-zero grid) gives the 3x3 window
    at the origin, the smallest a Field holds.
    """
    if box is None:
        return slice(0, 3), slice(0, 3)
    return tuple(
        slice(0, n) if s.start < reach or s.stop > n - reach
        else slice(s.start - reach, s.stop + reach)
        for s, n in zip(box, shape)
    )


def embed(a: np.ndarray, shape: tuple[int, int], window: tuple[slice, slice]) -> np.ndarray:
    """`a` written at `window` into zeros of `shape`; `a` itself if it fills `shape`."""
    if a.shape == shape:
        return a
    out = np.zeros(shape)
    out[window] = a
    return out


def gradient_arrays(a: np.ndarray, dx: float, mode: str) -> tuple[np.ndarray, np.ndarray]:
    """Periodic central differences (df/dx, df/dy) on a raw array; see
    `divisors` for the two modes."""
    div = divisors(dx, mode)
    h = periodic_pad(a)
    gx = (h[2:, 1:-1] - h[:-2, 1:-1]) / div
    gy = (h[1:-1, 2:] - h[1:-1, :-2]) / div
    return gx, gy


def laplacian9_arrays(a: np.ndarray, dx: float) -> np.ndarray:
    """Nine-point Laplacian [edges 2, diagonals 1, center -12] / (3 dx^2).

    Neighbor contributions are accumulated in opposite-pair order, which
    keeps the stencil bitwise equivariant under the square's symmetries (pair
    sums only swap or commute under D4).
    """
    h = periodic_pad(a)
    xp = h[2:, 1:-1]
    xm = h[:-2, 1:-1]
    yp = h[1:-1, 2:]
    ym = h[1:-1, :-2]
    pp = h[2:, 2:]
    mm = h[:-2, :-2]
    pm = h[2:, :-2]
    mp = h[:-2, 2:]
    return (2.0 * ((xp + xm) + (yp + ym)) + ((pp + mm) + (pm + mp)) - 12.0 * a) / (3.0 * dx * dx)


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
