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
    rings of its periodic grid neighbours, as one array of shape
    (len(planes), window rows + 2k, window columns + 2k): along an axis of n
    cells and window lo:hi, the copy holds cells lo - k ... hi + k - 1 mod n.
    It is built from slice copies, one per run of cells that does not wrap
    (cheaper than np.pad, and far cheaper than fancy indexing)."""
    def runs(s, n):
        # (first cell, past its last, offset in the copy) of each run
        lo, hi, _ = s.indices(n)
        c = lo - k
        while c < hi + k:
            stop = min(c - c % n + n, hi + k)  # the next wrap, or the end
            yield c % n, c % n + stop - c, c - lo + k
            c = stop

    shape = planes[0].shape
    rows, cols = (list(runs(s, n)) for s, n in zip(window, shape))
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

    An axis where the widened box would leave the grid gets its full extent
    instead, so when both axes are full the window is the whole grid.  No
    box (an all-zero grid) gives the 3-by-3 window at the origin, the least
    a Field holds.
    """
    spans = ([(0, 3)] * 2 if box is None
             else [(s.start - REACH, s.stop + REACH) for s in box])
    return tuple(
        slice(lo, hi) if lo >= 0 and hi <= n else slice(0, n)
        for (lo, hi), n in zip(spans, shape)
    )


def inset(pitch: int) -> slice:
    """Slice of a flat array at `pitch` that drops its outer ring: the
    positions of `f` that a stencil's result on `f` holds."""
    return slice(pitch + 1, -pitch - 1)


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
    order of the cells.  One pass of error-free extraction (Rump, Ogita and
    Oishi, "Accurate floating-point summation", SIAM J. Sci. Comput. 31,
    2008) splits the cells r into q + (r - q), where q is r rounded to a
    multiple of the ulp of sigma, a power of two at least (n + 2) max|r|.
    The n values q then sum exactly in any order, to part.

    The remainder's cells are at most ulp(sigma) / 2 = sigma 2**-53 in size,
    so numpy's float sum s of them, in whatever order and pairing its loops
    take, is within (n - 1) u n sigma 2**-53 of their exact sum (u = 2**-53;
    the classical bound, with a factor (1 - (n - 1) u) below it, is inside
    the same margin).  err = n^2 sigma 2**-104 is at least four times that,
    which also covers the rounding of s -+ err.  Rounding is monotone, so
    when part plus s - err and plus s + err round to the same float, so does
    the exact total, and that float is the cell sum.  Otherwise (a total at
    or next to a rounding midpoint, or an err that underflows to 0) the cell
    sum is math.fsum of the cells, which takes some 20 times as long as the
    pass.  Over the benchmark's configurations and four desk and default
    preset runs, 1 of 2830 nonzero fields took that way.

    A field holding NaN or inf is summed by numpy, so NaN and inf propagate.
    So is a field with a cell within a factor 4(n + 2) of float64 overflow,
    where sigma itself would overflow; only there is the cell sum not
    correctly rounded.
    """
    r = f.data.ravel()
    top = float(max(r.max(), -r.min()))  # max |r|, NaN if r holds one
    scale = (r.size + 1).bit_length()
    if not math.isfinite(top) or math.frexp(top)[1] + scale > 1023:
        return float(np.sum(r)) * f.dx * f.dx
    if not top:
        return 0.0
    k = scale + math.frexp(top)[1]
    sigma = math.ldexp(1.0, k)
    q = r + sigma
    q -= sigma
    part = float(np.sum(q))
    rest = np.subtract(r, q, out=q)  # into q, not the field's cells
    s, err = float(np.sum(rest)), math.ldexp(r.size * r.size, k - 104)
    total = math.fsum([part, s - err])
    if err and total == math.fsum([part, s + err]):
        return total * f.dx * f.dx
    return math.fsum(r) * f.dx * f.dx
