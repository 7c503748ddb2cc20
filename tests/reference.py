"""Naive reference implementations used as oracles by the test suite.

Everything here favors obviousness over speed: plain Python loops and
textbook formulas, sharing no code with the package internals.
"""

import math

import numpy as np


def wrap(i, n):
    while i < 0:
        i += n
    while i >= n:
        i -= n
    return i


def naive_gradient(a, dx, dy, paper_divisor):
    """Periodic central differences by explicit loops."""
    nx, ny = a.shape
    gx = np.zeros_like(a)
    gy = np.zeros_like(a)
    ddx = dx if paper_divisor else 2.0 * dx
    ddy = dy if paper_divisor else 2.0 * dy
    for i in range(nx):
        for j in range(ny):
            gx[i, j] = (a[wrap(i + 1, nx), j] - a[wrap(i - 1, nx), j]) / ddx
            gy[i, j] = (a[i, wrap(j + 1, ny)] - a[i, wrap(j - 1, ny)]) / ddy
    return gx, gy


def naive_laplacian9(a, dx):
    """Nine-point stencil [edges 2, diagonals 1, center -12] / (3 dx^2)."""
    nx, ny = a.shape
    out = np.zeros_like(a)
    for i in range(nx):
        for j in range(ny):
            ip, im = wrap(i + 1, nx), wrap(i - 1, nx)
            jp, jm = wrap(j + 1, ny), wrap(j - 1, ny)
            out[i, j] = (
                2.0 * (a[ip, j] + a[im, j] + a[i, jp] + a[i, jm])
                + a[ip, jp] + a[ip, jm] + a[im, jp] + a[im, jm]
                - 12.0 * a[i, j]
            ) / (3.0 * dx * dx)
    return out


def naive_sequential_sum(a, dx, dy):
    """Plain left-to-right raster accumulation."""
    total = 0.0
    for i in range(a.shape[0]):
        for j in range(a.shape[1]):
            total += float(a[i, j])
    return total * dx * dy


def stencil_symbol_min(dx, n=721):
    """Most negative eigenvalue of the nine-point stencil over Fourier modes.

    The symbol at wavenumbers (X, Y) in [0, pi]^2 follows from substituting
    plane waves into the stencil.
    """
    X = np.linspace(0.0, np.pi, n)[:, None]
    Y = np.linspace(0.0, np.pi, n)[None, :]
    sym = (
        2.0 * (2.0 * np.cos(X) + 2.0 * np.cos(Y))
        + 2.0 * np.cos(X + Y) + 2.0 * np.cos(X - Y)
        - 12.0
    ) / (3.0 * dx * dx)
    return float(sym.min())


def disk_cells(r_sq, n=51):
    """Integer lattice points of the open disk about (n//2, n//2).

    Returns (count, farthest on-axis offset); n only needs to exceed the disk.
    """
    c = n // 2
    count = 0
    max_axis = 0
    for i in range(n):
        for j in range(n):
            if (i - c) ** 2 + (j - c) ** 2 < r_sq:
                count += 1
                if j == c:
                    max_axis = max(max_axis, abs(i - c))
    return count, max_axis


def branchy_angle(gx, gy):
    """Quadrant-branch arctangent as circulated reference codes write it.

    Unhandled cases (both components zero, or gy = 0 with gx > 0) fall through
    to 0.
    """
    if gx == 0.0:
        if gy < 0.0:
            return -0.5 * math.pi
        if gy > 0.0:
            return 0.5 * math.pi
        return 0.0
    if gx > 0.0:
        if gy < 0.0:
            return 2.0 * math.pi + math.atan(gy / gx)
        if gy > 0.0:
            return math.atan(gy / gx)
        return 0.0
    return math.pi + math.atan(gy / gx)


def naive_nonzero_box(a, b):
    """Bounding box of the cells where a or b is nonzero, as (row slice,
    column slice), or None; NaN counts as nonzero and -0.0 as zero."""
    cells = np.argwhere((a != 0.0) | (b != 0.0))
    if cells.size == 0:
        return None
    lo, hi = cells.min(axis=0), cells.max(axis=0) + 1
    return slice(int(lo[0]), int(hi[0])), slice(int(lo[1]), int(hi[1]))


def naive_window(a, b, reach):
    """naive_nonzero_box widened by reach cells on each side; an axis whose
    widened span would leave the grid takes the whole axis, and no box gives
    the 3-cell span at the origin on each axis."""
    box = naive_nonzero_box(a, b)
    window = []
    for axis, n in enumerate(a.shape):
        if box is None:
            lo, hi = 0, 3
        else:
            lo, hi = box[axis].start - reach, box[axis].stop + reach
        window.append(slice(0, n) if lo < 0 or hi > n else slice(lo, hi))
    return tuple(window)


def reference_step(phi, temp, p, dx, dt, paper_divisor=True, replicate_bug=False, chi=None):
    """One explicit update of the coupled equations, written longhand.

    p is any object with eps_bar, delta, j_mode, theta0, alpha, gamma, t_eq,
    latent_heat, tau, noise_amp attributes.  Returns (phi_new, temp_new).
    """
    nx, ny = phi.shape
    gx, gy = naive_gradient(phi, dx, dx, paper_divisor)
    lap_phi = naive_laplacian9(phi, dx)
    lap_t = naive_laplacian9(temp, dx)

    theta = np.zeros_like(phi)
    eps = np.zeros_like(phi)
    epsp = np.zeros_like(phi)
    for i in range(nx):
        for j in range(ny):
            th = math.atan2(gy[i, j], gx[i, j])
            theta[i, j] = th
            u = p.j_mode * (th - p.theta0)
            eps[i, j] = p.eps_bar * (1.0 + p.delta * math.cos(u))
            epsp[i, j] = -p.eps_bar * p.j_mode * p.delta * math.sin(u)

    eps2 = eps * eps
    ge2x, ge2y = naive_gradient(eps2, dx, dx, paper_divisor)
    if replicate_bug:
        ge2x = np.full_like(ge2x, ge2x[nx - 1, ny - 1])
        ge2y = np.full_like(ge2y, ge2y[nx - 1, ny - 1])

    ddx = dx if paper_divisor else 2.0 * dx
    phi_new = np.zeros_like(phi)
    temp_new = np.zeros_like(temp)
    for i in range(nx):
        for j in range(ny):
            ip, im = wrap(i + 1, nx), wrap(i - 1, nx)
            jp, jm = wrap(j + 1, ny), wrap(j - 1, ny)
            term1 = (eps[i, jp] * epsp[i, jp] * gx[i, jp]
                     - eps[i, jm] * epsp[i, jm] * gx[i, jm]) / ddx
            term2 = -(eps[ip, j] * epsp[ip, j] * gy[ip, j]
                      - eps[im, j] * epsp[im, j] * gy[im, j]) / ddx
            term3 = ge2x[i, j] * gx[i, j] + ge2y[i, j] * gy[i, j]
            m = p.alpha / math.pi * math.atan(p.gamma * (p.t_eq - temp[i, j]))
            rhs = (term1 + term2 + term3
                   + eps2[i, j] * lap_phi[i, j]
                   + phi[i, j] * (1.0 - phi[i, j]) * (phi[i, j] - 0.5 + m))
            if chi is not None:
                rhs += p.noise_amp * phi[i, j] * (1.0 - phi[i, j]) * chi[i, j]
            dphi = rhs * dt / p.tau
            phi_new[i, j] = phi[i, j] + dphi
            temp_new[i, j] = temp[i, j] + dt * lap_t[i, j] + p.latent_heat * dphi
    return phi_new, temp_new


def rolled(a, di, dj):
    """Values at (i+di, j+dj) as np.roll copies, wrapping periodically."""
    out = a
    if di:
        out = np.roll(out, -di, axis=0)
    if dj:
        out = np.roll(out, -dj, axis=1)
    return out


def roll_gradient(a, dx, dy, paper_divisor):
    """Central differences built from np.roll copies, in the package's
    operation order, so equal results are equal bits."""
    xdiv = dx if paper_divisor else 2.0 * dx
    ydiv = dy if paper_divisor else 2.0 * dy
    gx = (rolled(a, 1, 0) - rolled(a, -1, 0)) / xdiv
    gy = (rolled(a, 0, 1) - rolled(a, 0, -1)) / ydiv
    return gx, gy


def roll_laplacian9(a, dx):
    """Nine-point Laplacian built from np.roll copies, neighbours summed in
    opposite pairs as the package sums them."""
    xp = rolled(a, 1, 0)
    xm = rolled(a, -1, 0)
    yp = rolled(a, 0, 1)
    ym = rolled(a, 0, -1)
    pp = rolled(a, 1, 1)
    mm = rolled(a, -1, -1)
    pm = rolled(a, 1, -1)
    mp = rolled(a, -1, 1)
    return (2.0 * ((xp + xm) + (yp + ym)) + ((pp + mm) + (pm + mp)) - 12.0 * a) / (3.0 * dx * dx)


def roll_epsilon(theta, p):
    """eps(theta) and eps'(theta) as whole-array expressions, in the
    package's operation order."""
    u = p.j_mode * (theta - p.theta0)
    eps = p.eps_bar * (1.0 + p.delta * np.cos(u))
    eps_prime = -p.eps_bar * p.j_mode * p.delta * np.sin(u)
    return eps, eps_prime


def roll_free_energy(phi, m, p, dx):
    """Discrete free energy of phi in the bath m, summed with math.fsum.

    Centered gradients, eps taken as the first of (eps, eps') and the well
    density written out with products, all in the package's operation order;
    math.fsum gives the correctly rounded cell sum that the package's
    lattice_sum promises, so equal results are equal bits.
    """
    gx, gy = roll_gradient(phi, dx, dx, paper_divisor=False)
    eps = roll_epsilon(np.arctan2(gy, gx), p)[0]
    p2 = phi * phi
    well = 0.25 * (p2 * p2) - (0.5 - m / 3.0) * (p2 * phi) + (0.25 - 0.5 * m) * p2
    density = well + 0.5 * eps * eps * (gx * gx + gy * gy)
    return math.fsum(density.ravel().tolist()) * dx * dx


def loop_radius_profile(phi):
    """Max solid radius per one-degree sector, one np.maximum.at per sector
    offset: the sector profile as first written, kept as the oracle of the
    package's single-pass _radius_profile.  Solid means phi >= 0.5."""
    solid = phi.data >= 0.5
    nx, ny, dx = phi.nx, phi.ny, phi.dx
    di = np.broadcast_to(np.arange(nx)[:, None] - nx // 2, (nx, ny))
    dj = np.broadcast_to(np.arange(ny)[None, :] - ny // 2, (nx, ny))

    q0 = (di > 0) & (dj >= 0)
    q1 = (dj > 0) & (di <= 0)
    q2 = (di < 0) & (dj <= 0)
    q3 = (dj < 0) & (di >= 0)
    keep = solid & (q0 | q1 | q2 | q3)
    quadrant = np.select([q0, q1, q2, q3], [0, 1, 2, 3], default=0)[keep]
    u = np.select([q0, q1, q2, q3], [di, dj, -di, -dj], default=1)[keep].astype(float)
    v = np.select([q0, q1, q2, q3], [dj, -di, -dj, di], default=0)[keep].astype(float)

    profile = np.zeros(360)
    if u.size == 0:
        return profile
    radius = np.hypot(u * dx, v * dx)
    # folded cells have u >= 1, so all four corners stay in the open right
    # half-plane and corner angles span less than a half turn
    deg = 180.0 / np.pi
    xm, xp = (u - 0.5) * dx, (u + 0.5) * dx
    ym, yp = (v - 0.5) * dx, (v + 0.5) * dx
    c1 = np.arctan2(ym, xm) * deg
    c2 = np.arctan2(ym, xp) * deg
    c3 = np.arctan2(yp, xm) * deg
    c4 = np.arctan2(yp, xp) * deg
    lo = np.floor(np.minimum(np.minimum(c1, c2), np.minimum(c3, c4))).astype(np.int64)
    hi = np.floor(np.maximum(np.maximum(c1, c2), np.maximum(c3, c4))).astype(np.int64)
    base = quadrant * 90 + lo
    span = hi - lo
    for k in range(int(span.max()) + 1):
        mask = span >= k
        np.maximum.at(profile, (base[mask] + k) % 360, radius[mask])
    return profile


def longhand_arm_order(profile):
    """The k in 1..n/2 whose discrete Fourier mode of the n-sector profile is
    the largest in magnitude, the lowest k on a tie.  Each mode's cosine and
    sine sums of r_i·cos(2πki/n) and r_i·sin(2πki/n) are taken with
    math.fsum, so the result does not depend on an FFT's summation order."""
    n = len(profile)
    best_k, best = 0, -1.0
    for k in range(1, n // 2 + 1):
        angles = [2.0 * math.pi * (k * i % n) / n for i in range(n)]
        re = math.fsum(float(r) * math.cos(a) for r, a in zip(profile, angles))
        im = math.fsum(float(r) * math.sin(a) for r, a in zip(profile, angles))
        magnitude = math.hypot(re, im)
        if magnitude > best:
            best_k, best = k, magnitude
    return best_k


def longhand_arm_count(phi, min_swing):
    """arm_count longhand: 0 when the loop-built profile swings less than
    min_swing, else its dominant angular order."""
    profile = loop_radius_profile(phi)
    if profile.max() - profile.min() < min_swing:
        return 0
    return longhand_arm_order(profile)


def roll_step(phi, temp, p, dx, dt, paper_divisor=True, replicate_bug=False, chi=None):
    """One step of the whole-array scheme with every neighbour an np.roll copy.

    The same array expressions in the same order as the package's step, so
    the two agree bit for bit; reference_step is the independent longhand
    check.  Arguments and result as for reference_step.
    """
    gx, gy = roll_gradient(phi, dx, dx, paper_divisor)
    lap_phi = roll_laplacian9(phi, dx)
    lap_t = roll_laplacian9(temp, dx)

    eps, eps_prime = roll_epsilon(np.arctan2(gy, gx), p)
    eps2 = eps * eps
    flux = eps * eps_prime
    qx = flux * gx
    qy = flux * gy

    ge2x, ge2y = roll_gradient(eps2, dx, dx, paper_divisor)
    if replicate_bug:
        ge2x = np.full_like(ge2x, ge2x[-1, -1])
        ge2y = np.full_like(ge2y, ge2y[-1, -1])

    div = dx if paper_divisor else 2.0 * dx
    term1 = (rolled(qx, 0, 1) - rolled(qx, 0, -1)) / div
    term2 = -(rolled(qy, 1, 0) - rolled(qy, -1, 0)) / div
    term3 = ge2x * gx + ge2y * gy
    m = (p.alpha / np.pi) * np.arctan(p.gamma * (p.t_eq - temp))
    rhs = (term1 + term2) + term3 + (eps2 * lap_phi + phi * (1.0 - phi) * (phi - 0.5 + m))
    if chi is not None:
        rhs = rhs + p.noise_amp * phi * (1.0 - phi) * chi
    dphi = rhs * (dt / p.tau)
    phi_new = phi + dphi
    temp_new = temp + dt * lap_t + p.latent_heat * dphi
    return phi_new, temp_new


def rotated90(a, k=1):
    """Periodic rotation about cell (n//2, n//2); also correct on even grids,
    where np.rot90 would pivot about a half-cell point instead."""
    n0, n1 = a.shape
    assert n0 == n1
    c = n0 // 2
    out = np.array(a)
    for _ in range(k % 4):
        ii, jj = np.meshgrid(np.arange(n0), np.arange(n0), indexing="ij")
        src_i = (c + (jj - c)) % n0
        src_j = (c - (ii - c)) % n0
        out = out[src_i, src_j]
    return np.ascontiguousarray(out)


def naive_pgm_bytes(a):
    """Expected binary graymap payload: clamp to [0, 1], round half up,
    top row = highest y index."""
    nx, ny = a.shape
    rows = []
    for j in range(ny - 1, -1, -1):
        row = bytearray()
        for i in range(nx):
            v = min(max(a[i, j], 0.0), 1.0)
            row.append(int(math.floor(v * 255.0 + 0.5)))
        rows.append(bytes(row))
    return b"P5\n%d %d\n255\n" % (nx, ny) + b"".join(rows)
