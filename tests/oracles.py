"""Independent oracles used by the test suite.

These deliberately re-derive quantities through a different route than the
library: the smoothness coefficients via Newton-form interpolation and
Gauss quadrature of the defining integral, divided differences via the
textbook recursion, and the switching scale via a scalar node-by-node
transcription.  None of them import the vectorized production kernels they
are checking.

The take-based quadrant kernel, quadrant weight and trust-mask ring below
are the earlier production forms, kept as bitwise references: they
evaluate all eight betas per node from whole-grid ``np.take`` shifted
copies, with the same floating-point operations in the same order.  The
shift applies the boundary rule through index arrays, a path of its own
next to the library's ghost padding.  ``swapped_slot_differences`` is the
eight-call form of the switching scale's slot differences, the bitwise
reference for the library's closed form.  ``scan_max_abs`` is the
sampled interval maximum that every hamiltonian's closed-form speed
bounds (``alpha_p``/``alpha_q``) must reproduce bitwise.
"""
from __future__ import annotations

import math

import numpy as np
from numpy.polynomial import polynomial as npoly

from hjaf.grids import BoundaryCondition, GridField, ghost_value

GAUSS_NODES, GAUSS_WEIGHTS = np.polynomial.legendre.leggauss(3)

QUADRANT_SIGNS = {"--": (-1, -1), "+-": (1, -1), "-+": (-1, 1), "++": (1, 1)}


def divided_difference(nodes, values):
    """Textbook recursive divided difference over arbitrary nodes."""
    if len(nodes) == 1:
        return float(values[0])
    lo = divided_difference(nodes[:-1], values[:-1])
    hi = divided_difference(nodes[1:], values[1:])
    return (hi - lo) / (nodes[-1] - nodes[0])


def newton_coefficients(nodes, values):
    return [divided_difference(nodes[: k + 1], values[: k + 1])
            for k in range(len(nodes))]


def _power_matrix(xs, ys, vals):
    """Power-basis coefficient matrix C[p, q] of the Newton-form tensor
    interpolant on ordered nodes xs x ys."""
    cx = np.array([newton_coefficients(xs, vals[:, m]) for m in range(len(ys))]).T
    cxy = np.array([newton_coefficients(ys, cx[t, :]) for t in range(len(xs))])
    bx = [np.array([1.0])]
    for x0 in xs[:-1]:
        bx.append(npoly.polymul(bx[-1], np.array([-x0, 1.0])))
    by = [np.array([1.0])]
    for y0 in ys[:-1]:
        by.append(npoly.polymul(by[-1], np.array([-y0, 1.0])))
    C = np.zeros((len(xs), len(ys)))
    for t in range(len(xs)):
        for s in range(len(ys)):
            block = np.outer(bx[t], by[s]) * cxy[t, s]
            C[: block.shape[0], : block.shape[1]] += block
    return C


def _stencil_offsets(z1, z2, k):
    if k == 0:
        return (z1, 0, -z1), (z2, 0, -z2)
    return (0, z1, 2 * z1), (0, z2, 2 * z2)


def beta_quadrature_both(field: GridField, i: int, j: int, zeta: str,
                         k: int) -> tuple[float, float]:
    """Direct evaluation of the quadrant smoothness coefficient: interpolate
    in Newton form, differentiate exactly, integrate the scaled squared
    derivatives with 3-point Gauss per axis (exact for the degree).

    Returns (full sum over total order >= 2, restriction to total order 2).
    """
    z1, z2 = QUADRANT_SIGNS[zeta]
    g = field.grid
    ax, ay = _stencil_offsets(z1, z2, k)
    xs = [a * g.dx for a in ax]
    ys = [b * g.dy for b in ay]
    vals = np.array([[ghost_value(field, j + a, i + b) for b in ay] for a in ax])
    C = _power_matrix(xs, ys, vals)

    x_lo, x_hi = (z1 * g.dx, 0.0) if z1 < 0 else (0.0, z1 * g.dx)
    y_lo, y_hi = (z2 * g.dy, 0.0) if z2 < 0 else (0.0, z2 * g.dy)
    xq = 0.5 * (x_hi - x_lo) * GAUSS_NODES + 0.5 * (x_hi + x_lo)
    yq = 0.5 * (y_hi - y_lo) * GAUSS_NODES + 0.5 * (y_hi + y_lo)
    jac = 0.25 * (x_hi - x_lo) * (y_hi - y_lo)

    total_full = total_part = 0.0
    for a1 in range(3):
        for a2 in range(3):
            if a1 + a2 < 2:
                continue
            D = C.copy()
            for _ in range(a1):
                D = D[1:, :] * np.arange(1, D.shape[0])[:, None]
            for _ in range(a2):
                D = D[:, 1:] * np.arange(1, D.shape[1])[None, :]
            vx = np.vander(xq, D.shape[0], increasing=True)
            vy = np.vander(yq, D.shape[1], increasing=True)
            pv = vx @ D @ vy.T
            term = (g.dx ** (2 * (a1 - 1)) * g.dy ** (2 * (a2 - 1))
                    * np.einsum("i,j,ij->", GAUSS_WEIGHTS, GAUSS_WEIGHTS, pv ** 2)
                    * jac)
            total_full += term
            if a1 + a2 == 2:
                total_part += term
    return total_full, total_part


def beta_quadrature(field: GridField, i: int, j: int, zeta: str, k: int,
                    full: bool = True) -> float:
    both = beta_quadrature_both(field, i, j, zeta, k)
    return both[0] if full else both[1]


def scalar_switching_integrand(field: GridField, H, h_mono, dt: float,
                               K: float, i: int, j: int) -> float:
    """Node-by-node transcription of the switching-scale integrand,
    independent of the vectorized implementation.  ``h_mono`` is a scalar
    callable (x, y, pm, pp, qm, qp)."""
    g = field.grid
    dx, dy = g.dx, g.dy
    x = g.x0 + j * dx
    y = g.y0 + i * dy

    def u(dj=0, di=0):
        return ghost_value(field, j + dj, i + di)

    pm = (u() - u(-1, 0)) / dx
    pp = (u(1, 0) - u()) / dx
    qm = (u() - u(0, -1)) / dy
    qp = (u(0, 1) - u()) / dy
    pc, qc = 0.5 * (pm + pp), 0.5 * (qm + qp)
    d2x = (u(1, 0) - 2 * u() + u(-1, 0)) / dx ** 2
    d2y = (u(0, 1) - 2 * u() + u(0, -1)) / dy ** 2
    dxy = (u(1, 1) - u(-1, 1) - u(1, -1) + u(-1, -1)) / (4 * dx * dy)

    hp = float(H.dp(x, y, pc, qc))
    hq = float(H.dq(x, y, pc, qc))
    hx = float(H.dx_(x, y, pc, qc))
    hy = float(H.dy_(x, y, pc, qc))
    bracket = hp * (hx + hp * d2x) + hq * (hy + hq * d2y) + 2 * hp * hq * dxy

    hp_plus = h_mono(x, y, pc, pp, qc, qc) - h_mono(x, y, pc, pm, qc, qc)
    hp_minus = h_mono(x, y, pp, pc, qc, qc) - h_mono(x, y, pm, pc, qc, qc)
    hq_plus = h_mono(x, y, pc, pc, qc, qp) - h_mono(x, y, pc, pc, qc, qm)
    hq_minus = h_mono(x, y, pc, pc, qp, qc) - h_mono(x, y, pc, pc, qm, qc)

    return K * abs(0.5 * dt * bracket + (hp_plus - hp_minus)
                   + (hq_plus - hq_minus))


def swapped_slot_differences(h, pm, pp, qm, qp):
    """(p-slot, q-slot) differences of a monotone hamiltonian
    ``h(pm, pp, qm, qp)`` by eight calls: each slot in turn swapped
    between the forward and the backward slope, every other slot at the
    centered slope."""
    pc, qc = 0.5 * (pm + pp), 0.5 * (qm + qp)
    hp_plus = h(pc, pp, qc, qc) - h(pc, pm, qc, qc)
    hp_minus = h(pp, pc, qc, qc) - h(pm, pc, qc, qc)
    hq_plus = h(pc, pc, qc, qp) - h(pc, pc, qc, qm)
    hq_minus = h(pc, pc, qp, qc) - h(pc, pc, qm, qc)
    return hp_plus - hp_minus, hq_plus - hq_minus


def scan_max_abs(deriv, x, y, lo, hi, other, other_is_q: bool) -> np.ndarray:
    """max of |deriv| over 33 equispaced points of the interval [lo, hi] of
    one slope, the other slope frozen at ``other``.  The interval maximum
    whenever |deriv| is monotone or convex on it, up to the rounding of
    the sample points."""
    t = np.linspace(0.0, 1.0, 33)
    t = t.reshape((-1,) + (1,) * np.ndim(lo))
    points = lo + t * (hi - lo)
    if other_is_q:
        vals = np.abs(deriv(x, y, points, other))
    else:
        vals = np.abs(deriv(x, y, other, points))
    return vals.max(axis=0)


def scan_bounds(H):
    """(alpha_p, alpha_q) interval-bound closures of H by the sampled scan."""
    return (lambda x, y, lo, hi, other:
            scan_max_abs(H.dp, x, y, lo, hi, other, other_is_q=True),
            lambda x, y, lo, hi, other:
            scan_max_abs(H.dq, x, y, lo, hi, other, other_is_q=False))


def undiv_diff_1d(samples, k: int) -> float:
    """Order-k undivided difference of k+1 samples at consecutive nodes:
    the k-th forward difference, i.e. the divided difference rescaled by
    ``k! * dx**k``, the form the closed-form betas are written in."""
    samples = np.asarray(samples, dtype=np.float64)
    if samples.size == 0:
        raise ValueError("empty sample sequence")
    if k < 0:
        raise ValueError(f"order must be nonnegative, got {k}")
    if samples.size != k + 1:
        raise ValueError(f"order {k} needs {k + 1} samples, got {samples.size}")
    coeffs = np.array([math.comb(k, m) * (-1) ** (k - m) for m in range(k + 1)],
                      dtype=np.float64)
    return float(coeffs @ samples)


def undiv_diff_2d(block, t: int, s: int) -> float:
    """Mixed undivided difference of order t along axis 0 and s along
    axis 1."""
    block = np.asarray(block, dtype=np.float64)
    if block.shape != (t + 1, s + 1):
        raise ValueError(f"expected block of shape {(t + 1, s + 1)}, got {block.shape}")
    rows = np.array([undiv_diff_1d(block[:, c], t) for c in range(s + 1)])
    return undiv_diff_1d(rows, s)


def recursive_divided_2d(xs, ys, block):
    """Classical 2D divided difference: recursion in x per y-node row,
    then recursion in y of the results."""
    row = [divided_difference(xs, block[:, m]) for m in range(len(ys))]
    return divided_difference(ys, np.array(row))


# Closed-form coefficients (c21, c22), FULL and PARTIAL.
_BETA_COEFFS = {True: (17.0 / 12.0, 857.0 / 720.0),
                False: (5.0 / 12.0, 17.0 / 720.0)}


def _beta_from_diffs(u20, u02, u11, u21, u12, u22, dxdy, coeffs):
    c21, c22 = coeffs
    v = (u20 ** 2 + u02 ** 2 + u11 ** 2
         + c21 * (u21 ** 2 + u12 ** 2) + c22 * u22 ** 2
         + u20 * u21 + u02 * u12
         - (u20 + u02) * u22 / 6.0
         - (u21 + u12) * u22 / 12.0)
    return v / dxdy


def take_shift(field: GridField, dj: int = 0, di: int = 0) -> np.ndarray:
    """Whole-grid copy of ``u[i + di, j + dj]`` for a 2D field: out-of-range
    indices wrap (periodic) or clip to the edge (Neumann) in ``np.take``."""
    mode = "wrap" if field.bc is BoundaryCondition.PERIODIC else "clip"
    ny, nx = field.values.shape
    out = field.values
    if di != 0:
        out = np.take(out, np.arange(ny) + di, axis=0, mode=mode)
    if dj != 0:
        out = np.take(out, np.arange(nx) + dj, axis=1, mode=mode)
    return out


def take_stencils(field: GridField) -> dict[str, tuple[np.ndarray, ...]]:
    """The whole-grid difference stencils of the monotone and high-order
    schemes, over ``take_shift`` copies and in the library's operand
    order."""
    u = field.values
    dx, dy = field.grid.dx, field.grid.dy
    s = {(dj, di): take_shift(field, dj, di)
         for dj in range(-2, 3) for di in range(-2, 3)}
    return {
        "one_sided": ((u - s[-1, 0]) / dx, (s[1, 0] - u) / dx,
                      (u - s[0, -1]) / dy, (s[0, 1] - u) / dy),
        "centered": ((s[1, 0] - s[-1, 0]) / (2.0 * dx),
                     (s[0, 1] - s[0, -1]) / (2.0 * dy)),
        "second": ((s[1, 0] - 2.0 * u + s[-1, 0]) / dx ** 2,
                   (s[0, 1] - 2.0 * u + s[0, -1]) / dy ** 2),
        "cross": ((s[1, 1] - s[-1, 1] - s[1, -1] + s[-1, -1]) / (4.0 * dx * dy),),
        "fourth": ((s[-2, 0] - 8.0 * s[-1, 0] + 8.0 * s[1, 0] - s[2, 0]) / (12.0 * dx),
                   (s[0, -2] - 8.0 * s[0, -1] + 8.0 * s[0, 1] - s[0, 2]) / (12.0 * dy)),
    }


def take_quadrant_beta_fields(field: GridField, full: bool = True,
                              ) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """(beta0, beta1) arrays per quadrant: both stencils of every quadrant
    evaluated on the grid itself, from memoized ``take_shift`` copies."""
    coeffs = _BETA_COEFFS[full]
    dxdy = field.grid.dx * field.grid.dy
    cache: dict[tuple[int, int], np.ndarray] = {}

    def shift(dj, di):
        if (dj, di) not in cache:
            cache[dj, di] = take_shift(field, dj, di)
        return cache[dj, di]

    out = {}
    for key, (z1, z2) in QUADRANT_SIGNS.items():
        betas = []
        for k in (0, 1):
            ax, ay = _stencil_offsets(z1, z2, k)
            f = {(a, b): shift(a, b) for a in ax for b in ay}

            def d2x(b):
                return f[(ax[2], b)] - 2.0 * f[(ax[1], b)] + f[(ax[0], b)]

            def d2y(a):
                return f[(a, ay[2])] - 2.0 * f[(a, ay[1])] + f[(a, ay[0])]

            u20 = d2x(ay[0])
            u02 = d2y(ax[0])
            u11 = (f[(ax[1], ay[1])] - f[(ax[0], ay[1])]
                   - f[(ax[1], ay[0])] + f[(ax[0], ay[0])])
            u21 = d2x(ay[1]) - d2x(ay[0])
            u12 = d2y(ax[1]) - d2y(ax[0])
            u22 = d2x(ay[2]) - 2.0 * d2x(ay[1]) + d2x(ay[0])
            betas.append(_beta_from_diffs(u20, u02, u11, u21, u12, u22,
                                          dxdy, coeffs))
        out[key] = (betas[0], betas[1])
    return out


RING = ((1, 0), (1, 1), (0, 1), (-1, 1), (-1, 0), (-1, -1), (0, -1), (1, -1))


def quadrant_min_weight(betas: dict[str, tuple[np.ndarray, np.ndarray]],
                        sigma_h: float) -> np.ndarray:
    """Minimum over the quadrants of the remapped WENO weight
    g(a0 / (a0 + a1)), a_k = 1 / (beta_k + sigma_h)**2, with
    g(w) = 4 w (3/4 - 3/2 w + w^2) on w clamped to [0, 1]."""
    omega = None
    for b0, b1 in betas.values():
        a0 = 1.0 / (b0 + sigma_h) ** 2
        a1 = 1.0 / (b1 + sigma_h) ** 2
        w = np.clip(a0 / (a0 + a1), 0.0, 1.0)
        w = 4.0 * w * (0.75 - 1.5 * w + w * w)
        omega = w if omega is None else np.minimum(omega, w)
    return omega


def shifted_phi_2d(omega: np.ndarray, field: GridField,
                   M: float) -> tuple[np.ndarray, np.ndarray]:
    """Trust mask and untrusted diagnostic, reading the eight ring
    neighbors as float ``take_shift`` copies of the mask."""
    phi = (np.asarray(omega) >= M).astype(np.int8)
    pf = field.like(phi.astype(np.float64))
    ring = [take_shift(pf, dj, di) > 0.5 for dj, di in RING]
    consec = np.zeros(phi.shape, dtype=bool)
    for k in range(len(ring)):
        consec |= ring[k] & ring[(k + 1) % len(ring)]
    return phi, (phi == 0) & ~consec
