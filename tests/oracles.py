"""Independent oracles used by the test suite.

These deliberately re-derive quantities through a different route than the
library: the smoothness coefficients via Newton-form interpolation and
Gauss quadrature of the defining integral, divided differences via the
textbook recursion, and the switching scale via a scalar node-by-node
transcription.  None of them import the vectorized production kernels they
are checking.

``swapped_slot_differences`` is the eight-call form of the switching
scale's slot differences: the bitwise reference for the upwind eikonal
form, and for the local Lax-Friedrichs form a comparison within
``eight_call_bounds``, a bound derived from the arithmetic of both forms.
``closed_form_slot_differences`` is the local Lax-Friedrichs closed form
in two speed bounds per slot, in the library's operation order, its
bitwise reference.  ``scan_max_abs`` is the sampled interval maximum that
every hamiltonian's closed-form speed bounds (``alpha_p``/``alpha_q``)
must reproduce bitwise; ``scan_bounds`` orders the endpoints it is given, as
the closed forms need not.  ``broadcasting_hamiltonian`` is a copy of H
whose closures return arrays of their arguments' shape, the earlier
contract every solver call is pinned to bitwise.

``ghost_value`` is the boundary rule applied to one scalar index, the
reference for the library's ghost padding (``hjaf.grids.pad_ghosts``).

``hopf_lax_scan_argmin`` is the dense scan of the Burgers oracle
(``hjaf.problems.hopf_lax_min_1d``) over every column at once, the bitwise
reference for the library's scan in column blocks.

``filter_F`` is the hard-cutoff filter of the blend formula, which the
library's blended step implements as a selection; ``flagged_cells_1d``
reads a 1D trust mask as a report on grid cells.

The ``view_*`` kernels are the 2D-view forms the library used before it
moved to the run layout: every stencil offset is a 2D view of one
``np.pad`` copy, and the operations are the library's, in its order.
They are the bitwise references for the run-layout kernels.
"""
from __future__ import annotations

import dataclasses

import numpy as np
from numpy.polynomial import polynomial as npoly

from hjaf.grids import BoundaryCondition, GridField

# Largest distance past the grid, per side, that ghost_value reads.
GHOST_REACH = 8

GAUSS_NODES, GAUSS_WEIGHTS = np.polynomial.legendre.leggauss(3)

QUADRANT_SIGNS = {"--": (-1, -1), "+-": (1, -1), "-+": (-1, 1), "++": (1, 1)}


def _mapped_index(j: int, n: int, bc: BoundaryCondition) -> int:
    if bc is BoundaryCondition.PERIODIC:
        return j % n
    return min(max(j, 0), n - 1)


def ghost_value(field: GridField, j: int, i: int | None = None) -> float:
    """Value at signed index (j, i), applying the field's boundary rule.

    Indices may run past the grid by at most ``GHOST_REACH`` per side.
    """
    if field.ndim == 1:
        if i is not None:
            raise ValueError("1D field takes a single index")
        n = field.grid.n
        if j < -GHOST_REACH or j >= n + GHOST_REACH:
            raise IndexError(f"index {j} beyond ghost reach of grid with {n} nodes")
        return float(field.values[_mapped_index(j, n, field.bc)])
    if i is None:
        raise ValueError("2D field needs both indices")
    nx, ny = field.grid.nx, field.grid.ny
    if j < -GHOST_REACH or j >= nx + GHOST_REACH:
        raise IndexError(f"x index {j} beyond ghost reach of grid with {nx} nodes")
    if i < -GHOST_REACH or i >= ny + GHOST_REACH:
        raise IndexError(f"y index {i} beyond ghost reach of grid with {ny} nodes")
    jj = _mapped_index(j, nx, field.bc)
    ii = _mapped_index(i, ny, field.bc)
    return float(field.values[ii, jj])


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
    # an H independent of (x, y) has exact-zero H_x, H_y
    hx = float(H.dx_(x, y, pc, qc)) if H.space_dependent else 0.0
    hy = float(H.dy_(x, y, pc, qc)) if H.space_dependent else 0.0
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


def closed_form_slot_differences(H, x, y, pm, pp, qm, qp):
    """(p-slot, q-slot) differences of the local Lax-Friedrichs
    hamiltonian in closed form: -0.5 (fwd - bwd)(alpha(c, fwd) +
    alpha(c, bwd)) per slot, c the centered slope and the other axis
    frozen at its centered slope, in the library's operation order."""
    pc, qc = 0.5 * (pm + pp), 0.5 * (qm + qp)
    return ((pp - pm) * (H.alpha_p(x, y, pc, pp, qc)
                         + H.alpha_p(x, y, pc, pm, qc)) * -0.5,
            (qp - qm) * (H.alpha_q(x, y, qc, qp, pc)
                         + H.alpha_q(x, y, qc, qm, pc)) * -0.5)


UNIT_ROUNDOFF = np.finfo(np.float64).eps / 2


def eight_call_bounds(H, x, y, pm, pp, qm, qp):
    """(p-slot, q-slot) per-node bounds on |eight calls - closed form| for
    the local Lax-Friedrichs hamiltonian, from the arithmetic of the two.

    Per slot, with c the rounded centered slope, s in {fwd, bwd}, E_s = H
    at 0.5*(c + s) and D_s = 0.5*alpha(c, s)*(s - c): the calls h(c, s)
    and h(s, c) share E_s and the bound bitwise and round E_s - D_s and
    E_s + D_s.  The eight calls are 2 (D_bwd - D_fwd) to within 6 u Sigma,
    Sigma = |E_fwd| + |E_bwd| + |D_fwd| + |D_bwd| (four roundings of
    E -+ D, two inner subtractions and the last one), and rounding D_s
    adds 4 u Sigma.  In real arithmetic 2 (D_bwd - D_fwd) is the closed
    form plus delta (alpha(c, fwd) - alpha(c, bwd)), delta = c - (fwd +
    bwd)/2 the rounding of c (|delta| <= u |c|), and the closed form
    rounds three times, <= 3 u (2 Sigma).  So the bound is 16 u Sigma +
    u |c| |alpha_fwd - alpha_bwd|, to first order; the factors 17 and 2
    below cover the second-order terms.  A product that underflows is off
    by up to half the smallest subnormal instead: at most 5 of them, with
    D doubled, and 8 are allowed."""
    pc, qc = 0.5 * (pm + pp), 0.5 * (qm + qp)

    def slot(alpha, c, fwd, bwd, frozen, along_p):
        a_f = alpha(x, y, c, fwd, frozen)
        a_b = alpha(x, y, c, bwd, frozen)
        sigma = 0.0
        for s, a in ((fwd, a_f), (bwd, a_b)):
            mid = 0.5 * (c + s)
            e = H.eval(x, y, mid, frozen) if along_p else H.eval(x, y, frozen, mid)
            sigma = sigma + np.abs(e) + np.abs(0.5 * a * (s - c))
        return (UNIT_ROUNDOFF * (17.0 * sigma + 2.0 * np.abs(c) * np.abs(a_f - a_b))
                + 8 * np.finfo(np.float64).smallest_subnormal)

    return (slot(H.alpha_p, pc, pp, pm, qc, True),
            slot(H.alpha_q, qc, qp, qm, pc, False))


def hopf_lax_scan_argmin(objective, grid, t, xi):
    """Index into ``grid`` of the smallest ``objective(a, t, xi)`` at each
    xi, from one (len(grid), len(xi)) array of every value."""
    return np.argmin(objective(grid[:, None], t, xi[None, :]), axis=0)


def filter_F(rho):
    """Hard-cutoff filter: identity for |rho| <= 1 (boundary included),
    zero outside."""
    rho = np.asarray(rho, dtype=np.float64)
    out = np.where(np.abs(rho) <= 1.0, rho, 0.0)
    return out if out.ndim else float(out)


def flagged_cells_1d(phi: np.ndarray) -> np.ndarray:
    """Cell-interval report: cell (x_j, x_{j+1}) is flagged iff either of
    its endpoint nodes is untrusted.  Length n-1 boolean array."""
    phi = np.asarray(phi)
    return (phi[:-1] == 0) | (phi[1:] == 0)


def scan_max_abs(deriv, x, y, lo, hi, other, other_is_q: bool) -> np.ndarray:
    """max of |deriv| over 33 equispaced points of the interval [lo, hi] of
    one slope, the other slope frozen at ``other``.  The interval maximum
    whenever |deriv| is monotone or convex on it, up to the rounding of
    the sample points.  The closure's value is broadcast to the samples'
    shape, since a closure may return a float or an array of x's shape."""
    t = np.linspace(0.0, 1.0, 33)
    t = t.reshape((-1,) + (1,) * np.ndim(lo))
    points = lo + t * (hi - lo)
    args = (x, y, points, other) if other_is_q else (x, y, other, points)
    vals = np.abs(np.broadcast_to(deriv(*args), np.broadcast(*args).shape))
    return vals.max(axis=0)


def _wide(formula):
    """A closure that returns ``formula(*args)`` as a read-only float64
    view of its arguments' broadcast shape."""
    def closure(*args):
        return np.broadcast_to(np.asarray(formula(*args), dtype=float),
                               np.broadcast(*args).shape)
    return closure


def _endpoint_bound(x, y, a, b, other):
    return np.maximum(np.abs(2.0 * (a + 1.0)), np.abs(2.0 * (b + 1.0)))


# The derivative and speed closures of the registry's LLF hamiltonians,
# written out here, each returning an array of its arguments' shape.
_BROADCAST_CLOSURES = {
    "transport": dict(
        dp=_wide(lambda x, y, p, q: 1.0), dq=_wide(lambda x, y, p, q: 1.0),
        alpha_p=_wide(lambda x, y, a, b, other: 1.0),
        alpha_q=_wide(lambda x, y, a, b, other: 1.0)),
    "rotation": dict(
        dp=_wide(lambda x, y, p, q: -y), dq=_wide(lambda x, y, p, q: x),
        dx_=_wide(lambda x, y, p, q: q), dy_=_wide(lambda x, y, p, q: -p),
        alpha_p=_wide(lambda x, y, a, b, other: np.abs(y)),
        alpha_q=_wide(lambda x, y, a, b, other: np.abs(x))),
    "shifted-quadratic": dict(
        dp=_wide(lambda x, y, p, q: 2.0 * (p + 1.0)),
        dq=_wide(lambda x, y, p, q: 2.0 * (q + 1.0)),
        alpha_p=_endpoint_bound, alpha_q=_endpoint_bound),
}


def broadcasting_hamiltonian(H, name: str):
    """Copy of H (``name``, a key of ``_BROADCAST_CLOSURES``) with the
    closures written out above: each returns a read-only float64 view of
    its arguments' broadcast shape, the contract the closures kept before
    they returned their formula (a float for a constant)."""
    return dataclasses.replace(H, **_BROADCAST_CLOSURES[name])


def scan_bounds(H):
    """(alpha_p, alpha_q) interval-bound closures of H by the sampled scan,
    over the interval between the endpoints a and b in either order: the
    scan's sample points depend on the order, so it orders them."""
    def bound(deriv, other_is_q):
        return lambda x, y, a, b, other: scan_max_abs(
            deriv, x, y, np.minimum(a, b), np.maximum(a, b), other, other_is_q)
    return bound(H.dp, True), bound(H.dq, False)


# Closed-form coefficients (c21, c22), FULL and PARTIAL.
_BETA_COEFFS = {True: (17.0 / 12.0, 857.0 / 720.0),
                False: (5.0 / 12.0, 17.0 / 720.0)}


def quadrant_min_weight(betas: dict[str, tuple[np.ndarray, np.ndarray]],
                        sigma_h: float) -> np.ndarray:
    """Minimum over the quadrants of the remapped WENO weight
    g(a0 / (a0 + a1)), a_k = 1 / (beta_k + sigma_h)**2, with
    g(w) = 1/2 + 4 (w - 1/2)^3 on w clamped to [0, 1]."""
    omega = None
    for b0, b1 in betas.values():
        a0 = 1.0 / (b0 + sigma_h) ** 2
        a1 = 1.0 / (b1 + sigma_h) ** 2
        t = np.clip(a0 / (a0 + a1), 0.0, 1.0) - 0.5
        w = 0.5 + 4.0 * (t * t * t)
        omega = w if omega is None else np.minimum(omega, w)
    return omega


# ----------------------------------------------------------------------
# 2D-view forms

def view_neighbors(field: GridField, width: int):
    """``at(dj, di)``: the whole-grid array of ``u[i + di, j + dj]`` as a 2D
    view of one ``np.pad`` copy of the field."""
    mode = "wrap" if field.bc is BoundaryCondition.PERIODIC else "edge"
    padded = np.pad(field.values, width, mode=mode)
    ny, nx = field.values.shape

    def at(dj=0, di=0):
        return padded[width + di:width + di + ny, width + dj:width + dj + nx]
    return at


def view_stencils(field: GridField) -> dict[str, tuple[np.ndarray, ...]]:
    """The monotone and high-order difference stencils over 2D views, in
    the library's operand order."""
    u = field.values
    dx, dy = field.grid.dx, field.grid.dy
    at = view_neighbors(field, 2)
    return {
        "one_sided": ((u - at(-1, 0)) / dx, (at(1, 0) - u) / dx,
                      (u - at(0, -1)) / dy, (at(0, 1) - u) / dy),
        "centered": ((at(1, 0) - at(-1, 0)) / (2.0 * dx),
                     (at(0, 1) - at(0, -1)) / (2.0 * dy)),
        "second": (((at(1, 0) - u) - (u - at(-1, 0))) / dx ** 2,
                   ((at(0, 1) - u) - (u - at(0, -1))) / dy ** 2),
        "cross": ((at(1, 1) - at(-1, 1) - at(1, -1) + at(-1, -1)) / (4.0 * dx * dy),),
        "fourth": ((at(-2, 0) - 8.0 * at(-1, 0) + 8.0 * at(1, 0) - at(2, 0)) / (12.0 * dx),
                   (at(0, -2) - 8.0 * at(0, -1) + 8.0 * at(0, 1) - at(0, 2)) / (12.0 * dy)),
    }


def view_quadrant_beta_fields(field: GridField, full: bool = True,
                              ) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """(beta0, beta1) per quadrant: the four inner betas on the grid
    extended by one node per side, from first differences over 2D views
    of one padded copy, and every outer beta read as a view of the
    opposite quadrant's inner beta."""
    c21, c22 = _BETA_COEFFS[full]
    dxdy = field.grid.dx * field.grid.dy
    ny, nx = field.values.shape
    mode = "wrap" if field.bc is BoundaryCondition.PERIODIC else "edge"
    u = np.pad(field.values, 2, mode=mode)

    def over(a, origin, dj=0, di=0):
        """``a`` at n + (dj, di) for n on the grown grid; ``origin`` is the
        padded (row, column) of a[0, 0]."""
        oi, oj = origin
        return a[1 + di - oi:ny + 3 + di - oi, 1 + dj - oj:nx + 3 + dj - oj]

    fx, fy = u[:, 1:] - u[:, :-1], u[1:] - u[:-1]
    d, e = fx[:, 1:] - fx[:, :-1], fy[1:] - fy[:-1]     # origins (0, 1), (1, 0)
    cross = fx[1:] - fx[:-1]
    p, q = d[1:] - d[:-1], e[:, 1:] - e[:, :-1]         # P(m) = D(m + y) - D(m)
    g = over(p[1:] - p[:-1], (1, 1))                     # P(n) - P(n - y)

    def part(u20, u21):
        return u20 * (u20 + u21 - g / 6.0) + u21 * (c21 * u21 - g / 12.0)

    x_part = {z: part(over(d, (0, 1), 0, z), -over(p, (0, 1)) if z > 0
                      else over(p, (0, 1), 0, -1)) for z in (1, -1)}
    y_part = {z: part(over(e, (1, 0), z, 0), -over(q, (1, 0)) if z > 0
                      else over(q, (1, 0), -1, 0)) for z in (1, -1)}
    inner = {(z1, z2): (x_part[z2] + y_part[z1]
                        + over(cross, (0, 0), min(z1, 0), min(z2, 0)) ** 2
                        + c22 * g ** 2) / dxdy
             for z1, z2 in QUADRANT_SIGNS.values()}
    return {key: (inner[z1, z2][1:ny + 1, 1:nx + 1],
                  inner[-z1, -z2][1 + z2:ny + 1 + z2, 1 + z1:nx + 1 + z1])
            for key, (z1, z2) in QUADRANT_SIGNS.items()}


def _view_omega_1d(field: GridField, sigma: float, axis: str) -> np.ndarray:
    """Remapped 1D weight along ``axis`` (min of the two sides), with the
    curvature stencils read as 2D views."""
    (dj, di), h = ((1, 0), field.grid.dx) if axis == "x" else ((0, 1), field.grid.dy)
    sigma_h = sigma * h ** 2
    at = view_neighbors(field, 2)
    u = [at(k * dj, k * di) for k in (-2, -1, 0, 1, 2)]
    s = [(((u[c + 1] - u[c]) - (u[c] - u[c - 1])) / h) ** 2 for c in (1, 2, 3)]
    b0m, b1m, b0p, b1p = s[0], s[1], s[1], s[2]
    return np.minimum(quadrant_min_weight({"-": (b1m, b0m)}, sigma_h),
                      quadrant_min_weight({"+": (b0p, b1p)}, sigma_h))


def view_omega_field_2d(field: GridField, sigma: float,
                        variant: str = "full") -> np.ndarray:
    """Combined weight: the min over the quadrants of the remapped weight
    (``variant`` full or partial), or the splitting baseline (split)."""
    if variant == "split":
        return np.minimum(_view_omega_1d(field, sigma, "x"),
                          _view_omega_1d(field, sigma, "y"))
    betas = view_quadrant_beta_fields(field, full=variant == "full")
    return quadrant_min_weight(betas, sigma * field.grid.delta ** 2)


def view_phi_2d(omega: np.ndarray, M: float) -> np.ndarray:
    """Trust mask as 0/1 integers: 1 where omega >= M."""
    return (np.asarray(omega) >= M).astype(np.int8)


def space_derivatives(H, x, y, p, q):
    """(H_x, H_y) at (x, y, p, q); for an H independent of (x, y), arrays
    of +0.0 of the broadcast shape, which the library replaces by the
    scalar +0.0."""
    if H.space_dependent:
        return H.dx_(x, y, p, q), H.dy_(x, y, p, q)
    zeros = np.zeros(np.broadcast(x, y, p, q).shape)
    return zeros, zeros.copy()


def view_epsilon_n(field: GridField, H, slots, dt: float, mask: np.ndarray,
                   K: float = 1.0) -> float:
    """Switching scale from 2D-view stencils: the integrand
    K |0.5 dt bracket + p-slot + q-slot| in the library's operation order,
    with the slot differences ``slots(pm, pp, qm, qp)`` of the one-sided
    slopes (``closed_form_slot_differences`` or
    ``swapped_slot_differences``), maximized over the trusted nodes
    (boolean indexing); 0 when none is trusted."""
    if not mask.any():
        return 0.0
    x, y = field.grid.meshes()
    st = view_stencils(field)
    dp_term, dq_term = slots(*st["one_sided"])
    dxu, dyu = st["centered"]
    d2x, d2y = st["second"]
    (dxy,) = st["cross"]
    hp = H.dp(x, y, dxu, dyu)
    hq = H.dq(x, y, dxu, dyu)
    hx, hy = space_derivatives(H, x, y, dxu, dyu)
    bracket = (hp * (hp * d2x + hx) + hq * (hq * d2y + hy)
               + 2.0 * hp * hq * dxy)
    vals = K * np.abs(0.5 * dt * bracket + dp_term + dq_term)
    return float(vals[mask].max())
