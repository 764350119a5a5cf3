"""Candidate high-order one-step schemes (not required to be stable alone).

All are written in differenced form u - dt * h(...) built from centered
slope operators, so constants are fixed points whenever H(., ., 0, 0) = 0
and affine data is propagated exactly for slope-only hamiltonians.

Second-order family: a Heun predictor-corrector over the centered
hamiltonian (HC); two one-shot corrections of the centered hamiltonian by
the discrete time-curvature (LW, LW2); and a Richtmyer form that evaluates
H at staggered-corrected slopes and needs no derivatives of H but requires
H independent of (x, y).  Fourth order: the classical four-stage
Runge-Kutta over fourth-order central slopes (RKC4), whose composed
stencil spans 17x17 nodes.

The staggered secants used by LW2/Richtmyer ship in two forms: the
default keeps the legacy index pattern these schemes have circulated with
(one of its terms cancels identically, which breaks exactness on affine
data), while ``corrected=True`` restores the symmetric staggered pattern.
"""
from __future__ import annotations

from typing import Callable

from .grids import GridField
from .hamiltonians import Hamiltonian

SCHEME_ORDERS = {"hc": 2, "lw": 2, "lw2": 2, "richtmyer": 2, "rkc4": 4}


def centered_slopes(field: GridField, at=None):
    dx, dy = field.grid.dx, field.grid.dy
    if at is None:
        at = field.neighbors(1)
    dxu = (at(1, 0) - at(-1, 0)) / (2.0 * dx)
    dyu = (at(0, 1) - at(0, -1)) / (2.0 * dy)
    return dxu, dyu


def second_diffs(field: GridField, at=None):
    dx, dy = field.grid.dx, field.grid.dy
    if at is None:
        at = field.neighbors(1)
    d2x = (at(1, 0) - 2.0 * field.values + at(-1, 0)) / dx ** 2
    d2y = (at(0, 1) - 2.0 * field.values + at(0, -1)) / dy ** 2
    return d2x, d2y


def cross_diff(field: GridField, at=None):
    dx, dy = field.grid.dx, field.grid.dy
    if at is None:
        at = field.neighbors(1)
    return (at(1, 1) - at(-1, 1) - at(1, -1) + at(-1, -1)) / (4.0 * dx * dy)


def fourth_order_slopes(field: GridField):
    dx, dy = field.grid.dx, field.grid.dy
    at = field.neighbors(2)
    dxu = (at(-2, 0) - 8.0 * at(-1, 0) + 8.0 * at(1, 0) - at(2, 0)) / (12.0 * dx)
    dyu = (at(0, -2) - 8.0 * at(0, -1) + 8.0 * at(0, 1) - at(0, 2)) / (12.0 * dy)
    return dxu, dyu


def hc_step(field: GridField, H: Hamiltonian, dt: float) -> GridField:
    """Heun (two-stage RK2) over the centered hamiltonian."""
    x, y = field.grid.meshes()

    def h_of(f: GridField):
        dxu, dyu = centered_slopes(f)
        return H.eval(x, y, dxu, dyu)

    star = field.like(field.values - dt * h_of(field))
    out = 0.5 * (field.values + star.values) - 0.5 * dt * h_of(star)
    return field.like(out)


def time_curvature(field: GridField, H: Hamiltonian, dxu, dyu, at=None):
    """Discrete time curvature Hp (Hp uxx + Hx) + Hq (Hq uyy + Hy)
    + 2 Hp Hq uxy, with H's derivatives taken at the centered slopes
    (dxu, dyu) and second and cross differences of the field.  ``at`` is
    ``field.neighbors(w)`` (w >= 1) when the caller has already padded
    the field; otherwise one padded copy serves both differences."""
    x, y = field.grid.meshes()
    if at is None:
        at = field.neighbors(1)
    d2x, d2y = second_diffs(field, at)
    dxy = cross_diff(field, at)
    hp = H.dp(x, y, dxu, dyu)
    hq = H.dq(x, y, dxu, dyu)
    hx = H.dx_(x, y, dxu, dyu)
    hy = H.dy_(x, y, dxu, dyu)
    return (hp * (hp * d2x + hx) + hq * (hq * d2y + hy)
            + 2.0 * hp * hq * dxy)


def lw_step(field: GridField, H: Hamiltonian, dt: float) -> GridField:
    """One-shot second-order step: centered hamiltonian corrected by the
    discrete expansion of the time curvature (:func:`time_curvature`)."""
    x, y = field.grid.meshes()
    at = field.neighbors(1)
    dxu, dyu = centered_slopes(field, at)
    h = (H.eval(x, y, dxu, dyu)
         - 0.5 * dt * time_curvature(field, H, dxu, dyu, at))
    return field.like(field.values - dt * h)


def _staggered_secants(field: GridField, H: Hamiltonian, corrected: bool):
    """(Hx*, Hy*): secants of H between staggered half-node slope states."""
    u = field.values
    dx, dy = field.grid.dx, field.grid.dy
    x, y = field.grid.meshes()
    args = (x, y)

    up = field.neighbors(1)

    p_fwd = (up(1, 0) - u) / dx
    p_bwd = (u - up(-1, 0)) / dx
    q_at_fwd = (up(1, 1) - up(1, -1) + up(0, 1) - up(0, -1)) / (4.0 * dy)
    if corrected:
        q_at_bwd = (up(0, 1) - up(0, -1) + up(-1, 1) - up(-1, -1)) / (4.0 * dy)
    else:
        # legacy pattern: the first staggered pair cancels identically
        q_at_bwd = (up(-1, 1) - up(-1, -1)) / (4.0 * dy)
    hx_star = (H.eval(*args, p_fwd, q_at_fwd)
               - H.eval(*args, p_bwd, q_at_bwd)) / dx

    q_fwd = (up(0, 1) - u) / dy
    p_at_fwd = (up(1, 1) - up(-1, 1) + up(1, 0) - up(-1, 0)) / (4.0 * dx)
    p_at_bwd = (up(1, 0) - up(-1, 0) + up(1, -1) - up(-1, -1)) / (4.0 * dx)
    if corrected:
        q_bwd = (u - up(0, -1)) / dy
    else:
        # legacy pattern: backward secant carries the opposite sign
        q_bwd = (up(0, -1) - u) / dy
    hy_star = (H.eval(*args, p_at_fwd, q_fwd)
               - H.eval(*args, p_at_bwd, q_bwd)) / dy
    return hx_star, hy_star


def lw2_step(field: GridField, H: Hamiltonian, dt: float,
             corrected: bool = False) -> GridField:
    """Variant of the one-shot correction using staggered secants of H in
    place of the expanded curvature terms."""
    x, y = field.grid.meshes()
    dxu, dyu = centered_slopes(field)
    hp = H.dp(x, y, dxu, dyu)
    hq = H.dq(x, y, dxu, dyu)
    hx = H.dx_(x, y, dxu, dyu)
    hy = H.dy_(x, y, dxu, dyu)
    hx_star, hy_star = _staggered_secants(field, H, corrected)
    h = (H.eval(x, y, dxu, dyu)
         - 0.5 * dt * hp * (hx_star + hx)
         - 0.5 * dt * hq * (hy_star + hy))
    return field.like(field.values - dt * h)


def richtmyer_step(field: GridField, H: Hamiltonian, dt: float,
                   corrected: bool = False) -> GridField:
    """Two-step-in-one form H(Dx u - dt/2 Hx*, Dy u - dt/2 Hy*); needs no
    derivatives of H but requires H independent of (x, y)."""
    if H.space_dependent:
        raise ValueError("Richtmyer form requires H independent of (x, y)")
    x, y = field.grid.meshes()
    dxu, dyu = centered_slopes(field)
    hx_star, hy_star = _staggered_secants(field, H, corrected)
    h = H.eval(x, y, dxu - 0.5 * dt * hx_star, dyu - 0.5 * dt * hy_star)
    return field.like(field.values - dt * h)


def rkc4_step(field: GridField, H: Hamiltonian, dt: float) -> GridField:
    """Classical four-stage RK over fourth-order central slopes.

    The time discretization is deliberately not TVD; stability is the
    filter's job.  Every stage re-applies the boundary rule by padding its
    own input.
    """
    x, y = field.grid.meshes()

    def h_of(f: GridField):
        dxu, dyu = fourth_order_slopes(f)
        return H.eval(x, y, dxu, dyu)

    u = field.values
    k0 = h_of(field)
    u1 = field.like(u - 0.5 * dt * k0)
    k1 = h_of(u1)
    u2 = field.like(u - 0.5 * dt * k1)
    k2 = h_of(u2)
    u3 = field.like(u - dt * k2)
    k3 = h_of(u3)
    return field.like(u - dt / 6.0 * (k0 + 2.0 * k1 + 2.0 * k2 + k3))


def high_order_step(kind: str, corrected: bool = False,
                    ) -> Callable[[GridField, Hamiltonian, float], GridField]:
    """Step function for a scheme name in SCHEME_ORDERS."""
    if kind == "hc":
        return hc_step
    if kind == "lw":
        return lw_step
    if kind == "lw2":
        return lambda f, H, dt: lw2_step(f, H, dt, corrected)
    if kind == "richtmyer":
        return lambda f, H, dt: richtmyer_step(f, H, dt, corrected)
    if kind == "rkc4":
        return rkc4_step
    raise ValueError(f"unknown high-order scheme {kind!r}")
