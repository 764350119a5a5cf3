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

Every stencil reads runs of its field's padded copy (the run layout of
:mod:`hjaf.grids`): a step reads its field's own copy, centered slopes
and second differences, memo entries every kernel reading it shares.
Each later stage of a multi-stage step (Heun's predictor, RKC4's stages
2-4) is a field of its own, padded through its own memo.

The staggered secants used by LW2/Richtmyer ship in two forms: the
default keeps the legacy index pattern these schemes have circulated with
(one of its terms cancels identically, which breaks exactness on affine
data), while ``corrected=True`` restores the symmetric staggered pattern.
"""
from __future__ import annotations

import functools
from typing import Callable

import numpy as np

from .grids import GridField, read_only
from .hamiltonians import Hamiltonian
from .monotone import one_sided_slopes

SCHEME_ORDERS = {"hc": 2, "lw": 2, "lw2": 2, "richtmyer": 2, "rkc4": 4}


def _centered_slopes(field: GridField):
    dx, dy = field.grid.dx, field.grid.dy
    at = field.neighbors()
    return read_only(at.grid(at(1, 0) - at(-1, 0)) / (2.0 * dx),
                     at.grid(at(0, 1) - at(0, -1)) / (2.0 * dy))


def centered_slopes(field: GridField):
    """(Dx u, Dy u): centered difference quotients, a memo entry."""
    return field.memo(_centered_slopes)


def second_diffs(field: GridField):
    """(uxx, uyy): the field's (+1, 0, -1) second differences over h^2."""
    at = field.neighbors()
    d2x, d2y = field.second_differences()
    return (at.grid(at.of(d2x)()) / field.grid.dx ** 2,
            at.grid(at.of(d2y)()) / field.grid.dy ** 2)


def cross_diff(field: GridField):
    dx, dy = field.grid.dx, field.grid.dy
    at = field.neighbors()
    d = at(1, 1) - at(-1, 1)
    d -= at(1, -1)
    d += at(-1, -1)
    return at.grid(d) / (4.0 * dx * dy)


def fourth_order_slopes(field: GridField):
    dx, dy = field.grid.dx, field.grid.dy
    at = field.neighbors()
    eight = at.of(np.multiply(8.0, at.flat))     # 8 u, read by both axes

    def run(dj, di):
        # u[-2] - 8 u[-1] + 8 u[+1] - u[+2], summed left to right
        d = np.subtract(at(-2 * dj, -2 * di), eight(-dj, -di))
        d += eight(dj, di)
        d -= at(2 * dj, 2 * di)
        return d
    x_run, y_run = run(1, 0), run(0, 1)
    # at most three such arrays live at once, as when each axis took 8 u
    del eight
    x_slope = at.grid(x_run) / (12.0 * dx)
    del x_run
    return x_slope, at.grid(y_run) / (12.0 * dy)


def hc_step(field: GridField, H: Hamiltonian, dt: float) -> GridField:
    """Heun (two-stage RK2) over the centered hamiltonian; the second
    stage pads the predictor."""
    x, y = field.grid.meshes()
    star = field.like(field.values - dt * H.eval(x, y, *centered_slopes(field)))
    out = (0.5 * (field.values + star.values)
           - 0.5 * dt * H.eval(x, y, *centered_slopes(star)))
    return field.like(out)


def _centered_derivatives(field: GridField, H: Hamiltonian):
    """(H_p, H_q, H_x, H_y) at the centered slopes, H_x and H_y the scalar
    +0.0 for an H independent of (x, y): it rounds like an array of +0.0."""
    args = (*field.grid.meshes(), *centered_slopes(field))
    hp, hq = H.dp(*args), H.dq(*args)
    if not H.space_dependent:
        return hp, hq, 0.0, 0.0
    return hp, hq, H.dx_(*args), H.dy_(*args)


def _time_curvature(field: GridField, H: Hamiltonian):
    d2x, d2y = second_diffs(field)
    dxy = cross_diff(field)
    hp, hq, hx, hy = _centered_derivatives(field, H)
    # summed left to right as written, in two arrays of its own (the
    # hamiltonian's arrays are read, never written)
    a = hp * d2x
    a += hx
    a *= hp
    b = hq * d2y
    b += hy
    b *= hq
    a += b
    np.multiply(2.0, hp, out=b)
    b *= hq
    b *= dxy
    a += b
    return read_only(a)[0]


def time_curvature(field: GridField, H: Hamiltonian):
    """Discrete time curvature Hp (Hp uxx + Hx) + Hq (Hq uyy + Hy)
    + 2 Hp Hq uxy, H's derivatives at the centered slopes; a memo entry
    per H, shared by the switching scale and the LW step."""
    return field.memo(_time_curvature, H)


def lw_step(field: GridField, H: Hamiltonian, dt: float) -> GridField:
    """One-shot second-order step: centered hamiltonian corrected by the
    discrete expansion of the time curvature (:func:`time_curvature`)."""
    x, y = field.grid.meshes()
    h = (H.eval(x, y, *centered_slopes(field))
         - 0.5 * dt * time_curvature(field, H))
    return field.like(field.values - dt * h)


def _staggered_secants(field: GridField, H: Hamiltonian, corrected: bool):
    """(Hx*, Hy*): secants of H between staggered half-node slope states;
    the forward and backward slopes are the one-sided slopes the
    monotone step reads (:func:`hjaf.monotone.one_sided_slopes`)."""
    dx, dy = field.grid.dx, field.grid.dy
    x, y = field.grid.meshes()
    args = (x, y)
    up = field.neighbors()
    cut = up.grid
    p_bwd, p_fwd, q_bwd, q_fwd = one_sided_slopes(field)

    q_at_fwd = cut(up(1, 1) - up(1, -1) + up(0, 1) - up(0, -1)) / (4.0 * dy)
    if corrected:
        q_at_bwd = cut(up(0, 1) - up(0, -1) + up(-1, 1) - up(-1, -1)) / (4.0 * dy)
    else:
        # legacy pattern: the first staggered pair cancels identically
        q_at_bwd = cut(up(-1, 1) - up(-1, -1)) / (4.0 * dy)
    hx_star = (H.eval(*args, p_fwd, q_at_fwd)
               - H.eval(*args, p_bwd, q_at_bwd)) / dx

    p_at_fwd = cut(up(1, 1) - up(-1, 1) + up(1, 0) - up(-1, 0)) / (4.0 * dx)
    p_at_bwd = cut(up(1, 0) - up(-1, 0) + up(1, -1) - up(-1, -1)) / (4.0 * dx)
    if not corrected:
        # legacy pattern: backward secant carries the opposite sign (its
        # own expression, since negating Dy- would flip the sign of zeros)
        q_bwd = cut(up(0, -1) - up()) / dy
    hy_star = (H.eval(*args, p_at_fwd, q_fwd)
               - H.eval(*args, p_at_bwd, q_bwd)) / dy
    return hx_star, hy_star


def lw2_step(field: GridField, H: Hamiltonian, dt: float,
             corrected: bool = False) -> GridField:
    """Variant of the one-shot correction using staggered secants of H in
    place of the expanded curvature terms."""
    x, y = field.grid.meshes()
    dxu, dyu = centered_slopes(field)
    hp, hq, hx, hy = _centered_derivatives(field, H)
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
    filter's job.  Stage 1 reads the field's padded copy; every later stage
    is a field of its own, padded once when its slopes are taken.
    """
    x, y = field.grid.meshes()

    def advance(c, k):
        # u - c * k, into an array of its own (k is the hamiltonian's)
        v = np.multiply(c, k)
        return np.subtract(field.values, v, out=v)

    def h_at(c, k):
        # H at the slopes of the stage u - c * k; the stage field goes,
        # with its values and padded copy, before H is evaluated
        dxu, dyu = fourth_order_slopes(field.like(advance(c, k)))
        return H.eval(x, y, dxu, dyu)

    k0 = H.eval(x, y, *fourth_order_slopes(field))
    k1 = h_at(0.5 * dt, k0)
    k2 = h_at(0.5 * dt, k1)
    k3 = h_at(dt, k2)
    # u - dt/6 * (k0 + 2 k1 + 2 k2 + k3), summed left to right
    s = np.multiply(2.0, k1)
    np.add(k0, s, out=s)
    s += np.multiply(2.0, k2)
    s += k3
    return field.like(advance(dt / 6.0, s))


def high_order_step(kind: str, corrected: bool = False,
                    ) -> Callable[..., GridField]:
    """Step function ``(field, H, dt)`` for a scheme name in
    SCHEME_ORDERS."""
    steps = {"hc": hc_step, "lw": lw_step, "rkc4": rkc4_step,
             "lw2": functools.partial(lw2_step, corrected=corrected),
             "richtmyer": functools.partial(richtmyer_step, corrected=corrected)}
    if kind not in steps:
        raise ValueError(f"unknown high-order scheme {kind!r}")
    return steps[kind]
