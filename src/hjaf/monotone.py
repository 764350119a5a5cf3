"""Monotone one-step schemes in differenced form.

The update is u - dt * h(x, y, Dx-, Dx+, Dy-, Dy+) with one-sided slope
quotients.  Two numerical hamiltonians are provided: the upwind form for
the eikonal equation, and the local Lax-Friedrichs form for general H.
Both reproduce H exactly on matched slopes, and both are monotone under
the step restriction max(lam_x * ax, lam_y * ay) <= 1/2 on the speeds
(ax, ay) the update used.  The local Lax-Friedrichs dissipation on each
axis is the exact maximum of |H_p| (|H_q|) between the two slopes, in
either order, which the hamiltonian supplies in closed form
(``alpha_p``/``alpha_q``); the scheme refuses an H without them.  Each
slot weight of the upwind eikonal form is at most 1, whatever the data,
so its speeds are (1, 1).  Every step checks the restriction on the
speeds of the data it reached, and refuses rather than clip dt.

:class:`MonotoneKind` names the form, and :func:`monotone_hamiltonian`
evaluates it.  The switching scale probes the monotone hamiltonian by
swapping one slope slot at a time (:func:`htilde_differences`); for the
local Lax-Friedrichs form those eight evaluations collapse to four in
closed form, with the speed bounds the step takes from H's interval
closures.
"""
from __future__ import annotations

from enum import Enum

import numpy as np

from .grids import Grid2D, GridField, read_only
from .hamiltonians import Hamiltonian

CFL_LIMIT = 0.5


class MonotoneKind(Enum):
    EIKONAL = "eikonal"
    LOCAL_LAX_FRIEDRICHS = "llf"


class CflViolation(RuntimeError):
    pass


def require_runnable(kind: MonotoneKind, H: Hamiltonian) -> None:
    """Refuse a form H cannot run: the upwind eikonal form needs
    H = |grad u|, the local Lax-Friedrichs form both interval bounds."""
    if kind is MonotoneKind.EIKONAL and not H.is_eikonal:
        raise ValueError("eikonal monotone scheme only applies to H = |grad u|")
    if kind is MonotoneKind.LOCAL_LAX_FRIEDRICHS:
        for name in ("alpha_p", "alpha_q"):
            if getattr(H, name) is None:
                raise ValueError(f"the local Lax-Friedrichs scheme needs "
                                 f"H.{name}, the interval bound of its speed")


def h_eikonal(pm, pp, qm, qp):
    """Upwind hamiltonian sqrt(max{p-, -p+, 0}^2 + max{q-, -q+, 0}^2).

    On matched slopes (p, p, q, q) the inner max is |p|, so the value is
    exactly sqrt(p^2 + q^2); opposing outward slopes (rarefaction) give 0.
    """
    a = np.maximum(np.maximum(pm, -np.asarray(pp, dtype=np.float64)), 0.0)
    b = np.maximum(np.maximum(qm, -np.asarray(qp, dtype=np.float64)), 0.0)
    return np.sqrt(a * a + b * b)


def _llf_slot_difference(H: Hamiltonian, x, y, c, fwd, bwd, frozen,
                         along_p: bool):
    """Closed form of one slot difference of the local Lax-Friedrichs
    hamiltonian h (see :func:`htilde_differences`).  With the swapped
    slot's partner held at the centered slope c, h(c, s) and h(s, c) share
    E = H at 0.5*(c + s), the speed bound between c and s and the
    dissipation d = 0.5*bound*(s - c), which enters them as E - d and
    E + d.  On the frozen axis the average 0.5*(c' + c') is c' exactly and
    the dissipation 0.5*bound'*(c' - c') is +0 (bounds are finite and
    >= 0), so every value rounds exactly as in the eight calls."""
    alpha = H.alpha_p if along_p else H.alpha_q
    terms = []
    for s in (fwd, bwd):
        mid = c + s
        mid *= 0.5
        e = H.eval(x, y, mid, frozen) if along_p else H.eval(x, y, frozen, mid)
        bound = alpha(x, y, c, s, frozen)
        d = s - c
        d *= 0.5 * bound
        terms.append((e, d))
    (e_f, d_f), (e_b, d_b) = terms
    # ((e_f - d_f) - (e_b - d_b)) - ((e_f + d_f) - (e_b + d_b)), writing
    # only arrays of its own (e_f and e_b are the hamiltonian's)
    out = e_f - d_f
    out -= e_b - d_b
    np.add(e_f, d_f, out=d_f)
    d_f -= np.add(e_b, d_b, out=d_b)
    out -= d_f
    return out


def htilde_differences(kind: MonotoneKind, H: Hamiltonian,
                       x, y, pm, pp, qm, qp):
    """(p-slot difference, q-slot difference) of the monotone hamiltonian
    h: each slot in turn is swapped between the forward and the backward
    slope while every other slot holds the centered slope (pc, qc),

        [h(pc, pp, qc, qc) - h(pc, pm, qc, qc)]
            - [h(pp, pc, qc, qc) - h(pm, pc, qc, qc)]

    and the same in q.  The upwind eikonal form makes those eight calls;
    the local Lax-Friedrichs form needs four evaluations of H and four
    speed bounds, bitwise equal to its eight calls.
    """
    require_runnable(kind, H)
    pc = 0.5 * (pm + pp)
    qc = 0.5 * (qm + qp)
    if kind is MonotoneKind.EIKONAL:
        h = h_eikonal
        return ((h(pc, pp, qc, qc) - h(pc, pm, qc, qc))
                - (h(pp, pc, qc, qc) - h(pm, pc, qc, qc)),
                (h(pc, pc, qc, qp) - h(pc, pc, qc, qm))
                - (h(pc, pc, qp, qc) - h(pc, pc, qm, qc)))
    return (_llf_slot_difference(H, x, y, pc, pp, pm, qc, along_p=True),
            _llf_slot_difference(H, x, y, qc, qp, qm, pc, along_p=False))


def _one_sided_slopes(field: GridField):
    dx, dy = field.grid.dx, field.grid.dy
    at = field.neighbors()
    u = at()
    return read_only(at.grid(u - at(-1, 0)) / dx, at.grid(at(1, 0) - u) / dx,
                     at.grid(u - at(0, -1)) / dy, at.grid(at(0, 1) - u) / dy)


def one_sided_slopes(field: GridField):
    """(Dx-, Dx+, Dy-, Dy+): one-sided difference quotients, a memo entry."""
    return field.memo(_one_sided_slopes)


def monotone_hamiltonian(kind: MonotoneKind, H: Hamiltonian,
                         x, y, pm, pp, qm, qp):
    """(h, speeds): the numerical hamiltonian of form ``kind`` and the
    speeds (ax, ay) it used: the local Lax-Friedrichs dissipation
    coefficients, or (1.0, 1.0) for the upwind eikonal form, whose slot
    weights are at most 1."""
    require_runnable(kind, H)
    if kind is MonotoneKind.EIKONAL:
        return h_eikonal(pm, pp, qm, qp), (1.0, 1.0)
    # local Lax-Friedrichs: H at the slope averages minus the dissipation
    # on each axis, scaled by H's interval speed bound
    pc = 0.5 * (np.asarray(pm, dtype=np.float64) + pp)
    qc = 0.5 * (np.asarray(qm, dtype=np.float64) + qp)
    ax = H.alpha_p(x, y, pm, pp, qc)
    ay = H.alpha_q(x, y, qm, qp, pc)
    value = (H.eval(x, y, pc, qc)
             - 0.5 * ax * (pp - pm) - 0.5 * ay * (qp - qm))
    return value, (ax, ay)


def _above(value: float, limit: float) -> str:
    """``value`` to the fewest significant digits, at least 4, that still
    read above ``limit`` (a NaN reads nan)."""
    for digits in range(4, 18):
        text = f"{value:.{digits}g}"
        if float(text) > limit:
            return text
    return f"{value}"


def _check_realized_speeds(dt: float, speeds, grid: Grid2D) -> None:
    """Raise CflViolation unless lam_x * ax and lam_y * ay, over the speeds
    a step used, both stay within the limit (a NaN does not).  The message
    names the worse axis, and the node where its speed is largest (or
    first NaN) unless that speed is one scalar for every node."""
    ax, ay = speeds
    vx = dt / grid.dx * float(np.max(ax))
    vy = dt / grid.dy * float(np.max(ay))
    if vx <= CFL_LIMIT + 1e-12 and vy <= CFL_LIMIT + 1e-12:
        return
    on_x = vx >= vy or np.isnan(vx)
    axis, speed, v = ("x", ax, vx) if on_x else ("y", ay, vy)
    if np.ndim(speed) == 0:
        where = f"on axis {axis}, whose speed is the same at every node"
    else:
        worst = np.broadcast_to(speed, grid.shape)
        i, j = np.unravel_index(int(np.argmax(worst)), grid.shape)
        x, y = grid.xnodes()[j], grid.ynodes()[i]
        where = (f"on axis {axis} at node (i, j) = ({i}, {j}), "
                 f"(x, y) = ({x:.6g}, {y:.6g})")
    raise CflViolation(
        f"realized speeds violate the stability bound {where}: "
        f"max(lam*speed) = {_above(v, CFL_LIMIT)} > {CFL_LIMIT}")


def monotone_step(field: GridField, kind: MonotoneKind, H: Hamiltonian,
                  dt: float) -> GridField:
    """One forward step of the monotone scheme.  Refuses to run when the
    step restriction fails on the speeds the update used, rather than
    silently clipping dt."""
    x, y = field.grid.meshes()
    h, speeds = monotone_hamiltonian(kind, H, x, y, *one_sided_slopes(field))
    _check_realized_speeds(dt, speeds, field.grid)
    return field.like(field.values - dt * h)
