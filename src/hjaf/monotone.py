"""Monotone one-step schemes in differenced form.

The update is u - dt * h(x, y, Dx-, Dx+, Dy-, Dy+) with one-sided slope
quotients.  Two numerical hamiltonians are provided: the upwind form for
the eikonal equation, and the local Lax-Friedrichs form for general H.
Both reproduce H exactly on matched slopes, and both are monotone under
the simplified step restriction max(lam_x * vmax_p, lam_y * vmax_q) <= 1/2.
The local Lax-Friedrichs dissipation on each axis is the exact maximum
of |H_p| (|H_q|) between the two slopes, in either order, which the
hamiltonian supplies in closed form (``alpha_p``/``alpha_q``); the scheme
refuses an H without them.  The declared bounds vmax_p, vmax_q can be
exceeded by the data a run reaches, so the local Lax-Friedrichs step also
checks the restriction on the dissipation coefficients it actually used.

:class:`MonotoneKind` names the form, and :func:`monotone_hamiltonian`
evaluates it.  The switching scale probes the monotone hamiltonian by
swapping one slope slot at a time (:func:`htilde_differences`); for the
local Lax-Friedrichs form those eight evaluations collapse to four in
closed form, and both forms take their speed bounds from one helper.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .grids import Grid2D, GridField, read_only
from .hamiltonians import Hamiltonian

CFL_LIMIT = 0.5


class MonotoneKind(Enum):
    EIKONAL = "eikonal"
    LOCAL_LAX_FRIEDRICHS = "llf"


@dataclass(frozen=True)
class CflReport:
    passed: bool
    value: float          # max(lam_x * vmax_p, lam_y * vmax_q)
    margin: float         # CFL_LIMIT - value
    lam_x: float
    lam_y: float


class CflViolation(RuntimeError):
    pass


def _require_eikonal(H: Hamiltonian) -> None:
    if not H.is_eikonal:
        raise ValueError("eikonal monotone scheme only applies to H = |grad u|")


def h_eikonal(pm, pp, qm, qp):
    """Upwind hamiltonian sqrt(max{p-, -p+, 0}^2 + max{q-, -q+, 0}^2).

    On matched slopes (p, p, q, q) the inner max is |p|, so the value is
    exactly sqrt(p^2 + q^2); opposing outward slopes (rarefaction) give 0.
    """
    a = np.maximum(np.maximum(pm, -np.asarray(pp, dtype=np.float64)), 0.0)
    b = np.maximum(np.maximum(qm, -np.asarray(qp, dtype=np.float64)), 0.0)
    return np.sqrt(a * a + b * b)


def _speed_bound(H: Hamiltonian, x, y, a, b, other, along_p: bool):
    """max|H_p| over p between ``a`` and ``b`` with q frozen at ``other``
    (``along_p``), else the q analog, from H's interval closure."""
    name = "alpha_p" if along_p else "alpha_q"
    bound = getattr(H, name)
    if bound is None:
        raise ValueError(f"the local Lax-Friedrichs scheme needs H.{name}, "
                         "the interval bound of its speed")
    return bound(x, y, a, b, other)


def _llf(H: Hamiltonian, x, y, pm, pp, qm, qp):
    """(value, ax, ay): the local Lax-Friedrichs hamiltonian, H at slope
    averages minus the dissipation on each axis scaled by H's interval
    speed bound, and the dissipation coefficient it used on each axis."""
    pc = 0.5 * (np.asarray(pm, dtype=np.float64) + pp)
    qc = 0.5 * (np.asarray(qm, dtype=np.float64) + qp)
    ax = _speed_bound(H, x, y, pm, pp, qc, along_p=True)
    ay = _speed_bound(H, x, y, qm, qp, pc, along_p=False)
    value = (H.eval(x, y, pc, qc)
             - 0.5 * ax * (pp - pm) - 0.5 * ay * (qp - qm))
    return value, ax, ay


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
    terms = []
    for s in (fwd, bwd):
        mid = c + s
        mid *= 0.5
        e = H.eval(x, y, mid, frozen) if along_p else H.eval(x, y, frozen, mid)
        bound = _speed_bound(H, x, y, c, s, frozen, along_p)
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
    pc = 0.5 * (pm + pp)
    qc = 0.5 * (qm + qp)
    if kind is MonotoneKind.EIKONAL:
        _require_eikonal(H)
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
    """(h, speeds): the numerical hamiltonian of form ``kind`` and, for the
    local Lax-Friedrichs form, the dissipation coefficients (ax, ay) it
    used; ``speeds`` is None for the upwind eikonal form."""
    if kind is MonotoneKind.EIKONAL:
        _require_eikonal(H)
        return h_eikonal(pm, pp, qm, qp), None
    value, ax, ay = _llf(H, x, y, pm, pp, qm, qp)
    return value, (ax, ay)


def cfl_check(H: Hamiltonian, dt: float, grid: Grid2D) -> CflReport:
    """Simplified step-restriction test max(lam * vmax) <= 1/2."""
    lam_x = dt / grid.dx
    lam_y = dt / grid.dy
    value = max(lam_x * H.vmax_p, lam_y * H.vmax_q)
    return CflReport(passed=value <= CFL_LIMIT + 1e-12, value=value,
                     margin=CFL_LIMIT - value, lam_x=lam_x, lam_y=lam_y)


def _check_realized_speeds(report: CflReport, speeds, grid: Grid2D) -> None:
    """Raise CflViolation when max(lam_x * ax, lam_y * ay) over the
    dissipation coefficients a step used exceeds the limit, naming the
    node where it is largest."""
    ax, ay = speeds
    vx = report.lam_x * float(np.max(ax))
    vy = report.lam_y * float(np.max(ay))
    value = max(vx, vy)
    if not value > CFL_LIMIT + 1e-12:
        return
    worst = np.broadcast_to(ax if vx >= vy else ay, grid.shape)
    i, j = np.unravel_index(int(np.argmax(worst)), grid.shape)
    x, y = grid.xnodes()[j], grid.ynodes()[i]
    raise CflViolation(
        f"realized speeds violate the stability bound at node (i, j) = "
        f"({i}, {j}), (x, y) = ({x:.6g}, {y:.6g}): "
        f"max(lam*alpha) = {value:.4g} > {CFL_LIMIT}")


def monotone_step(field: GridField, kind: MonotoneKind, H: Hamiltonian,
                  dt: float) -> GridField:
    """One forward step of the monotone scheme.  Refuses to run when the
    step restriction fails rather than silently clipping dt: before the
    update on the declared velocity bounds, after it (local Lax-Friedrichs
    form) on the dissipation coefficients the update used."""
    report = cfl_check(H, dt, field.grid)
    if not report.passed:
        raise CflViolation(
            f"time step violates the stability bound: "
            f"max(lam*vmax) = {report.value:.4g} > {CFL_LIMIT}")
    x, y = field.grid.meshes()
    h, speeds = monotone_hamiltonian(kind, H, x, y, *one_sided_slopes(field))
    if speeds is not None:
        _check_realized_speeds(report, speeds, field.grid)
    return field.like(field.values - dt * h)
