"""Monotone one-step schemes in differenced form.

The update is u - dt * h(x, y, Dx-, Dx+, Dy-, Dy+) with one-sided slope
quotients.  Two numerical hamiltonians are provided: the upwind form for
the eikonal equation, and the local Lax-Friedrichs form for general H.
Both reproduce H exactly on matched slopes, and both are monotone under
the simplified step restriction max(lam_x * vmax_p, lam_y * vmax_q) <= 1/2.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .grids import Grid2D, GridField
from .hamiltonians import Hamiltonian

# Samples per local velocity scan.  The local Lax-Friedrichs dissipation
# coefficient needs max|H_p| over the slope interval; the defining maximum
# is taken uniformly over the other slope, which is unbounded for general
# H, so we freeze the other slope at its centered value and scan the
# interval at this fixed resolution.  Exact whenever |H_p| is monotone or
# convex in p (every hamiltonian shipped here).
ALPHA_SAMPLES = 33

CFL_LIMIT = 0.5


class MonotoneKind(Enum):
    EIKONAL = "eikonal"
    LOCAL_LAX_FRIEDRICHS = "llf"


@dataclass(frozen=True)
class MonotoneScheme:
    kind: MonotoneKind


@dataclass(frozen=True)
class CflReport:
    passed: bool
    value: float          # max(lam_x * vmax_p, lam_y * vmax_q)
    margin: float         # CFL_LIMIT - value
    lam_x: float
    lam_y: float


class CflViolation(RuntimeError):
    pass


def h_eikonal(pm, pp, qm, qp):
    """Upwind hamiltonian sqrt(max{p-, -p+, 0}^2 + max{q-, -q+, 0}^2).

    On matched slopes (p, p, q, q) the inner max is |p|, so the value is
    exactly sqrt(p^2 + q^2); opposing outward slopes (rarefaction) give 0.
    """
    a = np.maximum(np.maximum(pm, -np.asarray(pp, dtype=np.float64)), 0.0)
    b = np.maximum(np.maximum(qm, -np.asarray(qp, dtype=np.float64)), 0.0)
    return np.sqrt(a * a + b * b)


def _scan_max_abs(deriv, x, y, lo, hi, other, other_is_q: bool) -> np.ndarray:
    """max over the interval [lo, hi] (sampled) of |deriv| with the other
    slope frozen."""
    t = np.linspace(0.0, 1.0, ALPHA_SAMPLES)
    t = t.reshape((-1,) + (1,) * np.ndim(lo))
    samples = lo + t * (hi - lo)
    if other_is_q:
        vals = np.abs(deriv(x, y, samples, other))
    else:
        vals = np.abs(deriv(x, y, other, samples))
    return vals.max(axis=0)


def h_llf(H: Hamiltonian, x, y, pm, pp, qm, qp):
    """Local Lax-Friedrichs hamiltonian: H at slope averages minus the
    scanned-velocity dissipation on each axis."""
    pc = 0.5 * (np.asarray(pm, dtype=np.float64) + pp)
    qc = 0.5 * (np.asarray(qm, dtype=np.float64) + qp)
    if H.alpha_p is not None:
        ax = H.alpha_p(x, y, np.minimum(pm, pp), np.maximum(pm, pp), qc)
    else:
        ax = _scan_max_abs(H.dp, x, y, np.minimum(pm, pp), np.maximum(pm, pp),
                           qc, other_is_q=True)
    if H.alpha_q is not None:
        ay = H.alpha_q(x, y, np.minimum(qm, qp), np.maximum(qm, qp), pc)
    else:
        ay = _scan_max_abs(H.dq, x, y, np.minimum(qm, qp), np.maximum(qm, qp),
                           pc, other_is_q=False)
    return (H.eval(x, y, pc, qc)
            - 0.5 * ax * (pp - pm) - 0.5 * ay * (qp - qm))


def one_sided_slopes(field: GridField):
    """(Dx-, Dx+, Dy-, Dy+) arrays of one-sided difference quotients."""
    u = field.values
    dx, dy = field.grid.dx, field.grid.dy
    at = field.neighbors(1)
    dxm = (u - at(-1, 0)) / dx
    dxp = (at(1, 0) - u) / dx
    dym = (u - at(0, -1)) / dy
    dyp = (at(0, 1) - u) / dy
    return dxm, dxp, dym, dyp


def monotone_hamiltonian(scheme: MonotoneScheme, H: Hamiltonian,
                         x, y, pm, pp, qm, qp):
    if scheme.kind is MonotoneKind.EIKONAL:
        if not H.is_eikonal:
            raise ValueError("eikonal monotone scheme only applies to H = |grad u|")
        return h_eikonal(pm, pp, qm, qp)
    return h_llf(H, x, y, pm, pp, qm, qp)


def cfl_check(scheme: MonotoneScheme, H: Hamiltonian, dt: float,
              grid: Grid2D) -> CflReport:
    """Simplified step-restriction test max(lam * vmax) <= 1/2."""
    lam_x = dt / grid.dx
    lam_y = dt / grid.dy
    value = max(lam_x * H.vmax_p, lam_y * H.vmax_q)
    return CflReport(passed=value <= CFL_LIMIT + 1e-12, value=value,
                     margin=CFL_LIMIT - value, lam_x=lam_x, lam_y=lam_y)


def monotone_step(field: GridField, scheme: MonotoneScheme, H: Hamiltonian,
                  dt: float) -> GridField:
    """One forward step of the monotone scheme.  Refuses to run when the
    step restriction fails rather than silently clipping dt."""
    report = cfl_check(scheme, H, dt, field.grid)
    if not report.passed:
        raise CflViolation(
            f"time step violates the stability bound: "
            f"max(lam*vmax) = {report.value:.4g} > {CFL_LIMIT}")
    x, y = field.grid.meshes()
    pm, pp, qm, qp = one_sided_slopes(field)
    h = monotone_hamiltonian(scheme, H, x, y, pm, pp, qm, qp)
    return field.like(field.values - dt * h)
