"""Benchmark problem registry: detection cases and evolution problems.

Detection cases (ids 1-4) are fixed functions with known gradient kinks,
used to exercise the smoothness indicators with the singular set either on
grid nodes or strictly inside cells.  Evolution problems (ids 5-8) carry a
hamiltonian, initial data, boundary rule, final time and an exact-solution
oracle; their base grid/step pairs double together under refinement so the
time-to-space ratio stays fixed.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .grids import BoundaryCondition, Grid1D, Grid2D, GridField
from .hamiltonians import (Hamiltonian, eikonal_hamiltonian,
                           rotation_hamiltonian, shifted_quadratic_hamiltonian,
                           transport_hamiltonian)

SQRT2_HALF = math.sqrt(2.0) / 2.0

# Where a detection field puts the singular set: on grid nodes, or
# strictly inside cells.
PLACEMENTS = ("node", "cell")

# Fraction of a cell by which in-cell placements shift the grid origin,
# putting the singular set left of (below) the cell midpoint.
IN_CELL_SHIFT = 0.3


@dataclass(frozen=True)
class IndicatorCase:
    """A fixed function with a known singular set, for detector studies."""

    id: str
    name: str
    func: Callable
    xlim: tuple[float, float]
    ylim: tuple[float, float] | None  # None for 1D cases

    @property
    def dims(self) -> int:
        return 1 if self.ylim is None else 2

    def build_field(self, dx: float, placement: str = "node") -> GridField:
        """Sample the case function on a periodic grid of spacing dx, with
        the singular set on nodes (``"node"``) or inside cells (``"cell"``).

        Periodic indexing is used for all detection studies even when the
        function itself is not periodic; spurious flags at the domain seam
        are an accepted artifact of that choice.
        """
        if placement not in PLACEMENTS:
            raise ValueError(f"placement must be node or cell, got {placement!r}")
        if not (math.isfinite(dx) and dx > 0):
            raise ValueError(f"dx must be finite and positive, got {dx}")
        offset = -IN_CELL_SHIFT * dx if placement == "cell" else 0.0
        a, b = self.xlim
        n = round((b - a) / dx)
        if self.dims == 1:
            grid = Grid1D(x0=a + offset, dx=dx, n=n)
            values = self.func(grid.nodes())
            return GridField(grid, values, BoundaryCondition.PERIODIC)
        c, d = self.ylim
        grid = Grid2D(x0=a + offset, y0=c + offset, dx=dx, dy=dx,
                      nx=n, ny=round((d - c) / dx))
        X, Y = grid.meshes()
        return GridField(grid, self.func(X, Y), BoundaryCondition.PERIODIC)


@dataclass(frozen=True)
class ProblemSpec:
    """An evolution benchmark with exact-solution oracle."""

    id: str
    name: str
    xlim: tuple[float, float]
    ylim: tuple[float, float]
    hamiltonian: Hamiltonian
    initial: Callable            # (X, Y) -> values
    bc: BoundaryCondition
    T_final: float
    base_nx: int                 # intervals per axis at refinement level 0
    base_nt: int                 # time steps at refinement level 0
    exact: Callable              # (t, X, Y) -> values

    def __post_init__(self) -> None:
        if not 0 < self.T_final < np.inf:
            raise ValueError(f"final time must be finite and positive, "
                             f"got {self.T_final}")
        if self.exact is None:
            raise ValueError(f"problem {self.id} ({self.name}) needs an "
                             "exact-solution oracle")

    def grid(self, level: int = 0) -> Grid2D:
        nx = self.base_nx * 2 ** level
        (a, b), (c, d) = self.xlim, self.ylim
        # a periodic grid leaves out the node that repeats the first one
        n = nx if self.bc is BoundaryCondition.PERIODIC else nx + 1
        return Grid2D(x0=a, y0=c, dx=(b - a) / nx, dy=(d - c) / nx, nx=n, ny=n)

    def n_steps(self, level: int = 0) -> int:
        return self.base_nt * 2 ** level

    def initial_field(self, level: int = 0) -> GridField:
        g = self.grid(level)
        X, Y = g.meshes()
        return GridField(g, self.initial(X, Y), self.bc)

    def exact_field(self, t: float, level: int = 0) -> GridField:
        g = self.grid(level)
        X, Y = g.meshes()
        return GridField(g, self.exact(t, X, Y), self.bc)


# ----------------------------------------------------------------------
# detection-case functions

def piecewise_1d(x):
    """Quartic bump with a derivative kink at 0, glued to a sine with jump
    discontinuities at 2 and 4; zero elsewhere."""
    x = np.asarray(x, dtype=np.float64)
    out = np.zeros_like(x)
    left = (x >= -1.0) & (x <= 1.0)
    out[left] = np.minimum((1.0 - x[left]) ** 2, (1.0 + x[left]) ** 2) ** 2
    right = (x >= 2.0) & (x <= 4.0)
    out[right] = np.sin(0.5 * np.pi * (x[right] - 3.0))
    return out


def cone_2d(x, y):
    """Unit cone: kink point at the origin, kink circle at radius 1."""
    return np.maximum(0.0, 1.0 - np.sqrt(x * x + y * y))


def damped_radial_2d(x, y):
    """-exp(-r^2) sin(r): smooth except for the kink at the origin."""
    r = np.sqrt(x * x + y * y)
    return -np.exp(-(r * r)) * np.sin(r)


def ridge_2d(x, y):
    """y x^2 / (x^2 + y^2): differentiable along both axes at the origin
    yet not differentiable there -- invisible to axis-splitting detectors."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    r2 = x * x + y * y
    return np.divide(y * x * x, r2, out=np.zeros(np.broadcast(x, y).shape),
                     where=r2 > 0)


# ----------------------------------------------------------------------
# evolution initial data and exact solutions

def bump_quintic(x, y):
    return np.maximum(0.0, 1.0 - x * x - y * y) ** 5


def exact_translation(t, x, y):
    return bump_quintic(x - t, y - t)


_R0 = 0.5


def steep_paraboloid(x, y):
    return np.maximum(0.0, (_R0 - (x + 1.0) ** 2 - y * y) / _R0) ** 4


def exact_rotation(t, x, y):
    """Rigid rotation: pull coordinates back along the flow
    (xdot, ydot) = (-y, x)."""
    c, s = math.cos(t), math.sin(t)
    return steep_paraboloid(x * c + y * s, -x * s + y * c)


def two_circles(x, y):
    fm = (1.0 - (x - SQRT2_HALF) ** 2 - (y - SQRT2_HALF) ** 2) / (1.0 - _R0 ** 2)
    fp = (1.0 - (x + SQRT2_HALF) ** 2 - (y + SQRT2_HALF) ** 2) / (1.0 - _R0 ** 2)
    return 0.5 - 0.5 * np.maximum(np.maximum(0.0, fm) ** 4,
                                  np.maximum(0.0, fp) ** 4)


def two_squares(x, y):
    return eroded_two_squares(0.0, x, y)


def eroded_max_norm(wx, wy, t: float):
    """min of max(|wx + dx|, |wy + dy|) over the closed disc
    dx^2 + dy^2 <= t^2: with a >= b the sorted |w_i|, a - t while that
    stays >= b, else the level s with (a - s)^2 + (b - s)^2 = t^2; 0
    once the disc holds the origin.  At t = 0 it is a, exactly."""
    a = np.maximum(np.abs(wx), np.abs(wy))
    b = np.minimum(np.abs(wx), np.abs(wy))
    # 2t^2 - (a - b)^2 >= t^2 > 0 wherever the level s is read
    root = np.sqrt(np.maximum(2.0 * t * t - (a - b) ** 2, 0.0))
    s = np.where(a - t >= b, a - t, 0.5 * ((a + b) - root))
    return np.maximum(s, 0.0)


def eroded_two_squares(t, x, y):
    """Exact solution of test 7b: two_squares eroded by the closed disc
    of radius t (Hopf-Lax for H = |grad u|), one piece at a time, since
    the minimum of a min is the min of the minima.  Each square is a
    max-norm ball, of x - c1 with c1 = (sqrt2/2, sqrt2/2) and of
    M (x - c2) with c2 = (-1, -1), M = sqrt(R0) [[1, 1], [1, -1]]; M is
    orthogonal since R0 = 1/2, so it maps the disc onto itself."""
    if t < 0:
        raise ValueError("time must be nonnegative")
    sx = np.sqrt(_R0) * x + SQRT2_HALF
    sy = np.sqrt(_R0) * y + SQRT2_HALF
    s1 = eroded_max_norm(x - SQRT2_HALF, y - SQRT2_HALF, t)
    s2 = eroded_max_norm(sx + sy, sx - sy, t)
    return np.minimum(np.minimum(s1 - _R0, s2 - _R0), 0.5 * _R0 ** 2)


def cosine_sum(x, y):
    return -0.5 * (np.cos(np.pi * x) + np.cos(np.pi * y))


# --- variational oracle for the Burgers-like problem ------------------

HOPF_LAX_WINDOW = (-6.0, 6.0)
HOPF_LAX_SCAN = 2401
GOLDEN_TOL = 1e-10
_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def _hopf_lax_objective(a, t, xi):
    """Per-axis variational objective: initial profile carried back along a
    candidate characteristic speed a, plus the convex dual of (p+1)^2."""
    return -0.5 * np.cos(np.pi * (xi - a * t)) + t * (0.25 * a * a - a)


def hopf_lax_min_1d(t: float, xi, return_argmin: bool = False):
    """min over the speed window of the per-axis objective, at each xi.

    Dense scan brackets the global minimum (the objective oscillates on a
    scale pi*t in a, far coarser than the scan step), then a golden-section
    pass tightens the bracket to GOLDEN_TOL.
    """
    xi = np.atleast_1d(np.asarray(xi, dtype=np.float64))
    lo, hi = HOPF_LAX_WINDOW
    if t < 0:
        raise ValueError("time must be nonnegative")
    if t == 0:
        vals = -0.5 * np.cos(np.pi * xi)
        arg = np.full_like(xi, 2.0)  # limit minimizer of the dual term
        return (vals, arg) if return_argmin else vals
    grid = np.linspace(lo, hi, HOPF_LAX_SCAN)
    obj = _hopf_lax_objective(grid[:, None], t, xi[None, :])
    best = np.argmin(obj, axis=0)
    step = grid[1] - grid[0]
    a = np.maximum(grid[best] - step, lo)
    b = np.minimum(grid[best] + step, hi)
    # vectorized golden-section on the per-node brackets
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc = _hopf_lax_objective(c, t, xi)
    fd = _hopf_lax_objective(d, t, xi)
    while np.max(b - a) > GOLDEN_TOL:
        left = fc < fd               # minimum lies in [a, d]
        b = np.where(left, d, b)
        a = np.where(left, a, c)
        c_cand = b - _INVPHI * (b - a)
        d_cand = a + _INVPHI * (b - a)
        new_c = np.where(left, c_cand, d)
        new_d = np.where(left, c, d_cand)
        new_fc = np.where(left, _hopf_lax_objective(c_cand, t, xi), fd)
        new_fd = np.where(left, fc, _hopf_lax_objective(d_cand, t, xi))
        c, d, fc, fd = new_c, new_d, new_fc, new_fd
    mid = 0.5 * (a + b)
    vals = _hopf_lax_objective(mid, t, xi)
    return (vals, mid) if return_argmin else vals


def exact_burgers_like(t, x, y):
    """Separable variational solution: per-axis minimization in x plus the
    same in y (the evolution splits into two 1D problems)."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    xs, xinv = np.unique(np.round(x, 12), return_inverse=True)
    ys, yinv = np.unique(np.round(y, 12), return_inverse=True)
    wx = hopf_lax_min_1d(t, xs)
    wy = hopf_lax_min_1d(t, ys)
    return (wx[xinv] + wy[yinv]).reshape(np.broadcast(x, y).shape)


# --- erosion oracle for the eikonal fronts -----------------------------

DISC_RADIAL = 64
DISC_ANGULAR = 128
DISC_REFINE_ROUNDS = 3
DISC_REFINE_FACTOR = 16


def disc_min(v0: Callable, t: float, x, y, chunk: int = 2048) -> np.ndarray:
    """min of v0 over the closed disc of radius t around each (x, y).

    This is the exact viscosity solution of u_t + |grad u| = 0 at time t.
    Polar sampling of the disc, then a few rounds of local polar zoom
    around the best sample; the running best is never discarded, so each
    round can only improve the estimate.
    """
    if t < 0:
        raise ValueError("time must be nonnegative")
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if t == 0:
        return v0(x, y)
    shape = np.broadcast(x, y).shape
    xf = np.broadcast_to(x, shape).ravel()
    yf = np.broadcast_to(y, shape).ravel()
    out = np.empty(xf.shape)

    radii = np.linspace(0.0, t, DISC_RADIAL + 1)
    angles = np.linspace(0.0, 2.0 * np.pi, DISC_ANGULAR, endpoint=False)
    offx = (radii[:, None] * np.cos(angles)[None, :]).ravel()
    offy = (radii[:, None] * np.sin(angles)[None, :]).ravel()

    for start in range(0, xf.size, chunk):
        sl = slice(start, min(start + chunk, xf.size))
        cx, cy = xf[sl], yf[sl]
        vals = v0(cx[None, :] + offx[:, None], cy[None, :] + offy[:, None])
        k = np.argmin(vals, axis=0)
        best = vals[k, np.arange(cx.size)]
        bx, by = offx[k], offy[k]
        dr = radii[1] - radii[0]
        da = angles[1] - angles[0]
        r = np.hypot(bx, by)
        th = np.arctan2(by, bx)
        for _ in range(DISC_REFINE_ROUNDS):
            rr = np.clip(r[None, :] + np.linspace(-dr, dr, 2 * DISC_REFINE_FACTOR + 1)[:, None],
                         0.0, t)
            tt = th[None, :] + np.linspace(-da, da, 2 * DISC_REFINE_FACTOR + 1)[:, None]
            # all (radius, angle) pairs of the local patch
            px = (rr[:, None, :] * np.cos(tt[None, :, :])).reshape(-1, cx.size)
            py = (rr[:, None, :] * np.sin(tt[None, :, :])).reshape(-1, cx.size)
            v = v0(cx[None, :] + px, cy[None, :] + py)
            kk = np.argmin(v, axis=0)
            improved = v[kk, np.arange(cx.size)] < best
            best = np.where(improved, v[kk, np.arange(cx.size)], best)
            bx = np.where(improved, px[kk, np.arange(cx.size)], bx)
            by = np.where(improved, py[kk, np.arange(cx.size)], by)
            r, th = np.hypot(bx, by), np.arctan2(by, bx)
            dr /= DISC_REFINE_FACTOR
            da /= DISC_REFINE_FACTOR
        out[sl] = best
    return out.reshape(shape)


# ----------------------------------------------------------------------
# registry

_INDICATOR_CASES = {
    "1": IndicatorCase("1", "piecewise-1d", piecewise_1d, (-1.5, 4.5), None),
    "2": IndicatorCase("2", "cone", cone_2d, (-2.0, 2.0), (-2.0, 2.0)),
    "3": IndicatorCase("3", "damped-radial", damped_radial_2d, (-2.0, 2.0), (-2.0, 2.0)),
    "4": IndicatorCase("4", "axis-blind-ridge", ridge_2d, (-2.0, 2.0), (-2.0, 2.0)),
}

# the fields the two merging-fronts problems share, and the two
# Burgers-like ones (8-regular stops at half of test 8's final time)
_FRONTS = dict(xlim=(-3.0, 3.0), ylim=(-3.0, 3.0),
               hamiltonian=eikonal_hamiltonian(),
               bc=BoundaryCondition.NEUMANN_ZERO, base_nx=30)
_BURGERS = dict(xlim=(0.0, 2.0), ylim=(0.0, 2.0), initial=cosine_sum,
                hamiltonian=shifted_quadratic_hamiltonian(), base_nx=20,
                bc=BoundaryCondition.PERIODIC, exact=exact_burgers_like)
_T_SING = 3.0 / (2.0 * math.pi ** 2)

_PROBLEMS = {p.id: p for p in (
    ProblemSpec(id="5", name="transport-bump", xlim=(-2.0, 2.0),
                ylim=(-2.0, 2.0), hamiltonian=transport_hamiltonian(),
                initial=bump_quintic, bc=BoundaryCondition.NEUMANN_ZERO,
                T_final=0.9, base_nx=40, base_nt=30, exact=exact_translation),
    ProblemSpec(id="6", name="rotating-paraboloid", xlim=(-2.5, 2.5),
                ylim=(-2.5, 2.5), hamiltonian=rotation_hamiltonian(),
                initial=steep_paraboloid, bc=BoundaryCondition.NEUMANN_ZERO,
                T_final=2.0 * math.pi, base_nx=20, base_nt=128, exact=exact_rotation),
    ProblemSpec(id="7a", name="merging-fronts-a", initial=two_circles,
                T_final=0.6, base_nt=12, **_FRONTS,
                exact=lambda t, x, y: disc_min(two_circles, t, x, y)),
    ProblemSpec(id="7b", name="merging-fronts-b", initial=two_squares,
                T_final=0.7, base_nt=14, exact=eroded_two_squares, **_FRONTS),
    ProblemSpec(id="8", name="burgers-like", T_final=_T_SING, base_nt=20,
                **_BURGERS),
    ProblemSpec(id="8-regular", name="burgers-like-regular",
                T_final=_T_SING / 2.0, base_nt=10, **_BURGERS),
)}
_TESTS = {**_INDICATOR_CASES, **_PROBLEMS}

INDICATOR_IDS = tuple(_INDICATOR_CASES)
PROBLEM_IDS = tuple(_PROBLEMS)
ALL_TEST_IDS = INDICATOR_IDS + PROBLEM_IDS


def make_test(test_id: str):
    """Problem registry: detection cases for ids 1-4, evolution problems
    for 5, 6, 7a, 7b, 8 (and the pre-kink variant 8-regular).  Each is a
    frozen value built once at import; every call returns that value."""
    test = _TESTS.get(str(test_id))
    if test is None:
        raise KeyError(f"unknown test id {test_id!r}; choose from {ALL_TEST_IDS}")
    return test
