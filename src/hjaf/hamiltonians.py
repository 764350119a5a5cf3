"""Hamiltonian evaluation interface H(x, y, p, q) with derivative closures.

Every hamiltonian brings the closures the solver calls: analytic partial
derivatives (H_x, H_y exactly when H depends on (x, y): ``space_dependent``)
and, for local Lax-Friedrichs (every H but the eikonal one), the interval
bounds max|H_p|, max|H_q| in closed form.  Velocity bounds vmax_p >= max|H_p|,
vmax_q >= max|H_q| feed the step restriction check; construction checks
that both are finite and positive, and that H brings H_x and H_y or neither.
A closure returns its formula, broadcast by its reader (a constant: a float).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

ArrayFn = Callable[..., "np.ndarray | float"]


@dataclass(frozen=True, kw_only=True)
class Hamiltonian:
    eval: ArrayFn                 # (x, y, p, q) -> value
    dp: ArrayFn                   # dH/dp
    dq: ArrayFn                   # dH/dq
    dx_: ArrayFn | None = None    # dH/dx at frozen (p, q); None: H is
    dy_: ArrayFn | None = None    # independent of (x, y), and so is dH/dy
    vmax_p: float
    vmax_q: float
    is_eikonal: bool = False
    # Interval bounds: the exact maximum of |H_p| over p between a and b,
    # in either order, at frozen q (and the q analog), in closed form; the
    # local Lax-Friedrichs scheme needs both, the eikonal scheme neither.
    # Signature (x, y, a, b, frozen_other) -> value, broadcast as for dp.
    alpha_p: ArrayFn | None = None
    alpha_q: ArrayFn | None = None

    def __post_init__(self) -> None:
        if not (0 < self.vmax_p < np.inf and 0 < self.vmax_q < np.inf):
            raise ValueError("velocity bounds must be finite and positive, "
                             f"got {self.vmax_p}, {self.vmax_q}")
        if (self.dx_ is None) != (self.dy_ is None):
            raise ValueError("a space-dependent hamiltonian needs dx_ and dy_")

    @property
    def space_dependent(self) -> bool:
        """Whether H depends on (x, y): it brings dx_ and dy_."""
        return self.dx_ is not None


def transport_hamiltonian() -> Hamiltonian:
    """H = p + q: translation at unit speed along both axes."""
    one = lambda *args: 1.0      # H_p = H_q = 1, and so are both bounds
    return Hamiltonian(eval=lambda x, y, p, q: p + q, dp=one, dq=one,
                       vmax_p=1.0, vmax_q=1.0, alpha_p=one, alpha_q=one)


def eikonal_hamiltonian() -> Hamiltonian:
    """H = sqrt(p^2 + q^2): unit-speed front expansion.

    The gradient is undefined at p = q = 0; the closures return 0 there
    (a valid subgradient choice) to keep the switching-parameter formula
    finite at flat or kinked nodes.
    """
    def ev(x, y, p, q):
        return np.sqrt(p * p + q * q)

    def dp(x, y, p, q):
        r = np.sqrt(p * p + q * q)
        return np.divide(p, r, out=np.zeros(np.broadcast(p, r).shape), where=r > 0)

    def dq(x, y, p, q):
        r = np.sqrt(p * p + q * q)
        return np.divide(q, r, out=np.zeros(np.broadcast(q, r).shape), where=r > 0)

    return Hamiltonian(eval=ev, dp=dp, dq=dq, vmax_p=1.0, vmax_q=1.0,
                       is_eikonal=True)


def rotation_hamiltonian(radius: float) -> Hamiltonian:
    """H = -y p + x q: rigid rotation about the origin; ``radius`` bounds
    |x|, |y| over the computational domain for the velocity bounds."""
    return Hamiltonian(
        eval=lambda x, y, p, q: -y * p + x * q,
        dp=lambda x, y, p, q: -y, dq=lambda x, y, p, q: x,
        dx_=lambda x, y, p, q: q, dy_=lambda x, y, p, q: -p,
        vmax_p=radius, vmax_q=radius,
        alpha_p=lambda x, y, a, b, other: np.abs(y),
        alpha_q=lambda x, y, a, b, other: np.abs(x),
    )


def shifted_quadratic_hamiltonian(slope_bound: float) -> Hamiltonian:
    """H = (p+1)^2 + (q+1)^2, a Burgers-like convex hamiltonian;
    ``slope_bound`` bounds |p|, |q| over the run for the velocity bounds."""
    def endpoint_bound(x, y, a, b, other):
        # |2(p+1)| is convex in p: the interval max sits at an endpoint
        return np.maximum(np.abs(2.0 * (a + 1.0)), np.abs(2.0 * (b + 1.0)))

    return Hamiltonian(
        eval=lambda x, y, p, q: (p + 1.0) ** 2 + (q + 1.0) ** 2,
        dp=lambda x, y, p, q: 2.0 * (p + 1.0),
        dq=lambda x, y, p, q: 2.0 * (q + 1.0),
        vmax_p=2.0 * (1.0 + slope_bound), vmax_q=2.0 * (1.0 + slope_bound),
        alpha_p=endpoint_bound, alpha_q=endpoint_bound,
    )
