"""Genuinely two-dimensional smoothness indicators on structured grids.

Around each node, the 3x3-neighborhood regularity is probed quadrant by
quadrant: for each of the four subcells touching the node, a smoothness
coefficient beta is computed for the centered biquadratic interpolant
(index 0) and for the interpolant on the stencil shifted away across that
subcell (index 1).  Each beta is the integral, over the subcell, of scaled
squared derivatives of total order >= 2 of the interpolant; it is O(delta^2)
on smooth data and O(1) when a gradient kink crosses the stencil hull.

A single closed-form quadratic in undivided differences evaluates all four
quadrants: the differences are taken as forward differences along *ordered*
stencils whose listing order absorbs every sign flip.  With x offsets
(z1, 0, -z1) / (0, z1, 2*z1) for the inner/outer stencil (same in y with
z2), one formula serves the four (z1, z2) in {-1, +1}^2.

The ordering also makes the outer stencil of quadrant (z1, z2) at node n
the inner stencil of quadrant (-z1, -z2) at node n + (z1, z2), listed in
the same order, so the two betas agree bit for bit.  The field kernel
therefore evaluates only the four inner betas, on the grid extended by one
node per side, and reads every outer beta as a shifted view.  Every kernel
works in the run layout of :mod:`hjaf.grids` and names each read by its
node offset: the inner betas are runs over the grid grown by one node,
read from the field's padded copy and its second differences (a memo
entry the time curvature and the 1D betas read too), the WENO terms are
read like the inner betas, the weights are runs over the grid, and only
the combined weight is cut back to the grid's shape.

Two coefficient sets are provided: FULL keeps every derivative with total
order >= 2 (per-axis order <= 2); PARTIAL keeps only total order exactly 2.
Each quadrant's pair gives the 1D WENO weight
(:func:`hjaf.indicators1d.weno_weight`) remapped by g, and the combined
weight is the minimum over the quadrants.  The WENO term
1 / (beta + sigma_h)**2 is evaluated once on each of the four inner beta
runs, one opposite pair of quadrants at a time, and both terms of every
quadrant are read as slices of them.  The trust mask is the 1D one, the
plain threshold omega >= M (:func:`phi_2d`), and both dimensions return
one result, :class:`hjaf.indicators1d.Smoothness`.

What a step computes: an adaptive step reads the trust mask alone.  g is
non-decreasing, so where the rounded test g(w) >= M is w >= w* on every
double w (:func:`weight_threshold`, certified once per M at first use),
the mask is the threshold of g at the smallest raw quadrant weight: one
g pass instead of four, bitwise the same mask.  The combined weight
omega is then built only when it is read (the written maps, ``hjaf
indicators``).  An M that is not certified (such as 0.49, near the flat
point of g) and the splitting baseline build omega on every step.
A dimensional-splitting baseline built from the remapped 1D indicator is
included for comparison; it is blind to singularities whose axis
restrictions look smooth (e.g. a non-differentiable point with vanishing
axis slopes).
"""
from __future__ import annotations

import functools
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .grids import GridField
from .indicators1d import (Indicator1DConfig, Smoothness, map_g,
                           normalized_weight, omega_field_1d, phi_1d,
                           weno_term)

# Quadrants keyed by the sign of the subcell relative to the node,
# (z1, z2) = (x side, y side).
QUADRANTS: dict[str, tuple[int, int]] = {
    "--": (-1, -1),
    "+-": (1, -1),
    "-+": (-1, 1),
    "++": (1, 1),
}

# Coefficients (c21, c22) of the squared (2,1)/(1,2) and (2,2) undivided
# differences in the closed form.  FULL sums every mixed derivative of
# total order >= 2 of the biquadratic; PARTIAL restricts to total order 2.
# Values are fixed by exact agreement with Gauss quadrature of the
# defining subcell integral (see the oracle tests).
FULL_COEFFS = (17.0 / 12.0, 857.0 / 720.0)
PARTIAL_COEFFS = (5.0 / 12.0, 17.0 / 720.0)


class Formula2D(Enum):
    FULL = "full"
    PARTIAL = "partial"
    SPLIT = "split"


@dataclass(frozen=True)
class Indicator2DConfig:
    """sigma scales sigma_h = sigma * delta**2 with delta = max(dx, dy);
    M thresholds the combined weight."""

    sigma: float = 2.0
    M: float = 0.2
    variant: Formula2D = Formula2D.FULL

    def __post_init__(self) -> None:
        if not 0 < self.sigma < np.inf:
            raise ValueError(f"sigma must be finite and positive, got {self.sigma}")
        if not 0 < self.M < 0.5:
            raise ValueError(f"threshold M must lie in (0, 1/2), got {self.M}")
        if not isinstance(self.variant, Formula2D):
            raise ValueError(f"variant must be a Formula2D member, got {self.variant!r}")


def _beta_from_diffs(u20, u02, u11, u21, u12, u22, dxdy, coeffs):
    """The closed-form quadratic

        (u20^2 + u02^2 + u11^2 + c21 (u21^2 + u12^2) + c22 u22^2
         + u20 u21 + u02 u12 - (u20 + u02) u22 / 6
         - (u21 + u12) u22 / 12) / dxdy,

    summed left to right as written, into two scratch arrays and the
    result."""
    c21, c22 = coeffs
    v = np.square(u20)
    a = np.square(u02)
    v += a
    v += np.square(u11, out=a)
    b = np.square(u21)
    b += np.square(u12, out=a)
    b *= c21
    v += b
    np.square(u22, out=a)
    a *= c22
    v += a
    v += np.multiply(u20, u21, out=a)
    v += np.multiply(u02, u12, out=a)
    np.add(u20, u02, out=a)
    a *= u22
    a /= 6.0
    v -= a
    np.add(u21, u12, out=a)
    a *= u22
    a /= 12.0
    v -= a
    v /= dxdy
    return v


def quadrant_beta_fields(field: GridField, formula: Formula2D = Formula2D.FULL,
                         ) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """(beta0, beta1) arrays for each quadrant, for every node at once.

    The arrays are read-only grid views.  Each beta0 views its quadrant's
    inner beta, a run over the grid extended by one node per side (the
    view's ``base``), and each beta1 shares that run with the opposite
    quadrant's beta0.
    """
    if field.ndim != 2:
        raise ValueError("quadrant smoothness coefficients need a 2D field")
    coeffs = {Formula2D.FULL: FULL_COEFFS,
              Formula2D.PARTIAL: PARTIAL_COEFFS}.get(formula)
    if coeffs is None:     # the split baseline, or not a formula at all
        raise ValueError(f"the formula {formula!r} has no quadrant betas")
    dxdy = field.grid.dx * field.grid.dy
    at = field.neighbors()
    # Inner betas live on the grid grown by one node per side (nodes -1..n
    # per axis), whose stencils reach two nodes past the grid: every read
    # is a run over that grown grid.
    d2x, d2y = field.second_differences()
    inner = {}
    for z1, z2 in QUADRANTS.values():
        # Inner stencil (z1, 0, -z1) x (z2, 0, -z2): listings -z1 and -z2,
        # the x one read on the stencil's rows b, the y one on its columns a.
        x, y = at.of(d2x[-z1]), at.of(d2y[-z2])
        dxx = [x(0, b, grow=1) for b in (z2, 0, -z2)]
        dyy = [y(a, 0, grow=1) for a in (z1, 0)]
        u11 = at(0, 0, 1) - at(z1, 0, 1)
        u11 -= at(0, z2, 1)
        u11 += at(z1, z2, 1)
        u22 = np.multiply(2.0, dxx[1])
        np.subtract(dxx[2], u22, out=u22)
        u22 += dxx[0]
        beta = _beta_from_diffs(dxx[0], dyy[0], u11, dxx[1] - dxx[0],
                                dyy[1] - dyy[0], u22, dxdy, coeffs)
        beta.flags.writeable = False
        inner[z1, z2] = at.of(beta, 1)
    return {key: (at.grid(inner[z1, z2]()), at.grid(inner[-z1, -z2](z1, z2)))
            for key, (z1, z2) in QUADRANTS.items()}


def _quadrant_weights(field: GridField, cfg: Indicator2DConfig):
    """The raw weight w(beta0, beta1) of each quadrant in turn, a run over
    the grid in the layout of ``field.neighbors()``."""
    sigma_h = cfg.sigma * field.grid.delta ** 2
    betas = quadrant_beta_fields(field, cfg.variant)
    # Every beta0 views its quadrant's inner beta run, which the opposite
    # quadrant's beta1 shares: one WENO term per inner run, taken for one
    # opposite pair at a time and laid out like the run, over the grid
    # grown by one node per side.
    at = field.neighbors()
    for pair in (("--", "++"), ("+-", "-+")):
        terms = {key: at.of(weno_term(betas[key][0].base, sigma_h), 1)
                 for key in pair}
        for key, opposite in (pair, pair[::-1]):
            z1, z2 = QUADRANTS[key]
            yield normalized_weight(terms[key](), terms[opposite](z1, z2))


def _least(runs):
    """Elementwise minimum of fresh arrays, kept in the first (a NaN
    anywhere gives NaN)."""
    least = None
    for run in runs:
        least = run if least is None else np.minimum(least, run, out=least)
    return least


def omega_field_2d(field: GridField, cfg: Indicator2DConfig) -> np.ndarray:
    """Combined smoothness weight at every node: min over the four
    remapped quadrant weights g(w(beta0, beta1)) (splitting baseline when
    so configured)."""
    if cfg.variant is Formula2D.SPLIT:
        return omega_split_field(field, cfg)
    return field.neighbors().grid(
        _least(map_g(w) for w in _quadrant_weights(field, cfg)))


def omega_split_field(field: GridField, cfg: Indicator2DConfig) -> np.ndarray:
    """Dimensional-splitting baseline: min of the two axis-wise remapped
    1D weights (the 1D config's default variant), each with the other axis
    frozen."""
    axis_cfg = Indicator1DConfig(sigma=cfg.sigma, M=cfg.M)
    return np.minimum(omega_field_1d(field, axis_cfg, "x"),
                      omega_field_1d(field, axis_cfg, "y"))


# The trust mask is the plain threshold omega >= M in 2D as in 1D.
phi_2d = phi_1d


# The crossing of a threshold M is checked double by double over this many
# doubles on each side of it (a 32 KB band), and by the rounding error of
# map_g beyond them.
CROSSING_BAND = 2048


@functools.lru_cache(maxsize=16)
def weight_threshold(M: float) -> float | None:
    """The smallest double w* with map_g(w*) >= M, if the rounded test
    map_g(w) >= M is w >= w* on every double w; else None.

    The exact g is non-decreasing, but its rounded value wobbles where g'
    is small, near w = 1/2 (M = 0.49 is refused).  Certified in three
    steps:

    - bisect the doubles of [0, 1/2], which map_g takes to 0 and 1/2, for
      a crossing w*;
    - the test must read w >= w* on each of the ``CROSSING_BAND`` doubles
      on either side of it;
    - beyond the band, the rounding error of map_g as written decides: on
      [0, 1], where map_g clips every input, it lies within
      23 u g(w) + 12 eta of the exact g(w) (u = 2^-53, eta = 2^-1075 for
      underflow; 4 w is exact, five operations round, and
      3/4 - 3/2 w + w^2 >= 3/16).  The exact g at each end of the band
      must clear M by 2^-48 g + 2^-1071 (:func:`_g_clears`).
    """
    def double(bits):
        return np.int64(bits).view(np.float64)

    lo, hi = 0, int(np.float64(0.5).view(np.int64))
    while hi - lo > 1:      # map_g(double(lo)) < M <= map_g(double(hi))
        mid = (lo + hi) // 2
        if map_g(double(mid)) >= M:
            hi = mid
        else:
            lo = mid
    w_star = double(hi)
    band = np.arange(max(hi - CROSSING_BAND, 0), hi + CROSSING_BAND,
                     dtype=np.int64).view(np.float64)
    certified = (np.array_equal(map_g(band) >= M, band >= w_star)
                 and _g_clears(band[0], M, -1) and _g_clears(band[-1], M, 1))
    return float(w_star) if certified else None


def _g_clears(w: float, M: float, side: int) -> bool:
    """Whether the exact g(w), moved towards M by map_g's rounding bound
    2^-48 g + 2^-1071, stays below M (``side`` -1) or at or above it (+1).

    Exact: with w = n/d and M = p/q, g(w) = (3 n d^2 - 6 n^2 d + 4 n^3)/d^3,
    and both sides are integers once scaled by 2^1071 d^3 q.
    """
    n, d = float(w).as_integer_ratio()
    p, q = float(M).as_integer_ratio()
    g_num, g_den = 3 * n * d * d - 6 * n * n * d + 4 * n ** 3, d ** 3
    moved = g_num * q * (2 ** 1071 - side * 2 ** 1023) - side * g_den * q
    bar = p * g_den * 2 ** 1071
    return moved < bar if side < 0 else moved >= bar


def smoothness_2d(field: GridField, cfg: Indicator2DConfig) -> Smoothness:
    """Weight and trust mask of ``field``.

    Where the threshold is certified (:func:`weight_threshold`), the mask
    is taken from the smallest raw quadrant weight, one map_g pass instead
    of four, and is bitwise the threshold of the combined weight; that
    weight is then built only when ``omega`` is read.  The splitting
    baseline and an uncertified M threshold the combined weight.
    """
    if cfg.variant is Formula2D.SPLIT or weight_threshold(cfg.M) is None:
        omega = omega_field_2d(field, cfg)
        return Smoothness(omega=omega, phi=phi_2d(omega, cfg))
    least = field.neighbors().grid(_least(_quadrant_weights(field, cfg)))
    return Smoothness(omega=functools.partial(omega_field_2d, field, cfg),
                      phi=phi_2d(map_g(least), cfg))
