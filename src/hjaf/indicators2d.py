"""Genuinely two-dimensional smoothness indicators on structured grids.

Around each node, the 3x3-neighborhood regularity is probed quadrant by
quadrant: for each of the four subcells touching the node, a smoothness
coefficient beta is computed for the centered biquadratic interpolant
(index 0) and for the interpolant on the stencil shifted away across that
subcell (index 1).  Each beta is the integral, over the subcell, of scaled
squared derivatives of total order >= 2 of the interpolant; it is O(delta^2)
on smooth data and O(1) when a gradient kink crosses the stencil hull.

One closed-form quadratic in the undivided differences of the inner
stencil, x offsets (z1, 0, -z1) and y offsets (z2, 0, -z2), serves the
four quadrants (z1, z2) in {-1, +1}^2:

    beta = (u20^2 + u02^2 + u11^2 + c21 (u21^2 + u12^2) + c22 u22^2
            + u20 u21 + u02 u12 - (u20 + u02) u22 / 6
            - (u21 + u12) u22 / 12) / (dx dy).

Every difference in it comes from the field's first differences, Fx(m) =
u(m + x) - u(m) and Fy(m) = u(m + y) - u(m), and each is one subtraction
of two arrays laid out like the padded copy (:meth:`Neighbors.difference
<hjaf.grids.Neighbors.difference>`): D(n) = Fx(n) - Fx(n - x) and E(n) =
Fy(n) - Fy(n - y), the field's second differences (the 1D betas' and the
time curvature's too); the cell cross difference C(m) = Fx(m + y) - Fx(m);
P(m) = D(m + y) - D(m) and Q(m) = E(m + x) - E(m); G(n) = P(n) - P(n - y).
Then u20 = D(n + z2 y), u21 = -P(n) for z2 = +1 and P(n - y) for
z2 = -1, u02 and u12 the same with E, Q and z1, u11 = +-C on the
quadrant's cell (read squared), and u22 = G in all four quadrants.  The
beta splits into an x part X(z2) = u20 (u20 + u21 - u22/6) +
u21 (c21 u21 - u22/12), a y part Y(z1) alike, and two shared terms:

    beta(z1, z2) = (((X(z2) + Y(z1)) + C^2) + c22 G^2) / (dx dy),

two runs per axis part and one per shared term, each summed in this order.

Mirroring the data on an axis negates every first difference along it
exactly, and every later value is a difference, or a fixed-order sum or
product, of such values (the sign of u21 is carried by the operation that
reads it); so the betas of mirrored data are the mirrored betas, with
their quadrants swapped, bit for bit.  A symmetric sum (u[+1] + u[-1]) - 2u
would round relative to |u| rather than to the differences, and lose
digits on near-affine data.  Each first difference rounds once; from
there the longest path to a beta, the term c21 u21^2, passes 14
roundings (the coefficients' own included), so a beta is within
gamma_14 = 14u / (1 - 14u) times the formula evaluated on magnitudes of
the beta that the rounded first differences give exactly.

The outer stencil of quadrant (z1, z2) at node n is the inner stencil of
quadrant (-z1, -z2) at node n + (z1, z2), so the field kernel evaluates
only the four inner betas, on the grid extended by one node per side, and
reads every outer beta as a shifted view.  Every kernel works in the run
layout of :mod:`hjaf.grids` and names each read by its node offset: the
differences are laid out like the padded copy, the inner betas are runs
over the grid grown by one node, the WENO terms are read like the inner
betas, the weights are runs over the grid, and only the combined weight
is cut back to the grid's shape.

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

What a step computes: an adaptive step reads the trust mask alone.  The
rounded g is non-decreasing on every double (:func:`map_g`), so the
minimum of the remapped quadrant weights is g of the smallest raw one,
and the mask is that raw weight thresholded at w*, the smallest double
with g(w*) >= M (:func:`weight_threshold`): no g pass, bitwise the same
mask.  The combined weight omega is g of that same smallest weight,
built only when it is read (the written maps, ``hjaf indicators``).
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
from .indicators1d import (Indicator1DConfig, Smoothness, Variant1D, map_g,
                           normalized_weight, omega_field_1d, phi_1d,
                           refuse_unusable_weight, weno_term)

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


def _axis_parts(second, third, c21_third, g6, g12, across):
    """{z: u20 (u20 + u21 - u22/6) + u21 (c21 u21 - u22/12)} for z = +1, -1,
    runs over the grid grown by one node: the part of the inner beta that
    reads one axis, for the quadrants on the z side of the node across it.

    ``second`` holds the axis's second difference D, ``third`` P(m) =
    D(m + across) - D(m) and ``c21_third`` c21 P, laid out like the padded
    copy.  u20 is D(n + z across) and u21 is -z P(n + min(z, 0) across):
    the sign goes into the two operations that read u21, so no run is
    negated and every result is bitwise the one from the negated operand."""
    (cj, ci), parts = across, {}
    for z in (1, -1):
        b = min(z, 0)
        u20 = second(z * cj, z * ci, grow=1)
        p = third(b * cj, b * ci, grow=1)
        cp = c21_third(b * cj, b * ci, grow=1)
        t = (np.subtract if z > 0 else np.add)(u20, p)  # u20 + u21
        t -= g6
        t *= u20
        s = (np.add if z > 0 else np.subtract)(cp, g12)  # -z (c21 u21 - u22/12)
        s *= p
        t += s
        parts[z] = t
    return parts


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
    c21, c22 = coeffs
    at, (d, e) = field.neighbors(), field.second_differences()
    # Fx, D and E are memo entries of the field, every other difference one
    # subtraction of them (at.difference); the inner betas, runs over the
    # grid grown by one node, read each at most one node away.
    cells = at.difference(field.first_differences()[0], 0, 1)  # C(m)
    np.square(cells, out=cells)
    p = at.difference(d, 0, 1)
    third = at.of(p)
    g = np.subtract(third(grow=1), third(0, -1, grow=1))  # G(n)
    g6, g12 = g / 6.0, g / 12.0
    g2 = np.square(g)
    g2 *= c22
    x_parts = _axis_parts(at.of(d), third, at.of(c21 * p), g6, g12, (0, 1))
    del p, third
    q = at.difference(e, 1)
    y_parts = _axis_parts(at.of(e), at.of(q), at.of(c21 * q), g6, g12, (1, 0))
    del q
    cells, dxdy, inner = at.of(cells), field.grid.dx * field.grid.dy, {}
    for z1, z2 in QUADRANTS.values():
        beta = np.add(x_parts[z2], y_parts[z1])
        beta += cells(min(z1, 0), min(z2, 0), grow=1)
        beta += g2
        beta /= dxdy
        beta.flags.writeable = False
        inner[z1, z2] = at.of(beta, 1)
    return {key: (at.grid(inner[z1, z2]()), at.grid(inner[-z1, -z2](z1, z2)))
            for key, (z1, z2) in QUADRANTS.items()}


def _least_weight(field: GridField, cfg: Indicator2DConfig) -> np.ndarray:
    """The smallest raw quadrant weight w(beta0, beta1) at every node, in
    the grid's shape (a NaN weight gives NaN)."""
    sigma_h = cfg.sigma * field.grid.delta ** 2
    betas = quadrant_beta_fields(field, cfg.variant)
    # Every beta0 views its quadrant's inner beta run, which the opposite
    # quadrant's beta1 shares: one WENO term per inner run, taken for one
    # opposite pair at a time and laid out like the run, over the grid
    # grown by one node per side.
    at, least = field.neighbors(), None
    for pair in (("--", "++"), ("+-", "-+")):
        terms = {key: at.of(weno_term(betas[key][0].base, sigma_h), 1)
                 for key in pair}
        for key, opposite in (pair, pair[::-1]):
            z1, z2 = QUADRANTS[key]
            w = normalized_weight(terms[key](), terms[opposite](z1, z2))
            least = w if least is None else np.minimum(least, w, out=least)
    return at.grid(least)


def omega_field_2d(field: GridField, cfg: Indicator2DConfig) -> np.ndarray:
    """Combined smoothness weight at every node: min over the four
    remapped quadrant weights g(w(beta0, beta1)), which is g of the
    smallest raw one (splitting baseline when so configured)."""
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        if cfg.variant is Formula2D.SPLIT:
            return omega_split_field(field, cfg)
        return map_g(_least_weight(field, cfg))


def omega_split_field(field: GridField, cfg: Indicator2DConfig) -> np.ndarray:
    """Dimensional-splitting baseline: min of the two axis-wise remapped
    1D weights (the 1D config's default variant), each with the other axis
    frozen, which is g of the smallest raw side weight."""
    axis_cfg = Indicator1DConfig(sigma=cfg.sigma, M=cfg.M, variant=Variant1D.RAW)
    return map_g(np.minimum(omega_field_1d(field, axis_cfg, "x"),
                            omega_field_1d(field, axis_cfg, "y")))


# The trust mask is the plain threshold omega >= M in 2D as in 1D.
phi_2d = phi_1d


@functools.lru_cache(maxsize=16)
def weight_threshold(M: float) -> float:
    """The smallest double w* with map_g(w*) >= M, for M in (0, 1/2).

    The rounded g is non-decreasing (:func:`map_g`), so map_g(w) >= M is
    w >= w* on every double w.  Bisected over the bit patterns of the
    doubles of [0, 1/2], which map_g takes to 0 and 1/2.
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
    return float(double(hi))


def smoothness_2d(field: GridField, cfg: Indicator2DConfig) -> Smoothness:
    """Weight and trust mask of ``field``.

    The mask is the smallest raw quadrant weight thresholded at w*
    (:func:`weight_threshold`), bitwise the threshold of the combined
    weight, which is g of that smallest weight, built only when ``omega``
    is read.  The splitting baseline thresholds its combined weight.  A
    NaN in the weight thresholded, or a sigma_h too small for two WENO
    terms to sum, raises ValueError (:func:`refuse_unusable_weight`).
    """
    grid = field.grid
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        if cfg.variant is Formula2D.SPLIT:
            omega = omega_split_field(field, cfg)
            refuse_unusable_weight(field, omega,
                                   sigma_h_x=cfg.sigma * grid.dx ** 2,
                                   sigma_h_y=cfg.sigma * grid.dy ** 2)
            return Smoothness(omega=omega, phi=phi_2d(omega, cfg))
        least = _least_weight(field, cfg)
        refuse_unusable_weight(field, least, sigma_h=cfg.sigma * grid.delta ** 2)
    return Smoothness(omega=functools.partial(map_g, least),
                      phi=least >= weight_threshold(cfg.M))
