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
node per side, and reads every outer beta as a shifted view.  All ghost
values come from one array padded by two nodes under the field's boundary
rule (:func:`hjaf.grids.pad_ghosts`), and the trust mask's neighbor ring
reads one padded mask the same way.

Two coefficient sets are provided: FULL keeps every derivative with total
order >= 2 (per-axis order <= 2); PARTIAL keeps only total order exactly 2.
Each quadrant's pair gives the 1D WENO weight
(:func:`hjaf.indicators1d.weno_weight`) remapped by g, and the combined
weight is the minimum over the quadrants, thresholded at M.  The WENO
term 1 / (beta + sigma_h)**2 is evaluated once on each of the four inner
beta arrays, and both terms of every quadrant are read as views.
A dimensional-splitting baseline built from the remapped 1D indicator is
included for comparison; it is blind to singularities whose axis
restrictions look smooth (e.g. a non-differentiable point with vanishing
axis slopes).
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .grids import GridField, pad_ghosts
from .indicators1d import (Indicator1DConfig, Variant1D, map_g,
                           normalized_weight, omega_field_1d, weno_term)

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
        if not self.sigma > 0:
            raise ValueError(f"sigma must be positive, got {self.sigma}")
        if not 0 < self.M < 0.5:
            raise ValueError(f"threshold M must lie in (0, 1/2), got {self.M}")


@dataclass(frozen=True)
class Smoothness2D:
    omega: np.ndarray
    phi: np.ndarray
    untrusted: np.ndarray


def _beta_from_diffs(u20, u02, u11, u21, u12, u22, dxdy, coeffs):
    c21, c22 = coeffs
    v = (u20 ** 2 + u02 ** 2 + u11 ** 2
         + c21 * (u21 ** 2 + u12 ** 2) + c22 * u22 ** 2
         + u20 * u21 + u02 * u12
         - (u20 + u02) * u22 / 6.0
         - (u21 + u12) * u22 / 12.0)
    return v / dxdy


def quadrant_beta_fields(field: GridField, formula: Formula2D = Formula2D.FULL,
                         ) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """(beta0, beta1) arrays for each quadrant, for every node at once.

    The arrays are read-only views.  Each beta0 views its quadrant's inner
    beta on the grid extended by one node per side (the view's ``base``),
    and each beta1 shares that storage with the opposite quadrant's beta0.
    """
    if field.ndim != 2:
        raise ValueError("quadrant smoothness coefficients need a 2D field")
    coeffs = FULL_COEFFS if formula is Formula2D.FULL else PARTIAL_COEFFS
    dxdy = field.grid.dx * field.grid.dy
    ny, nx = field.values.shape
    # Inner betas live on the grid extended by one node per side (nodes
    # -1..n per axis), whose stencils reach two nodes past the grid.  Node
    # e of the extended grid is node e + 1 of the padded array, so offset
    # a of every extended node is the slice starting at 1 + a.
    u = pad_ghosts(field.values, field.bc, 2)

    def at(a, b):
        return u[1 + b:ny + 3 + b, 1 + a:nx + 3 + a]

    # Second differences along a stencil listed (z, 0, -z): the listing
    # fixes the rounding, so each sign has its own array.  d2x keeps every
    # padded row and d2y every padded column, for the offsets read below.
    d2x = {z: u[:, 1 - z:nx + 3 - z] - 2.0 * u[:, 1:nx + 3] + u[:, 1 + z:nx + 3 + z]
           for z in (-1, 1)}
    d2y = {z: u[1 - z:ny + 3 - z, :] - 2.0 * u[1:ny + 3, :] + u[1 + z:ny + 3 + z, :]
           for z in (-1, 1)}
    inner = {}
    for z1, z2 in QUADRANTS.values():
        # Inner stencil listed (z1, 0, -z1) in x and (z2, 0, -z2) in y.
        dxx = [d2x[z1][1 + b:ny + 3 + b] for b in (z2, 0, -z2)]
        dyy = [d2y[z2][:, 1 + a:nx + 3 + a] for a in (z1, 0)]
        u11 = at(0, 0) - at(z1, 0) - at(0, z2) + at(z1, z2)
        beta = _beta_from_diffs(dxx[0], dyy[0], u11, dxx[1] - dxx[0],
                                dyy[1] - dyy[0], dxx[2] - 2.0 * dxx[1] + dxx[0],
                                dxdy, coeffs)
        beta.flags.writeable = False
        inner[z1, z2] = beta
    return _quadrant_pairs(inner, ny, nx)


def _quadrant_pairs(inner, ny, nx):
    """Per quadrant, the (beta0, beta1)-placed views of four arrays keyed
    by (z1, z2) on the grid extended by one node per side.  The outer
    stencil of (z1, z2) at node n, listed (0, z1, 2*z1), is the inner
    stencil of (-z1, -z2) at node n + (z1, z2), listed the same way."""
    return {key: (inner[z1, z2][1:ny + 1, 1:nx + 1],
                  inner[-z1, -z2][1 + z2:ny + 1 + z2, 1 + z1:nx + 1 + z1])
            for key, (z1, z2) in QUADRANTS.items()}


def omega_field_2d(field: GridField, cfg: Indicator2DConfig) -> np.ndarray:
    """Combined smoothness weight at every node: min over the four
    remapped quadrant weights g(w(beta0, beta1)) (splitting baseline when
    so configured)."""
    if cfg.variant is Formula2D.SPLIT:
        return omega_split_field(field, cfg)
    sigma_h = cfg.sigma * field.grid.delta ** 2
    betas = quadrant_beta_fields(field, cfg.variant)
    # Every beta0 is a view of its quadrant's inner beta array, which the
    # opposite quadrant's beta1 shares: one WENO term per inner array.
    terms = {z: weno_term(betas[key][0].base, sigma_h)
             for key, z in QUADRANTS.items()}
    omega = None
    for a0, a1 in _quadrant_pairs(terms, *field.values.shape).values():
        w = map_g(normalized_weight(a0, a1))
        omega = w if omega is None else np.minimum(omega, w)
    return omega


def omega_split_field(field: GridField, cfg: Indicator2DConfig) -> np.ndarray:
    """Dimensional-splitting baseline: min of the two axis-wise remapped
    1D weights, each with the other axis frozen."""
    axis_cfg = Indicator1DConfig(sigma=cfg.sigma, M=cfg.M,
                                 variant=Variant1D.MAPPED_G)
    return np.minimum(omega_field_1d(field, axis_cfg, "x"),
                      omega_field_1d(field, axis_cfg, "y"))


# Cyclic walk around a node's eight neighbors, as (dj, di) steps.
_RING = ((1, 0), (1, 1), (0, 1), (-1, 1), (-1, 0), (-1, -1), (0, -1), (1, -1))


def phi_2d(omega: np.ndarray, field: GridField, cfg: Indicator2DConfig,
           ) -> tuple[np.ndarray, np.ndarray]:
    """Binary trust mask, plus an 'untrusted' diagnostic.

    phi is the plain threshold omega >= M.  Where phi = 0 and no two
    cyclically consecutive ring neighbors are trusted, the node likely sits
    at a crossing of singularity curves: every quadrant stencil is polluted,
    so the weight itself carries no usable information.  phi stays 0 there
    (conservative: the blend falls back to the monotone scheme) and the node
    is reported in the untrusted mask.
    """
    trusted = np.asarray(omega) >= cfg.M
    phi = trusted.astype(np.int8)
    ny, nx = trusted.shape
    t = pad_ghosts(trusted, field.bc, 1)
    ring = [t[1 + di:ny + 1 + di, 1 + dj:nx + 1 + dj] for dj, di in _RING]
    consec = np.zeros(phi.shape, dtype=bool)
    for k in range(len(ring)):
        consec |= ring[k] & ring[(k + 1) % len(ring)]
    untrusted = ~trusted & ~consec
    return phi, untrusted


def smoothness_2d(field: GridField, cfg: Indicator2DConfig) -> Smoothness2D:
    omega = omega_field_2d(field, cfg)
    phi, untrusted = phi_2d(omega, field, cfg)
    return Smoothness2D(omega=omega, phi=phi, untrusted=untrusted)
