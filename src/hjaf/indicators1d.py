"""One-dimensional smoothness indicators for gradient-kink detection.

The building block is the squared, once-rescaled second difference

    s_c = ((f_{c+1} - 2 f_c + f_{c-1}) / dx)**2,

which is O(dx^2) where the data is C^2 with nonzero curvature and O(1)
across a kink in the first derivative.  Stencils that reach past the grid
read ghost data under the field's boundary rule, the one rule the 2D
indicator and the schemes use too; each is a cut of the field's second
differences, a memo entry they share.  Left/right pairs of these feed a
WENO-style normalized weight ``omega`` (:func:`weno_weight`, built from
:func:`weno_term` and :func:`normalized_weight`, which the 2D quadrant
weights share) that sits near 1/2 on smooth data and collapses
to O(dx^4) when a kink lies strictly inside the 3-node hull.  Every
quantity is a whole-field array: one beta kernel, :func:`beta_fields_1d`,
feeds :func:`omega_field_1d`, along either axis of a 2D field for the
dimensional-splitting baseline.  Several accuracy-boosting post-processings
of the raw weight are provided: a polynomial remapping and two tau-based
reweightings (the second of which uses the full 5-point stencil).
"""
from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .grids import GridField


class Variant1D(Enum):
    RAW = "raw"
    MAPPED_G = "mapped-g"
    WENO_Z = "weno-z"
    WENO_Z_NEW = "weno-z-new"


@dataclass(frozen=True)
class Indicator1DConfig:
    """Knobs for the 1D indicator.

    sigma scales the desingularization term sigma_h = sigma * dx**2 added
    to every squared curvature; M is the flagging threshold on omega.
    """

    sigma: float = 1.0
    M: float = 0.2
    variant: Variant1D = Variant1D.MAPPED_G

    def __post_init__(self) -> None:
        if not 0 < self.sigma < np.inf:
            raise ValueError(f"sigma must be finite and positive, got {self.sigma}")
        if not 0 < self.M < 0.5:
            raise ValueError(f"threshold M must lie in (0, 1/2), got {self.M}")
        if not isinstance(self.variant, Variant1D):
            raise ValueError(f"variant must be a Variant1D member, got {self.variant!r}")


class Smoothness:
    """A field's smoothness weight and its trust mask, in 1D or 2D.

    ``phi`` is the boolean trust mask, omega >= M.  ``omega`` is given as
    an array, or as a function of no arguments that builds it on first
    read: an adaptive step reads phi alone.
    """

    def __init__(self, omega: np.ndarray | Callable[[], np.ndarray],
                 phi: np.ndarray) -> None:
        self._omega, self.phi = omega, phi

    @property
    def omega(self) -> np.ndarray:
        if callable(self._omega):
            self._omega = self._omega()
        return self._omega


def map_g(omega):
    """Accuracy remapping g(w) = 4 w (3/4 - 3/2 w + w^2).

    Fixed points at 0, 1/2, 1 with g'(1/2) = g''(1/2) = 0, so deviations
    of order eps around 1/2 shrink to order eps^3.  Inputs are clamped to
    [0, 1] defensively.
    """
    w = np.clip(omega, 0.0, 1.0)
    return 4.0 * w * (0.75 - 1.5 * w + w * w)


def _axis_step(field: GridField, axis: str):
    """((dj, di), h): the unit node offset and the spacing along ``axis``."""
    return ((1, 0), field.grid.dx) if axis == "x" else ((0, 1), field.grid.dy)


def beta_fields_1d(field: GridField, axis: str = "x") -> tuple[np.ndarray, ...]:
    """(beta0-, beta1-, beta0+, beta1+) arrays for every node, along ``axis``.

    beta-_k is the squared rescaled second difference
    ((f_{c+1} - 2 f_c + f_{c-1}) / h)**2 on the stencil centered at
    c = j-1+k; beta+_k the one centered at c = j+k, so beta+ at j
    coincides with beta- at j+1 and the center stencil is shared between
    the two sides.  The three read the (+1, 0, -1) listing of
    :meth:`hjaf.grids.GridField.second_differences` at offset c - j.
    """
    (dj, di), h = _axis_step(field, axis)
    at = field.neighbors()
    d2 = at.of(field.second_differences()[di][1])
    s = [(at.grid(d2(c * dj, c * di)) / h) ** 2 for c in (-1, 0, 1)]
    return s[0], s[1], s[1], s[2]


def weno_term(b, sigma_h):
    """Unnormalized WENO weight a = 1 / (b + sigma_h)**2 of a stencil with
    smoothness coefficient ``b``."""
    return 1.0 / (b + sigma_h) ** 2


def normalized_weight(a, a_other):
    """a / (a + a_other) for two unnormalized weights (:func:`weno_term`)."""
    return a / (a + a_other)


def weno_weight(b, b_other, sigma_h):
    """Normalized WENO weight a / (a + a_other) of the stencil with
    smoothness coefficient ``b``, where a = 1 / (b + sigma_h)**2."""
    return normalized_weight(weno_term(b, sigma_h), weno_term(b_other, sigma_h))


def _combine_sides(b0m, b1m, b0p, b1p, sigma_h, variant):
    if variant in (Variant1D.RAW, Variant1D.MAPPED_G):
        wm = weno_weight(b1m, b0m, sigma_h)
        wp = weno_weight(b0p, b1p, sigma_h)
        if variant is Variant1D.MAPPED_G:
            wm, wp = map_g(wm), map_g(wp)
        return wm, wp
    if variant is Variant1D.WENO_Z:
        tau_m = np.abs(b0m - b1m)
        tau_p = np.abs(b0p - b1p)
    else:  # WENO_Z_NEW: one tau from the full 5-point stencil, both sides
        tau_m = tau_p = np.abs(b0m - 2.0 * b1m + b1p)
    z0m = 0.5 * (1.0 + (tau_m / (b0m + sigma_h)) ** 2)
    z1m = 0.5 * (1.0 + (tau_m / (b1m + sigma_h)) ** 2)
    z0p = 0.5 * (1.0 + (tau_p / (b0p + sigma_h)) ** 2)
    z1p = 0.5 * (1.0 + (tau_p / (b1p + sigma_h)) ** 2)
    return z1m / (z0m + z1m), z0p / (z0p + z1p)


def omega_field_1d(field: GridField, cfg: Indicator1DConfig,
                   axis: str = "x") -> np.ndarray:
    """Smoothness weight omega at every node (min of the two sides), along
    ``axis`` with sigma_h = sigma * h**2 for that axis's spacing h."""
    sigma_h = cfg.sigma * _axis_step(field, axis)[1] ** 2
    wm, wp = _combine_sides(*beta_fields_1d(field, axis), sigma_h,
                            cfg.variant)
    return np.minimum(wm, wp)


def phi_1d(omega: np.ndarray, cfg) -> np.ndarray:
    """Boolean trust mask: omega >= M, for the threshold M of a 1D or 2D
    indicator config.  No smoothing."""
    return np.asarray(omega) >= cfg.M


def smoothness_1d(field: GridField, cfg: Indicator1DConfig) -> Smoothness:
    omega = omega_field_1d(field, cfg)
    return Smoothness(omega=omega, phi=phi_1d(omega, cfg))
