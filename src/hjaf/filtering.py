"""Blended (filtered) time stepping: monotone backbone, high-order overlay.

One step writes

    u_next = S_M(u) + phi * eps * dt * F((S_A(u) - S_M(u)) / (eps * dt)),

with F the hard-cutoff filter (identity on [-1, 1], zero outside), phi the
binary smoothness mask, and eps a switching scale recomputed once per time
step from the detected region of regularity.  The output therefore never
strays more than eps * dt from the monotone update, and on every node it
equals either the high-order or the monotone result exactly.

The switching scale compares the leading difference between the two
numerical hamiltonians: the one-shot time-curvature correction of the
high-order family plus the antidiffusion content of the monotone
hamiltonian, probed by swapping one-sided slopes into one argument slot
at a time (:func:`hjaf.monotone.htilde_differences`; for the local
Lax-Friedrichs form, four evaluations of H in closed form instead of
eight calls).  Within one adaptive step the switching scale and the
monotone update read one padded copy of the field and the one-sided
slopes taken from it; the centered, second and cross differences of the
switching scale come from the same copy.
"""
from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

from .grids import GridField
from .hamiltonians import Hamiltonian
from .highorder import centered_slopes, high_order_step, time_curvature
from .indicators2d import Indicator2DConfig, smoothness_2d
# monotone_hamiltonian is unused here; the benchmark's tracer
# (perfbench/tracer.py) wraps this module's name for it.
from .monotone import (CflViolation, MonotoneScheme,  # noqa: F401
                       htilde_differences, monotone_hamiltonian, monotone_step,
                       one_sided_slopes)


# Switching scales at or below this count as zero: the step keeps the
# monotone update rather than divide by eps*dt in the filter argument.
EPS_FLOOR = 1e-14


def filter_F(rho):
    """Hard-cutoff filter: identity for |rho| <= 1 (boundary included),
    zero outside."""
    rho = np.asarray(rho, dtype=np.float64)
    out = np.where(np.abs(rho) <= 1.0, rho, 0.0)
    return out if out.ndim else float(out)


def epsilon_field(field: GridField, H: Hamiltonian, scheme: MonotoneScheme,
                  dt: float, K: float, at=None, slopes=None) -> np.ndarray:
    """Switching-scale integrand K * |...| at every node (before the
    region maximum).  ``at`` (``field.neighbors(1)``) and ``slopes`` (the
    one-sided slopes read from it) are the step's shared stencil data when
    the caller has them; the one-sided, centered, second and cross
    differences all come from that one padded copy."""
    if at is None:
        at = field.neighbors(1)
    if slopes is None:
        slopes = one_sided_slopes(field, at)
    x, y = field.grid.meshes()
    dp_term, dq_term = htilde_differences(scheme, H, x, y, *slopes)
    bracket = time_curvature(field, H, *centered_slopes(field, at), at)
    return K * np.abs(0.5 * dt * bracket + dp_term + dq_term)


def epsilon_n(field: GridField, H: Hamiltonian, scheme: MonotoneScheme,
              dt: float, mask: np.ndarray, K: float = 1.0, *, at=None,
              slopes=None) -> float:
    """Maximum of the switching-scale integrand over the trusted region;
    0 when the region is empty.  ``at`` and ``slopes`` as in
    :func:`epsilon_field`."""
    mask = np.asarray(mask, dtype=bool)
    if not mask.any():
        return 0.0
    vals = epsilon_field(field, H, scheme, dt, K, at, slopes)
    return float(vals[mask].max())


def af_step(field: GridField, scheme: MonotoneScheme, highorder, H: Hamiltonian,
            dt: float, phi_mask: np.ndarray, eps: float, *,
            slopes=None) -> GridField:
    """One blended step.

    Implemented as a selection: with the hard-cutoff filter the blend
    formula reduces node-wise to 'high-order where trusted and within
    eps*dt of the monotone value, monotone everywhere else', and the
    selection keeps the chosen branch bit-exact.  When eps is at or below
    ``EPS_FLOOR`` the two schemes agree on the trusted data anyway, so the
    step falls back to the monotone update (avoids 0/0 in the filter
    argument).  ``slopes`` are the field's one-sided slopes when the
    caller already has them.
    """
    u_m = monotone_step(field, scheme, H, dt, slopes=slopes)
    if eps <= EPS_FLOOR:
        return u_m
    u_a = highorder(field, H, dt)
    trusted = np.asarray(phi_mask, dtype=bool)
    within = np.abs(u_a.values - u_m.values) <= eps * dt
    return field.like(np.where(trusted & within, u_a.values, u_m.values))


class EvolutionError(RuntimeError):
    pass


@dataclass(frozen=True)
class SolverConfig:
    """Everything af_evolve needs besides the initial field.

    mode: 'af' (adaptive blend), 'fixed' (blend with a constant eps and
    phi forced to one), 'monotone', or 'raw' (bare high-order scheme).
    """

    hamiltonian: Hamiltonian
    monotone: MonotoneScheme
    highorder: str = "hc"
    mode: str = "af"
    indicator: Indicator2DConfig = dc_field(default_factory=Indicator2DConfig)
    K: float = 1.0
    eps_fixed: float | None = None
    lw2_corrected: bool = False

    def __post_init__(self) -> None:
        if self.mode not in ("af", "fixed", "monotone", "raw"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.mode == "fixed" and self.eps_fixed is None:
            raise ValueError("fixed mode needs eps_fixed")
        if self.mode == "fixed" and not (np.isfinite(self.eps_fixed)
                                         and self.eps_fixed > 0):
            raise ValueError("fixed switching scale must be finite and "
                             f"positive, got {self.eps_fixed}")
        if not self.K > 0.5:
            raise ValueError(f"safety factor K must exceed 1/2, got {self.K}")


@dataclass
class Diagnostics:
    """Per-step record: (step index, time reached, switching scale,
    number of untrusted nodes)."""

    rows: list[tuple[int, float, float, int]] = dc_field(default_factory=list)

    def write_csv(self, out) -> None:
        out.write("step,t,epsilon_n,phi_zero_count\n")
        for step, t, eps, nz in self.rows:
            out.write(f"{step},{t:.17g},{eps:.17g},{nz}\n")


def _adaptive_step(u: GridField, config: SolverConfig, step_fn, dt: float):
    """(u_next, eps, phi) of one adaptive step.  The switching scale and
    the monotone update share one padded copy of u and its one-sided
    slopes; they are dropped when the step returns."""
    H = config.hamiltonian
    phi = smoothness_2d(u, config.indicator).phi
    trusted = phi == 1
    at = u.neighbors(1)
    slopes = one_sided_slopes(u, at)
    eps = epsilon_n(u, H, config.monotone, dt, trusted, config.K,
                    at=at, slopes=slopes)
    del at
    u_next = af_step(u, config.monotone, step_fn, H, dt, trusted, eps,
                     slopes=slopes)
    return u_next, eps, phi


def af_evolve(initial: GridField, config: SolverConfig, T: float,
              n_steps: int) -> tuple[GridField, Diagnostics]:
    """March the blended scheme to time T in n_steps equal steps.

    The smoothness mask and the switching scale are recomputed once per
    time step (never per Runge-Kutta stage).  Aborts with the offending
    step number if the solution leaves the finite range or a monotone
    step violates its stability bound (at step 1, before ``u`` changes,
    when the declared bounds already fail).
    """
    if T <= 0:
        raise ValueError(f"final time must be positive, got {T}")
    if n_steps < 1:
        raise ValueError(f"need at least one step, got {n_steps}")
    dt = T / n_steps
    H = config.hamiltonian
    step_fn = None
    if config.mode != "monotone":
        step_fn = high_order_step(config.highorder, config.lw2_corrected)

    u = initial
    diag = Diagnostics()
    ones = np.ones(initial.grid.shape, dtype=np.int8)
    for step in range(1, n_steps + 1):
        try:
            if config.mode == "monotone":
                u_next = monotone_step(u, config.monotone, H, dt)
                eps, phi = 0.0, ones
            elif config.mode == "raw":
                u_next = step_fn(u, H, dt)
                eps, phi = 0.0, ones
            elif config.mode == "fixed":
                eps, phi = config.eps_fixed, ones
                u_next = af_step(u, config.monotone, step_fn, H, dt, phi == 1, eps)
            else:
                u_next, eps, phi = _adaptive_step(u, config, step_fn, dt)
        except CflViolation as exc:
            raise CflViolation(f"step {step} (t = {step * dt:.6g}): {exc}") from exc
        if not np.all(np.isfinite(u_next.values)):
            raise EvolutionError(f"non-finite values at step {step} (t = {step * dt:.6g})")
        u = u_next
        diag.rows.append((step, step * dt, float(eps), int(np.sum(phi == 0))))
    return u, diag
