"""Blended (filtered) time stepping: monotone backbone, high-order overlay.

One step writes

    u_next = S_M(u) + phi * eps * dt * F((S_A(u) - S_M(u)) / (eps * dt)),

with F the hard-cutoff filter (identity on [-1, 1], zero outside), phi the
boolean trust mask, and eps a switching scale (:func:`epsilon_n`)
recomputed once per time step over the detected region of regularity.
The output therefore never strays more than eps * dt from the monotone
update, and on every node it equals either the high-order or the
monotone result exactly.

The switching scale compares the leading difference between the two
numerical hamiltonians: the one-shot time-curvature correction of the
high-order family plus the antidiffusion content of the monotone
hamiltonian, probed by swapping one-sided slopes into one argument slot
at a time (:func:`hjaf.monotone.htilde_differences`; for the local
Lax-Friedrichs form the values of H cancel, and the probe is a closed
form in four speed bounds).  Every kernel reads the field's own padded copy
(``field.neighbors()``, the run layout of :mod:`hjaf.grids`), so one step
of any scheme pads the field once: the smoothness indicator, the switching
scale (its one-sided, centered, second and cross differences), the
monotone update and the first stage of the high-order step all read that
copy, and they share the one-sided and centered slopes and the time
curvature (also read by the LW step), taken once as memo entries of the
field.
"""
from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

from .grids import GridField
from .hamiltonians import Hamiltonian
from .highorder import SCHEME_ORDERS, high_order_step, time_curvature
from .indicators2d import Indicator2DConfig, smoothness_2d
# monotone_hamiltonian is unused here; the benchmark's tracer
# (perfbench/tracer.py) wraps this module's name for it.
from .monotone import (CflViolation, MonotoneKind,  # noqa: F401
                       htilde_differences, monotone_hamiltonian, monotone_step,
                       one_sided_slopes, require_runnable)


# The runs a SolverConfig names: the monotone step alone, each high-order
# scheme alone, each one's adaptive blend, and the blend with HC at a fixed
# switching scale.
SCHEME_NAMES = ("monotone", *SCHEME_ORDERS,
                *(f"af-{name}" for name in SCHEME_ORDERS), "f-hc-fixed")

# Switching scales at or below this count as zero: the step keeps the
# monotone update rather than divide by eps*dt in the filter argument.
EPS_FLOOR = 1e-14


def epsilon_n(field: GridField, H: Hamiltonian, kind: MonotoneKind,
              dt: float, mask: np.ndarray, K: float = 1.0) -> float:
    """Switching scale: the maximum of the integrand K * |...| over the
    trusted region; 0 when the region is empty."""
    mask = np.asarray(mask, dtype=bool)
    if not mask.any():
        return 0.0
    x, y = field.grid.meshes()
    dp_term, dq_term = htilde_differences(kind, H, x, y,
                                          *one_sided_slopes(field))
    # K * |0.5 dt bracket + dp_term + dq_term|, in an array of its own
    # (the time-curvature bracket is a memo entry of the field)
    vals = np.multiply(time_curvature(field, H), 0.5 * dt)
    vals += dp_term
    vals += dq_term
    np.abs(vals, out=vals)
    vals *= K
    # Every integrand value is >= +0 or NaN, so zeros in place of the
    # untrusted nodes leave the maximum over the trusted ones unchanged;
    # an untrusted value, finite or not, never reaches it.
    np.copyto(vals, 0.0, where=~mask)
    return float(vals.max())


def af_step(field: GridField, kind: MonotoneKind, highorder, H: Hamiltonian,
            dt: float, phi_mask: np.ndarray, eps: float) -> GridField:
    """One blended step.

    Implemented as a selection: with the hard-cutoff filter the blend
    formula reduces node-wise to 'high-order where trusted and within
    eps*dt of the monotone value, monotone everywhere else', and the
    selection keeps the chosen branch bit-exact.  When eps is at or below
    ``EPS_FLOOR`` the two schemes agree on the trusted data anyway, so the
    step returns the monotone update itself and never calls ``highorder``
    (at eps = 0 it is the monotone scheme; no 0/0 in the filter argument).
    """
    u_m = monotone_step(field, kind, H, dt)
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

    scheme, one of SCHEME_NAMES: 'monotone' alone (the blend at eps = 0);
    a name in SCHEME_ORDERS, that high-order scheme alone; 'af-<name>', the
    adaptive blend of the monotone step with it; 'f-hc-fixed', the blend
    with HC at the constant switching scale epsilon_fixed and phi forced to
    one.  An option the scheme would ignore is refused: epsilon_fixed
    belongs to f-hc-fixed (which needs it), lw2_corrected to lw2, richtmyer
    and their af- forms, a K other than the default to the af- schemes
    (only epsilon_n reads it).  So is a hamiltonian that cannot run its own
    monotone form (:attr:`monotone`).
    """

    hamiltonian: Hamiltonian
    scheme: str = "af-hc"
    indicator: Indicator2DConfig = dc_field(default_factory=Indicator2DConfig)
    K: float = 1.0
    epsilon_fixed: float | None = None
    lw2_corrected: bool = False

    def __post_init__(self) -> None:
        if self.scheme not in SCHEME_NAMES:
            raise ValueError(f"unknown scheme {self.scheme!r}")
        fixed, name = self.scheme == "f-hc-fixed", self.highorder
        if self.epsilon_fixed is not None and not fixed:
            raise ValueError("epsilon_fixed applies only to scheme "
                             f"'f-hc-fixed', not {self.scheme!r}")
        if self.lw2_corrected and name not in ("lw2", "richtmyer"):
            raise ValueError("lw2_corrected applies only to the lw2 and "
                             "richtmyer schemes and their af- forms, not "
                             f"{self.scheme!r}")
        if fixed and self.epsilon_fixed is None:
            raise ValueError("scheme 'f-hc-fixed' needs epsilon_fixed")
        if fixed and not (np.isfinite(self.epsilon_fixed)
                          and self.epsilon_fixed > 0):
            raise ValueError("fixed switching scale must be finite and "
                             f"positive, got {self.epsilon_fixed}")
        if not 0.5 < self.K < np.inf:
            raise ValueError(f"safety factor K must be finite and > 1/2, got {self.K}")
        if self.K != SolverConfig.K and not self.scheme.startswith("af-"):
            raise ValueError("safety factor K applies only to the af- "
                             f"schemes, not {self.scheme!r}")
        if name == "richtmyer" and self.hamiltonian.space_dependent:
            raise ValueError("Richtmyer form requires H independent of (x, y)")
        require_runnable(self.monotone, self.hamiltonian)

    @property
    def highorder(self) -> str | None:
        """The name in SCHEME_ORDERS the run steps or blends with (None for
        'monotone')."""
        return {"monotone": None, "f-hc-fixed": "hc"}.get(
            self.scheme, self.scheme.removeprefix("af-"))

    @property
    def monotone(self) -> MonotoneKind:
        """The upwind form for the eikonal H, local Lax-Friedrichs otherwise."""
        return (MonotoneKind.EIKONAL if self.hamiltonian.is_eikonal
                else MonotoneKind.LOCAL_LAX_FRIEDRICHS)


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
    """(u_next, eps, phi) of one adaptive step."""
    H = config.hamiltonian
    phi = smoothness_2d(u, config.indicator).phi
    eps = epsilon_n(u, H, config.monotone, dt, phi, config.K)
    u_next = af_step(u, config.monotone, step_fn, H, dt, phi, eps)
    return u_next, eps, phi


def af_evolve(initial: GridField, config: SolverConfig, T: float,
              n_steps: int) -> tuple[GridField, Diagnostics]:
    """March the blended scheme to time T in n_steps equal steps.

    The smoothness mask and the switching scale are recomputed once per
    time step (never per Runge-Kutta stage).  Aborts with the offending
    step number if the solution leaves the finite range or a monotone
    step violates its stability bound on the speeds it used (at step 1
    when the grid/step pairing is too coarse for the initial data).
    """
    if not 0 < T < np.inf:
        raise ValueError(f"final time must be finite and positive, got {T}")
    if n_steps < 1:
        raise ValueError(f"need at least one step, got {n_steps}")
    dt = T / n_steps
    H = config.hamiltonian
    scheme, name = config.scheme, config.highorder
    step_fn = None if name is None else high_order_step(name, config.lw2_corrected)

    u = initial.like(initial.values)    # an alias: its memo goes after step 1
    diag = Diagnostics()
    trusted = np.ones(initial.grid.shape, dtype=bool)
    for step in range(1, n_steps + 1):
        try:
            if scheme in SCHEME_ORDERS:
                u_next = step_fn(u, H, dt)
                eps, phi = 0.0, trusted
            elif scheme.startswith("af-"):
                u_next, eps, phi = _adaptive_step(u, config, step_fn, dt)
            else:   # f-hc-fixed at its fixed scale, monotone at eps = 0
                eps, phi = config.epsilon_fixed or 0.0, trusted
                u_next = af_step(u, config.monotone, step_fn, H, dt, phi, eps)
        except CflViolation as exc:
            raise CflViolation(f"step {step} (t = {step * dt:.6g}): {exc}") from exc
        if not np.all(np.isfinite(u_next.values)):
            raise EvolutionError(f"non-finite values at step {step} (t = {step * dt:.6g})")
        u = u_next
        diag.rows.append((step, step * dt, float(eps),
                          phi.size - np.count_nonzero(phi)))
    return u, diag
