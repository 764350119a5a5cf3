"""Run drivers: refinement studies for the evolution problems and
detection-map dumps for the indicator cases.

Each run writes one directory: ``table.csv`` (errors/orders/timings),
``field_final.csv`` (finest computed field), ``omega.csv``/``phi.csv``
(final-state smoothness maps), ``epsilon.csv`` (per-step switching-scale
trace) and ``meta`` (full config echo).  Wall-clock entries time the
evolution loop only, single-threaded, excluding setup and file output.
"""
from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .filtering import Diagnostics, SolverConfig, af_evolve
from .grids import GridField, write_field_csv
from .highorder import SCHEME_ORDERS
from .indicators2d import Formula2D, Indicator2DConfig, smoothness_2d
from .indicators1d import Indicator1DConfig, Variant1D, smoothness_1d
from .problems import IndicatorCase, ProblemSpec, make_test
from .reporting import RunReport, error_norms

SCHEME_NAMES = ("monotone", "hc", "lw", "lw2", "richtmyer", "rkc4",
                "af-hc", "af-lw", "af-lw2", "af-richtmyer", "af-rkc4",
                "f-hc-fixed")

_FORMULAS = {"full": Formula2D.FULL, "partial": Formula2D.PARTIAL,
             "split": Formula2D.SPLIT}
_VARIANTS_1D = {"raw": Variant1D.RAW, "mapped-g": Variant1D.MAPPED_G,
                "weno-z": Variant1D.WENO_Z, "weno-z-new": Variant1D.WENO_Z_NEW}


@dataclass(frozen=True)
class CliConfig:
    test_id: str
    scheme: str = "af-hc"
    indicator: str = "full"
    refinements: int = 4
    out_dir: str | None = None
    K: float = 1.0
    M: float = 0.2
    sigma: float = 2.0
    epsilon_fixed: float | None = None   # f-hc-fixed default: 20 * dx per level
    lw2_corrected: bool = False          # symmetric staggered secants

    def __post_init__(self) -> None:
        if self.refinements < 1:
            raise ValueError("need at least one refinement level")
        if self.scheme not in SCHEME_NAMES:
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if self.indicator not in _FORMULAS:
            raise ValueError(f"unknown indicator variant {self.indicator!r}")


def solver_config(cfg: CliConfig, problem: ProblemSpec, level: int) -> SolverConfig:
    ind = Indicator2DConfig(sigma=cfg.sigma, M=cfg.M,
                            variant=_FORMULAS[cfg.indicator])
    if cfg.scheme == "monotone":
        mode, name, eps_fixed = "monotone", "hc", None
    elif cfg.scheme in SCHEME_ORDERS:
        mode, name, eps_fixed = "raw", cfg.scheme, None
    elif cfg.scheme == "f-hc-fixed":
        eps_fixed = cfg.epsilon_fixed
        if eps_fixed is None:
            eps_fixed = 20.0 * problem.grid(level).dx
        mode, name = "fixed", "hc"
    else:
        mode, name, eps_fixed = "af", cfg.scheme.removeprefix("af-"), None
    return SolverConfig(hamiltonian=problem.hamiltonian,
                        monotone=problem.monotone, highorder=name, mode=mode,
                        indicator=ind, K=cfg.K, eps_fixed=eps_fixed,
                        lw2_corrected=cfg.lw2_corrected)


def run_convergence(cfg: CliConfig, problem: ProblemSpec | None = None) -> RunReport:
    """Evolve the configured problem across halved grids at fixed
    time-to-space ratio and tabulate errors against the exact oracle.

    Without an oracle, all but the finest level are measured against the
    finest computed solution restricted to the coarser nodes (flagged
    reference-based in the report; the finest level serves as reference
    only).  ``problem`` overrides the registry lookup for custom setups.
    """
    if problem is None:
        problem = make_test(cfg.test_id)
    if not isinstance(problem, ProblemSpec):
        raise ValueError(f"test {cfg.test_id} is a detection case; "
                         "use run_indicators")
    report = RunReport(reference_based=problem.exact is None)
    finals: list[GridField] = []
    diags: list[Diagnostics] = []
    seconds: list[float] = []
    for level in range(cfg.refinements):
        u0 = problem.initial_field(level)
        sc = solver_config(cfg, problem, level)
        t0 = time.perf_counter()
        u, diag = af_evolve(u0, sc, problem.T_final, problem.n_steps(level))
        seconds.append(time.perf_counter() - t0)
        finals.append(u)
        diags.append(diag)
        if problem.exact is not None:
            exact = problem.exact_field(problem.T_final, level).values
            linf, l1 = error_norms(u, exact)
            report.append_level(u.grid.nx - 1 if _has_edge(problem) else u.grid.nx,
                                problem.n_steps(level), linf, l1, seconds[level])
    if problem.exact is None:
        reference = finals[-1]
        stride = 2 ** (cfg.refinements - 1)
        for level in range(cfg.refinements - 1):
            sub = reference.values[::stride, ::stride]
            u = finals[level]
            linf, l1 = error_norms(u, sub)
            report.append_level(u.grid.nx - 1 if _has_edge(problem) else u.grid.nx,
                                problem.n_steps(level), linf, l1, seconds[level])
            stride //= 2
    if cfg.out_dir is not None:
        _write_convergence_outputs(cfg, problem, report, finals[-1], diags[-1])
    return report


def _has_edge(problem: ProblemSpec) -> bool:
    # Neumann grids store both endpoints, so node count is intervals + 1.
    from .grids import BoundaryCondition
    return problem.bc is BoundaryCondition.NEUMANN_ZERO


def _write_convergence_outputs(cfg: CliConfig, problem: ProblemSpec,
                               report: RunReport, final: GridField,
                               diag: Diagnostics) -> None:
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "table.csv", "w") as f:
        report.write_csv(f)
    with open(out / "field_final.csv", "w") as f:
        write_field_csv(final, f)
    ind = solver_config(cfg, problem, cfg.refinements - 1).indicator
    sm = smoothness_2d(final, ind)
    for name, values in (("omega", sm.omega), ("phi", sm.phi)):
        with open(out / f"{name}.csv", "w") as f:
            write_field_csv(final.like(values), f, name)
    with open(out / "epsilon.csv", "w") as f:
        diag.write_csv(f)
    with open(out / "meta", "w") as f:
        _write_meta(f, cfg, problem=problem.name,
                    reference_based=report.reference_based)


def _write_meta(f, cfg: CliConfig, **extra) -> None:
    for key in ("test_id", "scheme", "indicator", "refinements", "K", "M",
                "sigma", "epsilon_fixed", "lw2_corrected"):
        f.write(f"{key} = {getattr(cfg, key)!r}\n")
    for key, val in extra.items():
        f.write(f"{key} = {val!r}\n")


@dataclass(frozen=True)
class IndicatorRunConfig:
    test_id: str
    dx: float = 0.05
    placement: str = "node"       # node | cell
    # 2D: full|partial|split; 1D: raw|mapped-g|weno-z|weno-z-new;
    # None picks the dimension's default (full / mapped-g)
    variant: str | None = None
    M: float = 0.2
    sigma: float | None = None    # default: 1 in 1D, 2 in 2D
    out_dir: str | None = None

    def __post_init__(self) -> None:
        if self.placement not in ("node", "cell"):
            raise ValueError(f"placement must be node or cell, got {self.placement!r}")


@dataclass(frozen=True)
class IndicatorRunResult:
    field: GridField
    omega: np.ndarray
    phi: np.ndarray


def run_indicators(cfg: IndicatorRunConfig) -> IndicatorRunResult:
    """Evaluate the configured detection case and dump omega/phi maps."""
    case = make_test(cfg.test_id)
    if not isinstance(case, IndicatorCase):
        raise ValueError(f"test {cfg.test_id} is an evolution problem; "
                         "use run_convergence")
    shift = "on_node" if cfg.placement == "node" else "in_cell"
    field = case.build_field(cfg.dx, shift)
    if case.dims == 1:
        variant = cfg.variant if cfg.variant is not None else "mapped-g"
        if variant not in _VARIANTS_1D:
            raise ValueError(f"1D variant must be one of {sorted(_VARIANTS_1D)}")
        sm = smoothness_1d(field, Indicator1DConfig(
            sigma=cfg.sigma if cfg.sigma is not None else 1.0, M=cfg.M,
            variant=_VARIANTS_1D[variant]))
    else:
        variant = cfg.variant if cfg.variant is not None else "full"
        if variant not in _FORMULAS:
            raise ValueError(f"2D variant must be one of {sorted(_FORMULAS)}")
        sm = smoothness_2d(field, Indicator2DConfig(
            sigma=cfg.sigma if cfg.sigma is not None else 2.0, M=cfg.M,
            variant=_FORMULAS[variant]))
    if cfg.out_dir is not None:
        out = Path(cfg.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        if case.dims == 1:
            with open(out / "indicators.csv", "w") as f:
                write_field_csv(field.like(sm.omega), f, "omega", phi=sm.phi)
        else:
            for name, values in (("omega", sm.omega), ("phi", sm.phi)):
                with open(out / f"{name}.csv", "w") as f:
                    write_field_csv(field.like(values), f, name)
        with open(out / "meta", "w") as f:
            for key in ("test_id", "dx", "placement", "variant", "M", "sigma"):
                f.write(f"{key} = {getattr(cfg, key)!r}\n")
    return IndicatorRunResult(field=field, omega=sm.omega, phi=sm.phi)
