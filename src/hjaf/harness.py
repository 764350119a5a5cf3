"""Run drivers: refinement studies for the evolution problems and
detection-map dumps for the indicator cases.

A study runs one loop: per level, evolve, measure against the problem's
exact oracle, append a table row.  Each run writes one directory:
``table.csv`` (errors/orders/timings, one row per level),
``field_final.csv`` (finest computed field), ``omega.csv``/``phi.csv``
(its smoothness maps), ``epsilon.csv`` (the finest level's step records,
one row each) and ``meta`` (full config echo).  Wall-clock
entries time the evolution loop only, single-threaded, excluding setup
and file output.
"""
from __future__ import annotations

import time
from dataclasses import astuple, dataclass, fields
from pathlib import Path

from . import filtering
from .filtering import SolverConfig, StepRecord, af_evolve
from .grids import Grid2D, GridField, write_field_csv
from .indicators2d import Formula2D, Indicator2DConfig, smoothness_2d
from .indicators1d import Indicator1DConfig, Smoothness, smoothness_1d
from .problems import IndicatorCase, ProblemSpec, make_test
from .reporting import RunReport, error_norms, write_table


@dataclass(frozen=True)
class CliConfig:
    test_id: str
    scheme: str = SolverConfig.scheme    # one of filtering.SCHEME_NAMES
    indicator: str = Indicator2DConfig.variant.value
    refinements: int = 4
    out_dir: str | None = None
    K: float = SolverConfig.K
    M: float = Indicator2DConfig.M
    sigma: float = Indicator2DConfig.sigma
    epsilon_fixed: float | None = None   # f-hc-fixed default: 20 * dx per level
    lw2_corrected: bool = False          # symmetric staggered secants

    def __post_init__(self) -> None:
        if self.refinements < 1:
            raise ValueError("need at least one refinement level")
        if self.indicator not in [f.value for f in Formula2D]:
            raise ValueError(f"unknown indicator variant {self.indicator!r}")


def solver_config(cfg: CliConfig, problem: ProblemSpec, level: int) -> SolverConfig:
    epsilon_fixed = cfg.epsilon_fixed
    if cfg.scheme == "f-hc-fixed" and epsilon_fixed is None:
        epsilon_fixed = 20.0 * problem.grid(level).dx
    ind = Indicator2DConfig(sigma=cfg.sigma, M=cfg.M,
                            variant=Formula2D(cfg.indicator))
    return SolverConfig(hamiltonian=problem.hamiltonian, scheme=cfg.scheme,
                        indicator=ind, K=cfg.K, epsilon_fixed=epsilon_fixed,
                        lw2_corrected=cfg.lw2_corrected)


def run_convergence(cfg: CliConfig, problem: ProblemSpec | None = None) -> RunReport:
    """Evolve the configured problem across halved grids at fixed
    time-to-space ratio and tabulate errors against its exact oracle, one
    row per level, coarse to fine.  ``problem`` overrides the registry
    lookup for custom setups.
    """
    if problem is None:
        problem = make_test(cfg.test_id)
    if not isinstance(problem, ProblemSpec):
        raise ValueError(f"test {cfg.test_id} is a detection case; "
                         "use run_indicators")
    if cfg.out_dir is not None:
        solver_config(cfg, problem, 0)   # a refused run makes no directory
        Path(cfg.out_dir).mkdir(parents=True, exist_ok=True)
    report = RunReport()
    for level in range(cfg.refinements):
        u0 = problem.initial_field(level)
        sc = solver_config(cfg, problem, level)
        t0 = time.perf_counter()
        u, records = af_evolve(u0, sc, problem.T_final, problem.n_steps(level))
        seconds = time.perf_counter() - t0
        exact = problem.exact_field(problem.T_final, level).values
        report.append_level(problem.base_nx * 2 ** level, problem.n_steps(level),
                            *error_norms(u, exact), seconds)
    if cfg.out_dir is not None:
        _write_convergence_outputs(cfg, problem, report, u, records, sc.indicator)
    return report


def _write_convergence_outputs(cfg: CliConfig, problem: ProblemSpec,
                               report: RunReport, final: GridField,
                               records: list[StepRecord],
                               indicator: Indicator2DConfig) -> None:
    """The finest level's files; ``indicator`` is the config it ran with."""
    # The maps of u^N, checked before any file is opened (a refused weight
    # leaves none), through the name a step calls, so a trace counts them.
    sm = filtering.smoothness_2d(final, indicator)
    out = Path(cfg.out_dir)
    with open(out / "table.csv", "w") as f:
        report.write_csv(f)
    with open(out / "field_final.csv", "w") as f:
        write_field_csv(final.grid, f, value=final.values)
    _write_maps(out, final.grid, sm)
    with open(out / "epsilon.csv", "w") as f:
        write_table(f, [c.name for c in fields(StepRecord)], map(astuple, records))
    _write_meta(out, cfg, problem=problem.name)


def _write_maps(out: Path, grid: Grid2D, sm: Smoothness) -> None:
    """``omega.csv`` and ``phi.csv``: the 2D smoothness maps ``sm``, each
    a column on ``grid``."""
    for name, values in (("omega", sm.omega), ("phi", sm.phi)):
        with open(out / f"{name}.csv", "w") as f:
            write_field_csv(grid, f, **{name: values})


def _write_meta(out: Path, cfg, **extra) -> None:
    """``meta``: every config field but out_dir, in declaration order,
    then ``extra``."""
    echo = {fld.name: getattr(cfg, fld.name) for fld in fields(cfg)
            if fld.name != "out_dir"}
    with open(out / "meta", "w") as f:
        for key, val in (echo | extra).items():
            f.write(f"{key} = {val!r}\n")


@dataclass(frozen=True)
class IndicatorRunConfig:
    test_id: str
    dx: float = 0.05
    placement: str = "node"       # one of problems.PLACEMENTS
    # 2D: full|partial|split; 1D: raw|mapped-g|weno-z|weno-z-new;
    # None picks the dimension's config default (full / mapped-g)
    variant: str | None = None
    M: float = Indicator2DConfig.M    # the 1D default too
    sigma: float | None = None    # None: the dimension's config default
    out_dir: str | None = None


def run_indicators(cfg: IndicatorRunConfig) -> tuple[GridField, Smoothness]:
    """The configured detection case's field and its smoothness maps, made
    with the dimension's indicator config (``Indicator1DConfig`` or
    ``Indicator2DConfig``), whose defaults fill the options left at None.
    With ``out_dir`` set, writes the maps (``indicators.csv`` in 1D;
    ``omega.csv`` and ``phi.csv`` in 2D) and ``meta``."""
    case = make_test(cfg.test_id)
    if not isinstance(case, IndicatorCase):
        raise ValueError(f"test {cfg.test_id} is an evolution problem; "
                         "use run_convergence")
    field = case.build_field(cfg.dx, cfg.placement)
    knobs = {"M": cfg.M} | ({} if cfg.sigma is None else {"sigma": cfg.sigma})
    config, smoothness = ((Indicator1DConfig, smoothness_1d) if case.dims == 1
                          else (Indicator2DConfig, smoothness_2d))
    kind = type(config.variant)
    variant = config.variant.value if cfg.variant is None else cfg.variant
    choices = sorted(member.value for member in kind)
    if variant not in choices:
        raise ValueError(f"{case.dims}D variant must be one of {choices}")
    indicator = config(variant=kind(variant), **knobs)
    sm = smoothness(field, indicator)
    if cfg.out_dir is not None:
        out = Path(cfg.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        if case.dims == 1:
            with open(out / "indicators.csv", "w") as f:
                write_field_csv(field.grid, f, omega=sm.omega, phi=sm.phi)
        else:
            _write_maps(out, field.grid, sm)
        # the variant and sigma the maps were made with, None resolved
        _write_meta(out, cfg, resolved_variant=variant,
                    resolved_sigma=indicator.sigma)
    return field, sm
