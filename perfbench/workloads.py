"""The four refinement studies, their seeded inputs and their checks.

Every workload is one ``run_convergence`` study through the public
harness, with an output directory (the cost of ``hjaf solve --out``), plus
a floor: the same problem at the finest level under the bare high-order
scheme.  The program only ever receives a ``ProblemSpec``.
"""
from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from time import perf_counter, process_time

import numpy as np

import hjaf.grids
import hjaf.harness as harness
from hjaf.harness import CliConfig, solver_config
from hjaf.problems import make_test
from hjaf.reporting import parse_report_csv

# Timings are process CPU seconds.  The solver is single-threaded, so on
# a core of its own CPU time equals wall time; on a shared virtual machine
# the wall clock can also count time the core was given to other guests,
# which is not the program's.  Wall times are recorded alongside.

# Relative tolerance on the stored seed-0 norms.  Tight enough to catch
# any change of the computed field, loose enough for a reordering of
# floating-point sums.
REFERENCE_RTOL = 1e-9

# Seeded runs move the data by up to half a finest cell.  That moves a
# kink against the grid, so the max-norm error of a seeded run can differ
# from seed 0 several-fold (burgers 0.56-1.45x, the fronts floor 0.14-1x
# over seeds 1-5); the L1 error moved at most 1.7x.  A seeded run's L1
# norm must stay within this factor of the seed-0 value; the exact check
# of every run is the seed-0 coarsest level (``coarse_check``).
SEEDED_L1_FACTOR = 2.0


@dataclass(frozen=True)
class Workload:
    name: str
    test_id: str
    scheme: str
    refinements: int
    floor_scheme: str
    rotating: bool          # exact solution moves a data shift by the rotation
    # seed-0 (err_linf, err_l1) of the study and of the floor at the
    # finest level, and at the coarsest level alone (refinements=1)
    reference: tuple[float, float]
    floor_reference: tuple[float, float]
    coarse_reference: tuple[float, float]
    coarse_floor_reference: tuple[float, float]

    def cli_config(self, scheme: str | None = None, out_dir: str | None = None,
                   refinements: int | None = None) -> CliConfig:
        return CliConfig(test_id=self.test_id, scheme=scheme or self.scheme,
                         refinements=refinements or self.refinements,
                         out_dir=out_dir)


# Why each workload exists is in perfbench/README.md.  BENCHMARK.json
# gates transport-rkc4 and burgers-rkc4; the other two run on request.
WORKLOADS = {w.name: w for w in (
    Workload(
        "transport-rkc4", "5", "af-rkc4", 3, "rkc4", False,
        reference=(2.6490167937098796e-05, 3.487421493409512e-05),
        floor_reference=(2.6490167937098796e-05, 3.487421493409512e-05),
        coarse_reference=(0.1711105276882663, 0.046019405490412224),
        coarse_floor_reference=(0.006326281033395553, 0.008011840163455845)),
    Workload(
        "rotation-hc", "6", "af-hc", 3, "hc", True,
        reference=(0.3545970703396112, 0.17873137578391962),
        floor_reference=(0.3696463349037995, 0.19525531283868236),
        coarse_reference=(0.828794705340814, 0.9552554127393166),
        coarse_floor_reference=(0.8497309745493272, 1.6408438479185732)),
    Workload(
        "burgers-rkc4", "8", "af-rkc4", 4, "rkc4", False,
        reference=(0.011736057698201408, 0.0003974491310004948),
        floor_reference=(0.05768386432171052, 0.01216466300130631),
        coarse_reference=(0.15246856881678655, 0.035241973549479305),
        coarse_floor_reference=(0.1408815111510598, 0.07200445721888858)),
    Workload(
        "fronts-oracle", "7a", "af-rkc4", 2, "rkc4", False,
        reference=(0.07780080224739433, 0.15985861309416263),
        floor_reference=(0.7867596799999922, 0.25050986595227265),
        coarse_reference=(0.13401617035274616, 0.6864583633291964),
        coarse_floor_reference=(0.7867596799999961, 0.7039992535611712)),
)}


def data_offset(workload: Workload, seed: int) -> tuple[float, float]:
    """Seeded sub-cell shift of the initial profile; (0, 0) for seed 0."""
    if seed == 0:
        return 0.0, 0.0
    grid = make_test(workload.test_id).grid(workload.refinements - 1)
    u, v = np.random.default_rng(seed).uniform(-0.5, 0.5, size=2)
    return float(u * grid.dx), float(v * grid.dy)


def seeded_problem(workload: Workload, offset: tuple[float, float]):
    """The registry problem, with initial data and exact solution shifted
    by ``offset`` (see ``data_offset``); no shift gives the registry
    problem itself."""
    base = make_test(workload.test_id)
    ox, oy = offset
    if (ox, oy) == (0.0, 0.0):
        return base
    initial, exact = base.initial, base.exact

    def shifted_initial(X, Y):
        return initial(X - ox, Y - oy)

    def shifted_exact(t, X, Y):
        sx, sy = ox, oy
        if workload.rotating:
            # u(t, x) = v0(R(-t) x - o) = exact(t, x - R(t) o)
            c, s = math.cos(t), math.sin(t)
            sx, sy = c * ox - s * oy, s * ox + c * oy
        return exact(t, X - sx, Y - sy)

    return dataclasses.replace(base, initial=shifted_initial, exact=shifted_exact)


def capture_exact(problem, store: dict):
    """Copy of the problem whose oracle also leaves its latest result in
    ``store`` by grid shape (computed every call; nothing is reused by
    the study itself)."""
    exact = problem.exact

    def recorded(t, X, Y):
        values = exact(t, X, Y)
        store[np.shape(values)] = values
        return values

    return dataclasses.replace(problem, exact=recorded)


@dataclass
class Setup:
    problem: object
    level: int          # the finest level
    field: object       # its initial field
    configs: dict       # "af" (the workload's scheme) / "floor" -> SolverConfig
    seconds: float

    def evolve(self, kind: str, exact_store: dict) -> "LevelResult":
        """The finest level alone under the AF scheme or the floor."""
        return run_level(self.problem, self.field, self.configs[kind], self.level,
                         exact_store[self.field.values.shape])


def _clear_mesh_cache() -> None:
    # a fresh process builds every mesh once; set-up pays that here
    cache = getattr(hjaf.grids, "_cached_meshes", None)
    if hasattr(cache, "cache_clear"):
        cache.cache_clear()


def set_up(workload: Workload, seed: int) -> Setup:
    """Problem, grids, initial fields and solver configs of every level."""
    offset = data_offset(workload, seed)    # input generation, not set-up
    _clear_mesh_cache()
    t0 = process_time()
    problem = seeded_problem(workload, offset)
    cfg = workload.cli_config()
    fields, configs = [], []
    for level in range(workload.refinements):
        problem.grid(level).meshes()
        fields.append(problem.initial_field(level))
        configs.append(solver_config(cfg, problem, level))
    finest = workload.refinements - 1
    floor_config = solver_config(workload.cli_config(workload.floor_scheme),
                                 problem, finest)
    seconds = process_time() - t0
    return Setup(problem, finest, fields[finest],
                 {"af": configs[finest], "floor": floor_config}, seconds)


@dataclass
class StudyResult:
    study_s: float              # process CPU seconds of the whole study
    wall_s: float
    finest_cpu: float           # process CPU seconds of the finest evolve
    node_steps_per_s: float     # finest nodes x steps / finest_cpu
    wall_node_steps_per_s: float   # the same per the row's cpu_seconds (wall)
    norms: tuple[float, float]
    rows: int


def run_study(workload: Workload, problem, out_dir) -> StudyResult:
    """One refinement study, as ``hjaf solve --out`` runs it."""
    cfg = workload.cli_config(out_dir=str(out_dir))
    evolve_cpu = []
    evolve = harness.af_evolve

    def metered(*args, **kwargs):
        c0 = process_time()
        out = evolve(*args, **kwargs)
        evolve_cpu.append(process_time() - c0)
        return out

    harness.af_evolve = metered
    try:
        t0, c0 = perf_counter(), process_time()
        report = harness.run_convergence(cfg, problem=problem)
        study_s, wall_s = process_time() - c0, perf_counter() - t0
    finally:
        harness.af_evolve = evolve
    row = report.rows[-1]
    with open(f"{out_dir}/table.csv") as f:
        written = parse_report_csv(f.read()).rows
    if written != report.rows:
        raise ValueError(f"{out_dir}/table.csv does not match the run's report")
    finest = problem.grid(workload.refinements - 1)
    node_steps = finest.nx * finest.ny * row.nt
    # levels run coarse to fine, so the last evolve is the finest row's
    return StudyResult(study_s, wall_s, evolve_cpu[-1], node_steps / evolve_cpu[-1],
                       node_steps / row.cpu_seconds, (row.err_linf, row.err_l1),
                       len(report.rows))


@dataclass
class LevelResult:
    seconds: float              # process CPU seconds of the evolve
    node_steps_per_s: float
    norms: tuple[float, float]


def run_level(problem, field, config, level: int, exact_values) -> LevelResult:
    """One level evolved from a set-up field, and its error norms."""
    steps = problem.n_steps(level)
    c0 = process_time()
    u, _ = harness.af_evolve(field, config, problem.T_final, steps)
    seconds = process_time() - c0
    norms = harness.error_norms(u, exact_values)
    return LevelResult(seconds, u.values.size * steps / seconds, norms)


def check_norms(label: str, norms, reference, seed: int) -> str | None:
    """None when the norms agree with the stored seed-0 reference: up to
    REFERENCE_RTOL for seed 0; finite, with the L1 norm within
    SEEDED_L1_FACTOR, for other seeds."""
    for name, got, want in zip(("err_linf", "err_l1"), norms, reference):
        if not math.isfinite(got):
            return f"{label} {name} is {got}"
        if seed == 0 and abs(got - want) > REFERENCE_RTOL * abs(want):
            return f"{label} {name} = {got!r}, stored {want!r}"
    got, want = norms[1], reference[1]
    if not want / SEEDED_L1_FACTOR <= got <= want * SEEDED_L1_FACTOR:
        return (f"{label} err_l1 = {got!r} outside a factor "
                f"{SEEDED_L1_FACTOR} of the seed-0 value {want!r}")
    return None


def coarse_check(workload: Workload) -> list[str]:
    """Seed 0 at the coarsest level alone, study and floor, against the
    stored norms; returns what failed."""
    store: dict = {}
    problem = capture_exact(seeded_problem(workload, (0.0, 0.0)), store)
    report = harness.run_convergence(workload.cli_config(refinements=1),
                                     problem=problem)
    row = report.rows[0]
    floor_config = solver_config(
        workload.cli_config(workload.floor_scheme, refinements=1), problem, 0)
    field = problem.initial_field(0)
    floor = run_level(problem, field, floor_config, 0, store[field.values.shape])
    failures = [check_norms("coarse study", (row.err_linf, row.err_l1),
                            workload.coarse_reference, 0),
                check_norms("coarse floor", floor.norms,
                            workload.coarse_floor_reference, 0)]
    return [f for f in failures if f is not None]
