"""Solver benchmark: one refinement-study workload per run.

    python3 perfbench/run.py --workload transport-rkc4 --seed 0 --seconds 30 --trace 0

Run from the root of a checkout.  It first checks seed 0 at the coarsest
level against stored norms.  Then it starts repetitions (``rep.py``), each
in a fresh process as ``hjaf solve`` would run, until the next one would
end after ``--seconds`` (at least three).

With ``--trace 0`` a repetition times set-up, the study and finest-level
runs, and the end-to-end metrics are medians over them, scaled to the
reference host speed (``calib.py``).  With
``--trace 1`` one untraced repetition is followed by traced ones, and the
per-layer metrics come from their spans.

Every norm is checked: exactly against the first repetition, and against
the stored seed-0 values (``workloads.check_norms``).  A failure sets
``"correct": false`` and makes the exit code 1.  The last line of
standard output is the JSON result; the full record goes to
``perfbench/.results``.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import env  # numpy, hjaf and the modules using them load after env.prepare()

HERE = Path(__file__).resolve().parent
RESULTS = HERE / ".results"
MIN_REPS = 3
# A finest-level evolve takes 0.02-5 s; each repetition runs the finest
# level alone, AF and floor, until each has this much CPU time in samples.
LEVEL_CPU_PER_REP = 1.0
TRACE_MIN_STEP_SAMPLES = 100
MAX_SECONDS = 120.0     # stop repeating after this, whatever else holds
DEADLINE_S = 170.0      # a run must end within 180 s
TAIL_PERCENTILES = (99.9, 99.0, 90.0)


class Run:
    """Repetitions of one workload, and what went wrong in them."""

    def __init__(self, workload, seed: int, out_dir: Path):
        self.workload = workload
        self.seed = seed
        self.out_dir = out_dir
        self.attempted = 0
        self.failures: list[str] = []
        self.first_norms: dict[str, tuple] = {}
        self.deadline = perf_counter() + DEADLINE_S

    def check(self, label: str, norms, reference) -> bool:
        import workloads
        norms = tuple(norms)
        problem = workloads.check_norms(label, norms, reference, self.seed)
        first = self.first_norms.setdefault(label, norms)
        if problem is None and norms != first:
            problem = f"{label} norms {norms} differ from the first repetition's {first}"
        if problem is not None:
            self.failures.append(problem)
        return problem is None

    def coarse(self) -> bool:
        """The exact seed-0 check of the coarsest level, study and floor."""
        import workloads
        self.attempted += 2
        try:
            self.failures.extend(workloads.coarse_check(self.workload))
        except Exception as exc:
            self.failures.append(f"coarse check raised {exc!r}")
        return not self.failures

    def rep(self, *options: str) -> dict | None:
        """One repetition in a fresh process; None when it failed."""
        cmd = [sys.executable, str(HERE / "rep.py"), "--workload", self.workload.name,
               "--seed", str(self.seed), "--out", str(self.out_dir), *options]
        timeout = max(self.deadline - perf_counter(), 1.0)
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True,
                                  timeout=timeout, cwd=env.ROOT)
        except subprocess.TimeoutExpired:
            record = {"error": f"repetition still running after {timeout:.0f} s"}
        else:
            try:
                record = json.loads(proc.stdout.strip().splitlines()[-1])
            except (IndexError, ValueError):
                record = {"error": f"repetition exited {proc.returncode}: "
                                   f"{proc.stderr.strip()[-1500:]}"}
        if "error" in record:
            self.attempted += 1
            self.failures.append(record["error"])
            return None
        return record

    def judge(self, record: dict) -> bool:
        """Count the record's runs and check its norms."""
        w = self.workload
        if "levels" in record:
            norms = ([("study", n, w.reference) for n, _ in record["levels"]["af"]]
                     + [("floor", n, w.floor_reference) for n, _ in record["levels"]["floor"]])
        else:
            norms = [("study", record["study_norms"], w.reference),
                     ("floor", record["floor_norms"], w.floor_reference)]
        self.attempted += len(norms)
        if record["rows"] != w.refinements:
            self.failures.append(f"study gave {record['rows']} rows, expected {w.refinements}")
            return False
        # a standalone AF run must reproduce the study's finest row exactly
        return all(self.check(label, n, ref) for label, n, ref in norms)

    def repeat(self, seconds: float, options, enough=lambda reps: True) -> list[dict]:
        """Repetitions until the next would end after ``seconds`` (at
        least MIN_REPS, and until ``enough``), until one fails, or until
        MAX_SECONDS have passed."""
        reps, t_start = [], perf_counter()
        while True:
            record = self.rep(*options(len(reps)))
            if record is None or not self.judge(record):
                return reps
            reps.append(record)
            elapsed = perf_counter() - t_start
            if elapsed > MAX_SECONDS or (
                    len(reps) >= MIN_REPS and enough(reps)
                    and elapsed * (len(reps) + 1) / len(reps) > seconds):
                return reps


def median(values) -> float:
    return float(statistics.median(values))


def measure(run: Run, seconds: float):
    """End-to-end metrics, untraced.  The CPU timings are scaled to the
    reference host speed (``calib``); ``cpu_*`` are the unscaled ones."""
    import calib
    reps = run.repeat(seconds, lambda k: ("--level-cpu", str(LEVEL_CPU_PER_REP)))
    if not reps:
        return {}, {}
    samples = {
        "cpu_setup_s": [r["setup_s"] for r in reps],
        "cpu_study_s": [r["study_s"] for r in reps],
        "cpu_node_steps_per_s": [rate for r in reps for _, rate in r["levels"]["af"]],
        "cpu_floor_node_steps_per_s": [rate for r in reps for _, rate in r["levels"]["floor"]],
        "peak_rss_mb": [r["peak_rss_mb"] for r in reps],
        "minor_faults": [r["minor_faults"] for r in reps],
        "study_wall_s": [r["study_wall_s"] for r in reps],
        "wall_node_steps_per_s": [r["wall_node_steps_per_s"] for r in reps],
        "probe_s": [p for r in reps for p in r["probe_s"]],
    }
    metrics = {key: median(values) for key, values in samples.items()}
    metrics["probe_s"] = float(statistics.fmean(samples["probe_s"]))
    slowdown = metrics["probe_s"] / calib.REFERENCE_S
    for name in ("setup_s", "study_s"):
        metrics[name] = metrics["cpu_" + name] / slowdown
    for name in ("node_steps_per_s", "floor_node_steps_per_s"):
        metrics[name] = metrics["cpu_" + name] * slowdown
    metrics["err_linf"], metrics["err_l1"] = run.first_norms["study"]
    samples["floor_norms"] = list(run.first_norms["floor"])
    return metrics, samples


def tail_percentile(samples) -> tuple[float, float]:
    """Highest percentile of TAIL_PERCENTILES with at least ten samples
    beyond it, and its value."""
    import numpy as np
    for q in TAIL_PERCENTILES:
        if len(samples) * (1.0 - q / 100.0) >= 10:
            return q, float(np.percentile(samples, q))
    raise ValueError(f"{len(samples)} step samples give no tail percentile")


def trace(run: Run, seconds: float, tag: str):
    """Per-layer metrics from traced repetitions."""
    import numpy as np
    import rep
    untraced = run.rep()
    if untraced is None or not run.judge(untraced):
        return {}, {}

    def spans(k):
        return ("--spans", str(RESULTS / f"{tag}-spans{k}.csv.gz"))

    def enough(reps):
        return sum(len(r["steps"]) for r in reps) >= TRACE_MIN_STEP_SAMPLES

    reps = run.repeat(seconds, spans, enough)
    if not reps:
        return {}, {}
    if not enough(reps):
        run.failures.append(f"fewer than {TRACE_MIN_STEP_SAMPLES} step samples "
                            f"in {MAX_SECONDS:g} s")
        return {}, {}
    for r in reps:
        if abs(r["self_sum_s"] - r["roots_s"]) > 1e-9 * max(r["roots_s"], 1.0):
            run.failures.append(f"self times sum to {r['self_sum_s']} s, "
                                f"traced wall time is {r['roots_s']} s")
    calls = list(rep.CALLS.values())
    first = reps[0]

    def exact(r):
        return r["counts"], r["maxima"], [r["totals"][k] for k in calls]

    if any(exact(r) != exact(first) for r in reps):
        run.failures.append("traced counts differ between repetitions")

    steps = [s for r in reps for s in r["steps"]]
    metrics = {key: median(r["totals"][key] for r in reps) for key in first["totals"]}
    metrics.update({key: first["totals"][key] for key in calls})
    c = first["counts"]
    metrics["grids.shifted_mb"] = c["grids.shifted_bytes"] / 1e6
    metrics["filtering.trusted_frac"] = c["filtering.trusted_nodes"] / max(c["filtering.node_steps"], 1)
    metrics["filtering.ho_accept_ratio"] = c["filtering.ho_accepted"] / max(c["filtering.ho_attempted"], 1)
    metrics["filtering.eps_floor_steps"] = c["filtering.eps_floor_steps"]
    metrics["monotone.realized_cfl"] = first["maxima"].get("monotone.realized_cfl", 0.0)
    metrics["filtering.step_p50_ms"] = float(np.percentile(steps, 50))
    metrics["filtering.step_p90_ms"] = float(np.percentile(steps, 90))
    q, tail = tail_percentile(steps)
    metrics[f"filtering.step_p{q:g}_ms"] = tail
    metrics["trace.untraced_study_s"] = untraced["study_wall_s"]
    metrics["trace.overhead_s"] = metrics["trace.study_s"] - untraced["study_wall_s"]
    samples = {"reps": len(reps), "step_samples": len(steps), "tail_percentile": q,
               "counters": c, "trace.study_s": [r["totals"]["trace.study_s"] for r in reps]}
    return metrics, samples


def _describe(name: str) -> dict:
    """Unit and direction of a metric printed but not in BENCHMARK.json."""
    for suffix, unit in (("_per_s", "1/s"), ("_ms", "ms"), ("_s", "s"), ("_mb", "MB"),
                         ("_faults", "count")):
        if name.endswith(suffix):
            return {"unit": unit, "better": "higher" if unit == "1/s" else "lower"}
    return {"unit": "norm", "better": "lower"}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        env.prepare()
        with open(env.ROOT / "BENCHMARK.json") as f:
            spec = json.load(f)
    except (env.MissingSolver, OSError) as exc:
        print(f"perfbench: cannot run here: {exc}", file=sys.stderr)
        return 2
    import workloads
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(workloads.WORKLOADS)}")
    if args.seed < 0:
        parser.error("seed must be nonnegative")
    w = workloads.WORKLOADS[args.workload]
    RESULTS.mkdir(exist_ok=True)
    tag = f"{w.name}-seed{args.seed}-trace{args.trace}"
    run = Run(w, args.seed, RESULTS / tag)
    metrics, samples = {}, {}
    if run.coarse():
        if args.trace:
            metrics, samples = trace(run, args.seconds, tag)
        else:
            metrics, samples = measure(run, args.seconds)
    wanted = {d["name"]: d for d in spec["per_layer" if args.trace else "end_to_end"]}
    missing = [name for name in wanted if name not in metrics]
    if missing and not run.failures:
        run.failures.append("missing metrics: " + ", ".join(missing))
    correct = not run.failures

    record = {"workload": w.name, "seed": args.seed,
              "data_offset": workloads.data_offset(w, args.seed),
              "seconds": args.seconds, "trace": args.trace, "env": env.record(),
              "attempted": run.attempted, "failures": run.failures,
              "metrics": metrics, "samples": samples}
    with open(RESULTS / f"{tag}.json", "w") as f:
        json.dump(record, f, indent=1)
    print(f"perfbench {w.name} seed={args.seed} offset={record['data_offset']} "
          f"trace={args.trace} seconds={args.seconds:g}")
    print("env " + json.dumps(record["env"], sort_keys=True))
    for failure in run.failures:
        print("FAILED " + failure.strip().replace("\n", " | "))
    for name, value in metrics.items():
        d = wanted.get(name) or _describe(name)
        note = "" if name in wanted else ", reported only"
        print(f"  {name:<28} {value:>16.8g} {d['unit']:<8} ({d['better']} is better{note})")
    print(f"  {'failed_frac':<28} {len(run.failures) / max(run.attempted, 1):>16.8g} "
          f"{'fraction':<8} (lower is better, reported only)")
    result = {name: {"value": metrics[name], "unit": d["unit"]}
              for name, d in wanted.items() if name in metrics}
    print(json.dumps({"correct": correct, "attempted": max(run.attempted, 1),
                      "failed": len(run.failures), "metrics": result}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
