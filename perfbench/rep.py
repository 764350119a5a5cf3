"""One repetition of a workload, in a process of its own.

    python3 perfbench/rep.py --workload burgers-rkc4 --seed 3 --out DIR [--level-cpu 1.0]
    python3 perfbench/rep.py --workload burgers-rkc4 --seed 3 --out DIR --spans FILE

``hjaf solve`` runs one study per process.  Later studies in the same
process pay a different kernel cost for their memory (on the machine this
was tuned on, system time grew from 0.4 s to 1.5 s per transport study),
so ``run.py`` starts a fresh process for every repetition.  A repetition
sets the workload up, runs the study, and runs the finest level alone
under the AF scheme and under the floor.  With ``--spans`` it runs the
study and one floor under the tracer instead and writes the spans.  It
prints one JSON record; ``run.py`` judges the norms in it.
"""
from __future__ import annotations

import argparse
import json
import resource
import sys
import traceback

import env  # numpy, hjaf and the modules using them load after env.prepare()

# span name -> per-layer self-time metric
SELF_TIME = {
    "indicators2d.beta": "indicators2d.beta_s",
    "indicators2d.phi": "indicators2d.phi_s",
    "indicators2d.smoothness": "indicators2d.smoothness_s",
    "filtering.epsilon": "filtering.epsilon_s",
    "filtering.select": "filtering.select_s",
    "filtering.evolve": "filtering.evolve_s",
    "monotone.step": "monotone.step_s",
    "monotone.hamiltonian": "monotone.hamiltonian_s",
    "highorder.step": "highorder.step_s",
    "hamiltonians.eval": "hamiltonians.s",
    "hamiltonians.deriv": "hamiltonians.s",
    "grids.shifted": "grids.shifted_s",
    "problems.exact": "problems.exact_s",
    "problems.initial": "problems.initial_s",
    "reporting.norms": "reporting.norms_s",
    "harness.write": "harness.write_s",
    "harness.study": "harness.self_s",
    "bench.floor": "bench.floor_self_s",
    "trace.probe": "trace.probe_s",
}
# span name -> per-layer call-count metric
CALLS = {
    "indicators2d.smoothness": "indicators2d.calls",
    "monotone.hamiltonian": "monotone.hamiltonian_calls",
    "highorder.step": "highorder.calls",
    "hamiltonians.eval": "hamiltonians.eval_calls",
    "hamiltonians.deriv": "hamiltonians.deriv_calls",
    "grids.shifted": "grids.shifted_calls",
}
COUNTERS = ("filtering.af_steps", "filtering.node_steps", "filtering.trusted_nodes",
            "filtering.ho_attempted", "filtering.ho_accepted",
            "filtering.eps_floor_steps", "grids.shifted_bytes")


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def untraced(workload, seed: int, out_dir, level_cpu: float) -> dict:
    """Set-up, study, then finest-level runs of the AF scheme and of the
    floor until each used ``level_cpu`` CPU seconds (the study's own
    finest evolve counts for the AF scheme; the floor runs at least once).
    Host-speed probes (``calib``) run after each timed call."""
    import calib
    import workloads
    setup = workloads.set_up(workload, seed)
    probes = calib.probes_after(setup.seconds)
    store: dict = {}
    problem = workloads.capture_exact(setup.problem, store)
    study = workloads.run_study(workload, problem, out_dir)
    probes += calib.probes_after(study.study_s)
    levels = {"af": [(study.norms, study.node_steps_per_s)], "floor": []}
    for kind, spent in (("af", study.finest_cpu), ("floor", 0.0)):
        while not levels[kind] or spent < level_cpu:
            r = setup.evolve(kind, store)
            probes += calib.probes_after(r.seconds)
            levels[kind].append((r.norms, r.node_steps_per_s))
            spent += r.seconds
    return {"setup_s": setup.seconds, "study_s": study.study_s,
            "study_wall_s": study.wall_s, "rows": study.rows,
            "wall_node_steps_per_s": study.wall_node_steps_per_s,
            "levels": levels, "probe_s": probes}


class TracedRep:
    """A workload set up for traced repetitions: call it inside
    ``tracer.installed(rep.tracer)``; each call runs one study and one
    floor and returns their record."""

    def __init__(self, workload, seed: int, out_dir):
        import dataclasses
        import workloads
        from tracer import Tracer, traced_problem
        self.workload = workload
        self.out_dir = out_dir
        setup = workloads.set_up(workload, seed)
        self.store: dict = {}
        self.tracer = Tracer()
        problem = traced_problem(self.tracer, workloads.capture_exact(setup.problem, self.store))
        self.setup = dataclasses.replace(setup, problem=problem, configs={
            kind: dataclasses.replace(config, hamiltonian=problem.hamiltonian)
            for kind, config in setup.configs.items()})

    def __call__(self) -> dict:
        import workloads
        tr = self.tracer
        first = len(tr.names)
        tr.counts.clear()
        tr.maxima.clear()
        tr.active = True
        try:
            with tr.span("harness.study") as root:
                study = workloads.run_study(self.workload, self.setup.problem, self.out_dir)
            with tr.span("bench.floor") as floor_root:
                floor = self.setup.evolve("floor", self.store)
        finally:
            tr.active = False
        last = len(tr.names)
        totals = layer_totals(tr, first, last)
        totals["trace.study_s"] = tr.ends[root] - tr.starts[root]
        return {"totals": totals, "steps": finest_step_ms(tr, root, last),
                "counts": {k: tr.counts[k] for k in COUNTERS},
                "maxima": dict(tr.maxima),
                "self_sum_s": float(tr.self_times()[first:last].sum()),
                "roots_s": sum(tr.ends[i] - tr.starts[i] for i in (root, floor_root)),
                "rows": study.rows, "study_norms": study.norms,
                "floor_norms": floor.norms}


def layer_totals(tracer, first: int, last: int) -> dict:
    """Self times and call counts of spans [first, last) by layer metric."""
    import numpy as np
    names = np.asarray(tracer.names[first:last])
    own = tracer.self_times()[first:last]
    out = {metric: 0.0 for metric in SELF_TIME.values()}
    out.update({metric: 0 for metric in CALLS.values()})
    for name in np.unique(names):
        sel = names == name
        if name in SELF_TIME:
            out[SELF_TIME[name]] += float(own[sel].sum())
        if name in CALLS:
            out[CALLS[name]] += int(sel.sum())
    return out


def finest_step_ms(tracer, root: int, last: int) -> list[float]:
    """Durations of the AF steps of the study's finest level: from one
    step's smoothness call to the next (the last to the evolve's end)."""
    evolves = [i for i in range(root, last) if tracer.parents[i] == root
               and tracer.names[i] == "filtering.evolve"]
    if not evolves:
        return []
    ev = max(evolves, key=lambda i: tracer.nodes.get(i, 0))
    starts = [tracer.starts[i] for i in range(ev, last) if tracer.parents[i] == ev
              and tracer.names[i] == "indicators2d.smoothness"]
    bounds = starts + [tracer.ends[ev]]
    return [1e3 * (b - a) for a, b in zip(bounds, bounds[1:])]


def traced(workload, seed: int, out_dir, spans_path) -> dict:
    from tracer import check_nesting, installed
    rep = TracedRep(workload, seed, out_dir)
    with installed(rep.tracer):
        record = rep()
    check_nesting(rep.tracer)
    rep.tracer.write(spans_path)
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, help="output directory of the study")
    parser.add_argument("--level-cpu", type=float, default=0.0)
    parser.add_argument("--spans", default=None, help="trace, and write the spans here")
    args = parser.parse_args(argv)
    try:
        env.prepare()
        import workloads
        w = workloads.WORKLOADS[args.workload]
        if args.spans is None:
            record = untraced(w, args.seed, args.out, args.level_cpu)
        else:
            record = traced(w, args.seed, args.out, args.spans)
    except Exception:
        record = {"error": traceback.format_exc(limit=4)}
    record["peak_rss_mb"] = peak_rss_mb()
    record["minor_faults"] = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    print(json.dumps(record))
    return 1 if "error" in record else 0


if __name__ == "__main__":
    sys.exit(main())
