"""Span tracing around the solver's public functions, from outside ``src``.

The solver resolves its collaborators through module globals
(``hjaf.filtering.smoothness_2d``, ``hjaf.filtering.epsilon_n``, ...) and
reads neighbours through ``GridField.shifted``.  ``installed`` swaps those
names for timing wrappers and puts the originals back on exit, so the
traced run executes the solver's own step loop.  Hamiltonian closures and
the problem's initial/exact callables are wrapped on a
``dataclasses.replace`` copy that reaches the solver through
``run_convergence(problem=...)``.

Each span keeps a name, a start, an end and its parent's index; a span's
self time is its duration minus the durations of its direct children.
Work the tracer itself does on a return value (counting trusted nodes,
the realized step restriction) runs in a ``trace.probe`` child with
recording paused, so it is charged to no solver layer.
"""
from __future__ import annotations

import contextlib
import dataclasses
import functools
import gzip
from collections import Counter
from time import perf_counter

import numpy as np

PROBE = "trace.probe"


class Tracer:
    def __init__(self) -> None:
        self.active = False
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.nodes: dict[int, int] = {}     # evolve span -> grid node count
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.maxima: dict[str, float] = {}
        self.last: dict[str, object] = {}   # latest high-order step result

    def open(self, name: str) -> int:
        i = len(self.names)
        self.names.append(name)
        self.parents.append(self.stack[-1] if self.stack else -1)
        self.ends.append(float("nan"))
        self.stack.append(i)
        self.starts.append(perf_counter())
        return i

    def close(self, i: int) -> None:
        self.ends[i] = perf_counter()
        if self.stack.pop() != i:
            raise RuntimeError(f"span {self.names[i]!r} closed out of order")

    @contextlib.contextmanager
    def span(self, name: str):
        i = self.open(name)
        try:
            yield i
        finally:
            self.close(i)

    @contextlib.contextmanager
    def probe(self):
        """Tracer bookkeeping: a child span with recording paused."""
        i = self.open(PROBE)
        self.active = False
        try:
            yield
        finally:
            self.active = True
            self.close(i)

    def peak(self, key: str, value: float) -> None:
        self.maxima[key] = max(self.maxima.get(key, -np.inf), float(value))

    def wrap(self, name: str, fn, after=None):
        """``fn`` timed as span ``name``; ``after(span, out, args, kwargs)``
        runs as a probe inside the span."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            i = self.open(name)
            try:
                out = fn(*args, **kwargs)
                if after is not None:
                    with self.probe():
                        after(i, out, args, kwargs)
            finally:
                self.close(i)
            return out
        return traced

    # ------------------------------------------------------------------
    # analysis

    def arrays(self):
        names = np.asarray(self.names)
        start = np.asarray(self.starts)
        end = np.asarray(self.ends)
        parent = np.asarray(self.parents, dtype=np.int64)
        return names, start, end, parent

    def self_times(self) -> np.ndarray:
        _, start, end, parent = self.arrays()
        dur = end - start
        child = np.zeros(len(dur))
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        return dur - child

    def write(self, path) -> None:
        """All spans as gzipped CSV: index, name, start, end, parent."""
        with gzip.open(path, "wt") as f:
            f.write("index,name,start_s,end_s,parent\n")
            t0 = self.starts[0] if self.starts else 0.0
            for i, (n, s, e, p) in enumerate(zip(self.names, self.starts,
                                                 self.ends, self.parents)):
                f.write(f"{i},{n},{s - t0:.9f},{e - t0:.9f},{p}\n")


def check_nesting(tracer: Tracer) -> None:
    """Every span ends, and lies inside its parent's interval."""
    names, start, end, parent = tracer.arrays()
    if np.isnan(end).any():
        raise AssertionError("a span was never closed")
    if (end < start).any():
        raise AssertionError("a span ends before it starts")
    kids = parent >= 0
    p = parent[kids]
    if (p >= np.flatnonzero(kids)).any():
        raise AssertionError("a parent span opens after its child")
    if (start[kids] < start[p]).any() or (end[kids] > end[p]).any():
        bad = np.flatnonzero(kids)[(start[kids] < start[p]) | (end[kids] > end[p])][0]
        raise AssertionError(f"span {names[bad]} leaves its parent {names[parent[bad]]}")


# ----------------------------------------------------------------------
# hooks run on return values

def _shifted_bytes(tracer: Tracer):
    def after(i, out, args, kwargs):
        # one read and one write of the grid per np.take pass (computed)
        dj = args[1] if len(args) > 1 else kwargs.get("dj", 0)
        di = args[2] if len(args) > 2 else kwargs.get("di", 0)
        tracer.counts["grids.shifted_bytes"] += 2 * out.nbytes * ((dj != 0) + (di != 0))
    return after


def _smoothness_counts(tracer: Tracer):
    def after(i, out, args, kwargs):
        tracer.counts["filtering.af_steps"] += 1
        tracer.counts["filtering.node_steps"] += out.phi.size
        tracer.counts["filtering.trusted_nodes"] += int(np.count_nonzero(out.phi == 1))
    return after


def _remember(tracer: Tracer, name: str):
    def after(i, out, args, kwargs):
        tracer.last[name] = out
    return after


def _realized_cfl(tracer: Tracer, one_sided_slopes):
    """max(lam_x |H_p|, lam_y |H_q|) over the four pairings of the
    one-sided slopes the monotone step reads."""
    def after(i, out, args, kwargs):
        field, H, dt = args[0], args[2], args[3]
        x, y = field.grid.meshes()
        pm, pp, qm, qp = one_sided_slopes(field)
        lam_x, lam_y = dt / field.grid.dx, dt / field.grid.dy
        value = 0.0
        for p in (pm, pp):
            for q in (qm, qp):
                value = max(value,
                            lam_x * float(np.max(np.abs(H.dp(x, y, p, q)))),
                            lam_y * float(np.max(np.abs(H.dq(x, y, p, q)))))
        tracer.peak("monotone.realized_cfl", value)
    return after


def _selection_counts(tracer: Tracer):
    def after(i, out, args, kwargs):
        u_a = tracer.last.pop("highorder.step", None)
        if u_a is None:
            tracer.counts["filtering.eps_floor_steps"] += 1
            return
        trusted = np.asarray(args[5], dtype=bool)
        tracer.counts["filtering.ho_attempted"] += int(np.count_nonzero(trusted))
        tracer.counts["filtering.ho_accepted"] += int(np.count_nonzero(
            trusted & (out.values == u_a.values)))
    return after


def _evolve_nodes(tracer: Tracer):
    def after(i, out, args, kwargs):
        tracer.nodes[i] = int(args[0].values.size)
    return after


def traced_hamiltonian(tracer: Tracer, H):
    """Copy of H whose closures are timed as hamiltonians.eval/deriv."""
    changes = {"eval": tracer.wrap("hamiltonians.eval", H.eval)}
    for slot in ("dp", "dq", "dx_", "dy_", "alpha_p", "alpha_q"):
        fn = getattr(H, slot)
        if fn is not None:
            changes[slot] = tracer.wrap("hamiltonians.deriv", fn)
    return dataclasses.replace(H, **changes)


def traced_problem(tracer: Tracer, problem):
    """Copy of the problem with traced hamiltonian, initial data and oracle."""
    changes = {"hamiltonian": traced_hamiltonian(tracer, problem.hamiltonian),
               "initial": tracer.wrap("problems.initial", problem.initial)}
    if problem.exact is not None:
        changes["exact"] = tracer.wrap("problems.exact", problem.exact)
    return dataclasses.replace(problem, **changes)


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Swap the solver's collaborator names for traced wrappers."""
    import hjaf.filtering as filtering
    import hjaf.grids as grids
    import hjaf.harness as harness
    import hjaf.indicators2d as indicators2d
    import hjaf.monotone as monotone

    def traced_factory(factory):
        @functools.wraps(factory)
        def make(*args, **kwargs):
            return tracer.wrap("highorder.step", factory(*args, **kwargs),
                               _remember(tracer, "highorder.step"))
        return make

    plan = [
        (harness, "af_evolve", "filtering.evolve", _evolve_nodes(tracer)),
        (harness, "error_norms", "reporting.norms", None),
        (harness, "_write_convergence_outputs", "harness.write", None),
        (filtering, "smoothness_2d", "indicators2d.smoothness", _smoothness_counts(tracer)),
        (indicators2d, "quadrant_beta_fields", "indicators2d.beta", None),
        (indicators2d, "phi_2d", "indicators2d.phi", None),
        (filtering, "epsilon_n", "filtering.epsilon", None),
        (filtering, "af_step", "filtering.select", _selection_counts(tracer)),
        (filtering, "monotone_step", "monotone.step",
         _realized_cfl(tracer, monotone.one_sided_slopes)),
        (filtering, "monotone_hamiltonian", "monotone.hamiltonian", None),
        (monotone, "monotone_hamiltonian", "monotone.hamiltonian", None),
        (grids.GridField, "shifted", "grids.shifted", _shifted_bytes(tracer)),
    ]
    saved = []
    try:
        for owner, attr, name, after in plan:
            original = getattr(owner, attr)
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(name, original, after))
        saved.append((filtering, "high_order_step", filtering.high_order_step))
        filtering.high_order_step = traced_factory(filtering.high_order_step)
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
