"""Quick check of the benchmark itself (about a minute).

    python3 perfbench/selfcheck.py

Runs every workload at its coarsest level alone, seed 0, twice under the
tracer, and asserts that the spans nest, that the self times of each
repetition sum to its traced wall time, that every count repeats exactly,
that the error norms equal the stored ones and the ones ``hjaf solve``
prints for the same test, scheme and level, and that the traced names are
restored afterwards.  Exit code 0 when all hold.
"""
from __future__ import annotations

import contextlib
import dataclasses
import io
import sys
from pathlib import Path

import env  # numpy, hjaf and the modules using them load after env.prepare()


def expect(condition, message) -> None:
    if not condition:
        raise AssertionError(message)


def solve_norms(workload) -> tuple[float, float]:
    """Finest-row (err_linf, err_l1) printed by ``hjaf solve``."""
    from hjaf.cli import main
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["solve", "--test", workload.test_id, "--scheme", workload.scheme,
                     "--refinements", str(workload.refinements)])
    expect(code == 0, f"hjaf solve exited {code}")
    row = out.getvalue().strip().splitlines()[-1].split(",")
    return float(row[2]), float(row[4])


def check_workload(w, out_dir: Path) -> None:
    import hjaf.filtering
    import hjaf.grids
    import rep as bench_rep
    from tracer import check_nesting, installed

    originals = (hjaf.filtering.smoothness_2d, hjaf.grids.GridField.shifted)
    coarse = dataclasses.replace(w, refinements=1)
    rep = bench_rep.TracedRep(coarse, 0, out_dir)
    with installed(rep.tracer):
        reps = [rep(), rep()]
    expect((hjaf.filtering.smoothness_2d, hjaf.grids.GridField.shifted) == originals,
           "traced names not restored")
    check_nesting(rep.tracer)
    for r in reps:
        expect(abs(r["self_sum_s"] - r["roots_s"]) <= 1e-9 * max(r["roots_s"], 1.0),
               f"self times sum to {r['self_sum_s']}, traced wall time is {r['roots_s']}")
        expect(r["steps"] and min(r["steps"]) > 0, "no step samples")
        expect(r["study_norms"] == w.coarse_reference,
               f"study norms {r['study_norms']}, stored {w.coarse_reference}")
        expect(r["floor_norms"] == w.coarse_floor_reference,
               f"floor norms {r['floor_norms']}, stored {w.coarse_floor_reference}")
    a, b = reps
    calls = list(bench_rep.CALLS.values())
    expect(a["counts"] == b["counts"], (a["counts"], b["counts"]))
    expect(a["maxima"] == b["maxima"], (a["maxima"], b["maxima"]))
    expect([a["totals"][k] for k in calls] == [b["totals"][k] for k in calls],
           "call counts differ between repetitions")
    expect(a["study_norms"] == solve_norms(coarse), "norms differ from hjaf solve")
    print(f"ok  {w.name:<16} coarse norms {a['study_norms']}  "
          f"{a['totals']['indicators2d.calls']} AF steps, "
          f"{a['totals']['grids.shifted_calls']} shifted calls, "
          f"self times cover {a['roots_s']:.3f} s")


def main() -> int:
    try:
        env.prepare()
    except env.MissingSolver as exc:
        print(f"selfcheck: cannot run here: {exc}", file=sys.stderr)
        return 2
    import run as bench
    import workloads
    bench.RESULTS.mkdir(exist_ok=True)
    failed = 0
    for w in workloads.WORKLOADS.values():
        try:
            check_workload(w, bench.RESULTS / f"selfcheck-{w.name}")
        except AssertionError as exc:
            failed += 1
            print(f"FAIL {w.name}: {exc}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
