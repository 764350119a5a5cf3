"""Compare the outputs of two trees of hjaf, run by run, byte by byte.

    python tools/ab_outputs.py PARENT CHANGE [--set quick|full]
        [--allow GLOB ...] [--allow-moved REVS]

PARENT and CHANGE are each a git revision of this repository or a
directory that holds ``src/hjaf`` (the working tree: ``.``).  Revisions
are extracted with ``git archive`` into fresh directories whose names have
equal length.  Every entry of the set runs in a process of its own,
``python -m hjaf.cli ... --out DIR`` with PYTHONPATH on that tree's
``src``; its stdout, stderr and exit code are kept as files beside its
output directory.  Files are compared byte for byte, except that the
``cpu_seconds`` column of ``table.csv`` and of stdout is masked.

Prints ``runs= files= identical= differ=``; then, for each file that
differs, the first differing line and the largest |delta| per numeric
column.  A difference is declared when its ``run_id/file`` path matches
an ``--allow`` glob (``fnmatch``, so ``*`` also matches ``/``); it is
printed as ``ALLOWED`` instead of ``DIFF``.  ``--allow-moved REVS`` adds
one glob per ``Outputs-moved:`` trailer of the commits in the git
revision range REVS (``BASE..HEAD``), so a commit declares the outputs it
moves.  Exits 0 only when every difference is declared and every glob
matches one (a glob that matches none is a stale declaration, printed as
``STALE``).  Output bytes depend on the machine's libm, so compare two
trees on one machine; keep no digests.
"""
from __future__ import annotations

import argparse
import csv
import fnmatch
import io
import itertools
import math
import os
import subprocess
import sys
import tarfile
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
SCHEMES = ("monotone", "hc", "lw", "lw2", "richtmyer", "rkc4", "af-hc",
           "af-lw", "af-lw2", "af-richtmyer", "af-rkc4", "f-hc-fixed")
MASKED = "cpu_seconds"
TRAILER = "Outputs-moved"


def _solve(test, scheme, levels, *extra):
    return ("solve", "--test", test, "--scheme", scheme,
            "--refinements", str(levels), *extra)


def _indicators(test, variant, placement):
    return ("indicators", "--test", test, "--variant", variant,
            "--placement", placement)


QUICK = (
    _solve("5", "af-rkc4", 1), _solve("6", "af-lw", 1),
    _solve("7b", "af-hc", 1), _solve("8", "af-rkc4", 1),
    _indicators("1", "mapped-g", "node"), _indicators("2", "full", "cell"),
)

FULL = (
    *(_solve(t, s, 1) for t in ("5", "6", "7b", "8") for s in SCHEMES),
    _solve("5", "af-rkc4", 2), _solve("8", "af-rkc4", 3),
    _solve("6", "af-lw", 2), _solve("7a", "af-hc", 1),
    _solve("8-regular", "af-rkc4", 2),
    _solve("8", "af-rkc4", 2, "--indicator", "split"),
    _solve("8", "af-rkc4", 2, "--indicator", "partial"),
    _solve("8", "af-lw2", 2, "--lw2-corrected"),
    _solve("8", "rkc4", 1, "--K", "5"),
    # either side of the trust mask's path: an uncertified threshold
    # (mapped weights) and a certified one other than the default
    _solve("8", "af-rkc4", 2, "--M", "0.49"),
    _solve("8", "af-rkc4", 2, "--M", "0.1"),
    *(_indicators("1", v, p) for v in ("raw", "mapped-g", "weno-z",
                                       "weno-z-new")
      for p in ("node", "cell")),
    *(_indicators(t, v, p) for t in ("2", "3", "4")
      for v in ("full", "partial", "split") for p in ("node", "cell")),
    # no options: the config defaults of each dimension
    ("indicators", "--test", "1"), ("indicators", "--test", "2"),
)

SETS = {"quick": QUICK, "full": FULL}


def run_id(argv) -> str:
    return "_".join(a.lstrip("-") for a in argv)


def tree(spec: str, dest: Path) -> Path:
    """The directory holding ``src/hjaf`` for ``spec``: ``spec`` itself if
    it is one, else the revision ``spec`` extracted into ``dest``."""
    if (Path(spec) / "src" / "hjaf").is_dir():
        return Path(spec).resolve()
    data = subprocess.run(["git", "-C", str(REPO), "archive", "--format=tar",
                           spec], check=True, capture_output=True).stdout
    dest.mkdir(parents=True)
    with tarfile.open(fileobj=io.BytesIO(data)) as tar:
        if hasattr(tarfile, "data_filter"):
            tar.extractall(dest, filter="data")
        else:
            tar.extractall(dest)
    return dest


def run(src_tree: Path, argv, run_dir: Path) -> None:
    """One entry: its output directory, stdout, stderr and exit code."""
    run_dir.mkdir(parents=True)
    env = dict(os.environ, PYTHONPATH=str(src_tree / "src"))
    proc = subprocess.run([sys.executable, "-m", "hjaf.cli", *argv,
                           "--out", str(run_dir / "out")],
                          cwd=run_dir, env=env, capture_output=True)
    (run_dir / "stdout").write_bytes(proc.stdout)
    (run_dir / "stderr").write_bytes(proc.stderr)
    (run_dir / "exit").write_text(f"{proc.returncode}\n")


def masked(name: str, data: bytes) -> bytes:
    """``data`` with the cpu_seconds column blanked (table.csv, stdout)."""
    if name not in ("table.csv", "stdout"):
        return data
    lines = data.decode().split("\n")
    col = None
    for k, line in enumerate(lines):
        cells = line.split(",")
        if MASKED in cells:
            col, width = cells.index(MASKED), len(cells)
        elif col is not None and len(cells) == width:
            cells[col] = "*"
            lines[k] = ",".join(cells)
    return "\n".join(lines).encode()


def _number(cell: str) -> float | None:
    try:
        return float(cell)
    except ValueError:
        return None


def column_deltas(a: str, b: str) -> dict[str, float]:
    """Largest |a - b| per numeric column that differs, of two CSV texts
    with the same header (NaN where one side is NaN and the other not)."""
    ra, rb = list(csv.reader(io.StringIO(a))), list(csv.reader(io.StringIO(b)))
    if not ra or not rb or ra[0] != rb[0]:
        return {}
    deltas: dict[str, list[float]] = {}
    for row_a, row_b in zip(ra[1:], rb[1:]):
        for name, ca, cb in zip(ra[0], row_a, row_b):
            x, y = _number(ca), _number(cb)
            if x is None or y is None or x == y or math.isnan(x) and math.isnan(y):
                continue
            deltas.setdefault(name, []).append(abs(x - y))
    return {name: max(ds, key=lambda d: (math.isnan(d), d))
            for name, ds in deltas.items()}


def describe(a: bytes | None, b: bytes | None) -> list[str]:
    """The first differing line and the largest |delta| per column."""
    if a is None or b is None:
        return [f"  only in {'CHANGE' if a is None else 'PARENT'}"]
    la, lb = a.decode().splitlines(), b.decode().splitlines()
    out = []
    for k, (x, y) in enumerate(itertools.zip_longest(la, lb, fillvalue="")):
        if x != y:
            out.append(f"  line {k + 1}: {x!r} != {y!r}")
            break
    deltas = column_deltas(a.decode(), b.decode())
    if deltas:
        out.append("  max|delta| " + " ".join(f"{c}={v:.3g}"
                                              for c, v in deltas.items()))
    return out


def moved_globs(revs: str, repo: Path = REPO) -> list[str]:
    """The value of every ``Outputs-moved:`` trailer of the commits in the
    revision range ``revs``, as git parses trailers."""
    log = subprocess.run(["git", "-C", str(repo), "log",
                          f"--format=%(trailers:key={TRAILER},valueonly)",
                          revs], check=True, capture_output=True, text=True)
    return [line.strip() for line in log.stdout.splitlines() if line.strip()]


def declared(differing, allow) -> tuple[list[str], list[str]]:
    """(the differing paths no glob of ``allow`` matches, the globs that
    match no differing path)."""
    undeclared = [path for path in differing
                  if not any(fnmatch.fnmatchcase(path, g) for g in allow)]
    stale = [g for g in allow
             if not any(fnmatch.fnmatchcase(path, g) for path in differing)]
    return undeclared, stale


def files_of(run_dir: Path) -> dict[str, Path]:
    return {p.relative_to(run_dir).as_posix(): p
            for p in sorted(run_dir.rglob("*")) if p.is_file()}


def compare(parent: str, change: str, entries, work: Path,
            allow=()) -> int:
    # a/ and b/: the two sides' directory names have equal length
    trees = {"a": tree(parent, work / "a" / "tree"),
             "b": tree(change, work / "b" / "tree")}
    jobs = [(side, argv) for argv in entries for side in "ab"]
    with ThreadPoolExecutor(max_workers=2) as pool:   # the two sides at once
        list(pool.map(lambda job: run(trees[job[0]], job[1], work / job[0]
                                      / "runs" / run_id(job[1])), jobs))
    files = 0
    differing = {}
    for argv in entries:
        rid = run_id(argv)
        fa = files_of(work / "a" / "runs" / rid)
        fb = files_of(work / "b" / "runs" / rid)
        for rel in sorted(fa.keys() | fb.keys()):
            files += 1
            base = rel.rsplit("/", 1)[-1]
            a = masked(base, fa[rel].read_bytes()) if rel in fa else None
            b = masked(base, fb[rel].read_bytes()) if rel in fb else None
            if a is None or a != b:
                differing[f"{rid}/{rel}"] = describe(a, b)
    undeclared, stale = declared(differing, allow)
    print(f"runs={len(entries)} files={files} "
          f"identical={files - len(differing)} differ={len(differing)}")
    for path, lines in differing.items():
        print("DIFF" if path in undeclared else "ALLOWED", path)
        print(*lines, sep="\n", end="\n" if lines else "")
    for glob in stale:
        print(f"STALE --allow {glob!r}: no file differs there")
    return 0 if not undeclared and not stale else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", help="git revision or directory with src/hjaf")
    parser.add_argument("change", help="git revision or directory with src/hjaf")
    parser.add_argument("--set", dest="run_set", choices=sorted(SETS),
                        default="quick")
    parser.add_argument("--allow", action="append", default=[],
                        metavar="GLOB", help="a declared difference: "
                        "run_id/file paths it matches may differ")
    parser.add_argument("--allow-moved", metavar="REVS",
                        help="every Outputs-moved: trailer of the commits in "
                        "this git revision range is an --allow glob")
    args = parser.parse_args(argv)
    allow = args.allow
    if args.allow_moved:
        allow = allow + moved_globs(args.allow_moved)
    with tempfile.TemporaryDirectory(prefix="ab_outputs-") as tmp:
        return compare(args.parent, args.change, SETS[args.run_set], Path(tmp),
                       allow)


if __name__ == "__main__":
    sys.exit(main())
