"""Process set-up shared by the benchmark entry points.

Pins every thread-count variable the numerical libraries read to 1 before
numpy is imported, fixes the C allocator's settings for the processes the
benchmark starts, puts the checkout's ``src`` first on the import path so
the benchmark measures the solver next to it (never an installed copy),
and describes the environment for the output record.
"""
from __future__ import annotations

import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "BLIS_NUM_THREADS")

# glibc malloc settings, read when a process starts, so they act on the
# repetitions ``run.py`` starts.  By default every numpy array above
# 128 KiB is a fresh mmap that the kernel zeroes page by page and unmaps
# on free: a transport study took ~250k page faults and 0.6-1.2 s of
# system time, and that kernel time swung with the host's load far more
# than the solver's own work did.  Serving large arrays from a heap that
# is never trimmed leaves the solver's work (allocation included) and
# drops the page faults to a few thousand per process.
MALLOC_VARS = {
    "MALLOC_MMAP_THRESHOLD_": str(32 << 20),   # the largest glibc accepts
    "MALLOC_TRIM_THRESHOLD_": str(1 << 30),
    "MALLOC_TOP_PAD_": str(64 << 20),
}


class MissingSolver(RuntimeError):
    pass


def prepare() -> None:
    """Pin threads and make ``import hjaf`` resolve to ``ROOT/src``.

    Raises MissingSolver when the checkout holds no solver sources.
    """
    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.environ.update(MALLOC_VARS)
    if not (SRC / "hjaf" / "__init__.py").is_file():
        raise MissingSolver(f"no solver sources under {SRC.relative_to(ROOT)}/hjaf")
    sys.path.insert(0, str(SRC))
    import hjaf
    if Path(hjaf.__file__).resolve().parent != SRC / "hjaf":
        raise MissingSolver(f"imported hjaf from {hjaf.__file__}, not from the checkout")


def _git_commit() -> str:
    """Commit of the checkout, read from .git without starting git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return f"unknown ({name})"


def record() -> dict:
    """Machine and software description written with every result."""
    import numpy
    import hjaf
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "hjaf": getattr(hjaf, "__version__", "unknown"),
        "git_commit": _git_commit(),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "malloc": {var: os.environ.get(var) for var in MALLOC_VARS},
        "concurrent_processes": 1,   # repetitions run one at a time
    }
