"""The benchmark's own quick check (``perfbench/selfcheck.py``) as a test.

It runs every workload at its coarsest level under the tracer and checks
the error norms against the stored seed-0 values and against ``hjaf
solve``, so a change that moves a benchmark number, or breaks a name the
benchmark reaches, fails here.  It writes only under the gitignored
``perfbench/.results/``."""
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_selfcheck_passes_every_workload():
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run([sys.executable, "perfbench/selfcheck.py"], cwd=ROOT,
                          env=env, capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stdout + done.stderr
    lines = done.stdout.splitlines()
    assert len(lines) == 4 and all(ln.startswith("ok ") for ln in lines), done.stdout
