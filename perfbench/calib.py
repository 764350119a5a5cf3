"""Host-speed probe: a fixed piece of work that does not use the solver.

The benchmark runs on a share of a host whose speed drifts by 10-20 %
over minutes.  The drift moves every kind of work alike: on the machine
this was tuned on, a pure-Python loop and numpy arithmetic on grid-sized
arrays slowed and sped up together, and steal time read zero, so process
CPU time carries the drift in full.  No median inside a 55 s run removes
a drift that lasts longer than the run.

So each repetition runs this probe between its timed calls, for a fixed
share of their time, and ``run.py`` reports timings at the reference host
speed: a time is scaled by ``REFERENCE_S / p`` and a rate by
``p / REFERENCE_S``, where ``p`` is the mean probe time of the run.  The
mean, not the median: a timed call of seconds integrates the host's
slowness over its length, and so does the mean of many short probes.
The probe imports nothing from the solver, so a change to the solver
moves the scaled timings in full.
"""
from __future__ import annotations

from time import process_time

import numpy as np

# Mean probe CPU time of a run on the machine this was tuned on (2-vCPU
# Intel Xeon VM, python 3.11, numpy 2.4, the malloc settings of env.py).
# Only the ratio to it is used.
REFERENCE_S = 0.012
# Probe time per second of timed work.
SHARE = 0.15

_N = 161    # the transport finest grid
_A, _B = np.random.default_rng(0).uniform(-1.0, 1.0, size=(2, _N, _N))
_ROLL = np.r_[1:_N, _N - 1]


def probe() -> float:
    """CPU seconds of one fixed mix of numpy and interpreter work, like
    the solver's: element-wise arithmetic and gathers on a grid, and
    Python-level bookkeeping between them."""
    t0 = process_time()
    acc = 0.0
    for _ in range(60):
        c = np.sqrt(_A * _A + _B * _B)
        np.maximum(c, _B, out=c)
        d = np.take(c, _ROLL, axis=0)
        acc += float(np.abs(d - c).sum())
        for i in range(400):
            acc += i * 1e-9
    if not np.isfinite(acc):
        raise ArithmeticError("host-speed probe gave a non-finite sum")
    return process_time() - t0


def probes_after(seconds: float) -> list[float]:
    """Probe times, for ``SHARE`` of ``seconds`` and at least one probe."""
    times = [probe()]
    while sum(times) < SHARE * seconds:
        times.append(probe())
    return times
