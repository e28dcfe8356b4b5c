"""How fast the host runs right now, from a fixed reference computation.

The benchmark's host is a few cores of a shared machine. Its speed drifts by
20-30% over minutes, the same for every computation on it, so a timing taken
in a slow minute reads slower although the program did not change. The
reference computation here is the same kind of work the program does (small
HiGHS linear programs through scipy, small numpy linear algebra and a pure
Python loop) but is fixed and shares no code with `fairgain`. The worker runs
it between units, and every timing is reported scaled to a host on which
the reference takes `REFERENCE_S`:

    scaled = measured * REFERENCE_S / reference time around the measurement

On a steady host the scaled time is the measured time times a constant; when
the host slows, the reference slows with it and the scaled time stays put.
A change to the program moves the measured time and not the reference, so it
shows in full. The unscaled figures are kept in the run record.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time

import numpy as np
from scipy.optimize import linprog

REFERENCE_S = 0.032  # the reference's typical time on the reference machine (2 vCPUs)
PROCESS_REFERENCE_S = 0.8  # the same for a fresh interpreter that runs it once
REPEATS = 3
_rng = np.random.default_rng(20240601)
_LPS = [(_rng.normal(size=4), _rng.normal(size=(40, 4)), _rng.uniform(1.0, 2.0, 40)) for _ in range(10)]
_MATS = [m @ m.T + np.eye(3) for m in _rng.normal(size=(70, 3, 3))]


def _once() -> float:
    t0 = time.perf_counter()
    for c, a_ub, b_ub in _LPS:
        linprog(c, A_ub=a_ub, b_ub=b_ub, bounds=[(-5.0, 5.0)] * 4, method="highs")
    for m in _MATS:
        np.linalg.solve(m, np.linalg.eigh(m)[1][:, 0])
    sum(i * i for i in range(17_000))
    return time.perf_counter() - t0


def reference_s() -> float:
    """Median seconds of REPEATS runs of the reference computation.

    The median keeps a single preemption from deciding the reading.
    """
    return statistics.median(_once() for _ in range(REPEATS))


def process_reference_s(env: dict[str, str] | None = None) -> float:
    """Seconds for a fresh interpreter to import numpy and scipy and run the reference once.

    The reference for timings that start a process (set-up, `cli` requests):
    interpreter start and imports react to the host's disk cache and memory
    as well as to its processor, which an in-process reference does not see.
    """
    t0 = time.perf_counter()
    # a pipe, so that the wait ends at the child's exit; waiting on a bare
    # child with a timeout polls every 50 ms and rounds the reading to that
    subprocess.run([sys.executable, __file__], env=env, check=True, timeout=120,
                   stdout=subprocess.PIPE)
    return time.perf_counter() - t0


if __name__ == "__main__":
    _once()
