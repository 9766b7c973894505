"""Machine-speed probe: a fixed kernel timed at a regular interval during a run.

On a shared host the speed of one vCPU drifts by tens of percent over
seconds to minutes, so raw operations per second spread from run to run
even when the code does not change.  The probe measures that drift: a
SIGALRM every ``INTERVAL_S`` seconds of wall time times ``kernel()``, a fixed
piece of work of the same kind as the package's (NumPy bisection on small
arrays with ``erfc``, then a Python float loop), and records its duration.
The samples are spread evenly over the timed loop, so their mean speed is
the speed the operations ran at.

The kernel shares no code with the package, so an optimisation of the
package moves the operations and not the probe.

Set-up is import work in a fresh process, whose speed the warm kernel does
not track (correlation 0.35 with set-up time over 40 starts).
``start_speed()`` times a fresh interpreter importing numpy and
scipy.special, the bulk of every set-up, which correlated 0.79 with it.
"""

from __future__ import annotations

import math
import signal
import statistics
import subprocess
import sys
import time

import numpy as np
from scipy.special import erfc

# A warm kernel() on the machine the benchmark was defined on (2 vCPUs of a
# shared Intel Xeon host, Python 3.11 with NumPy 2.4 and SciPy 1.17), in a quiet
# spell; ``speed()`` is 1 at that speed.
REF_KERNEL_S = 0.0009
# REFERENCE_START, spawn to exit, on the same machine.
REFERENCE_START = ("-c", "import numpy, scipy.special")
REF_START_S = 0.58
INTERVAL_S = 0.25
TIMED_KERNELS = 2
WARMUP_KERNELS = 5

_N = np.linspace(1e3, 1e9, 200)
_L = 0.3 * _N


def kernel() -> float:
    """Fixed work: 20 bisection steps on 200-element arrays, 1500 float ops."""
    lo = np.zeros_like(_N)
    hi = np.full_like(_N, 40.0)
    for _ in range(20):
        mid = 0.5 * (lo + hi)
        lhs = (np.sqrt((_N + _L) / _N) * np.sqrt((mid**2 + 2.0 * math.pi) / 2.0)
               * np.exp(1.0 / (6.0 * _N) + 1.0 / 12.0) * 0.5 * erfc(mid / math.sqrt(2.0)))
        ok = lhs <= 1e-21
        hi = np.where(ok, mid, hi)
        lo = np.where(ok, lo, mid)
    s = float(hi[0])
    for i in range(1500):
        s += math.sqrt(i + 1.0) * 0.5
    return s


class SpeedProbe:
    """Samples ``kernel()`` on a wall-clock timer while the ``with`` block runs.

    The handler runs in the main thread between bytecodes, inside whatever
    operation is running; ``busy_s`` is the time it took, which the caller
    takes off the timed wall time (about 1.5 % of it).
    """

    def __init__(self):
        self.samples: list[float] = []
        self.busy_s = 0.0

    def _tick(self, signum, frame):
        # The first kernel refills the caches the operation displaced; only
        # the warm ones are timed, as they track the operations' speed.
        start = time.perf_counter()
        kernel()
        warm = time.perf_counter()
        for _ in range(TIMED_KERNELS):
            kernel()
        end = time.perf_counter()
        self.samples.append((end - warm) / TIMED_KERNELS)
        self.busy_s += end - start

    def __enter__(self):
        for _ in range(WARMUP_KERNELS):
            kernel()
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        if not self.samples:  # a loop shorter than one interval
            self._tick(None, None)
        return False

    def speed(self) -> float:
        """Mean speed over the samples, as a multiple of the reference machine's."""
        return statistics.fmean(REF_KERNEL_S / s for s in self.samples)


def start_speed() -> float:
    """Speed of a fresh interpreter's start now, as a multiple of the reference machine's."""
    start = time.perf_counter()
    subprocess.run([sys.executable, *REFERENCE_START], capture_output=True,
                   timeout=120, check=True)
    return REF_START_S / (time.perf_counter() - start)
