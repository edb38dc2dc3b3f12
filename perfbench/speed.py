"""Machine-speed probe: wall time rescaled to a fixed reference speed.

On the 2-core Xeon virtual machine behind the reference figures in
README.md, speed changes by up to 2x within seconds (a fixed kernel takes
3.4 to 7.4 us per call from one 0.1 s window to the next), which no amount
of repetition inside one run averages away.
While a measured block runs, a SIGALRM handler runs a fixed kernel every
INTERVAL seconds and records how long it took.  The block's scaled time is
its wall time times the mean of REFERENCE_S / sample, i.e. the time the
block would have taken had the machine run at the speed where one kernel
call takes REFERENCE_S.  The kernels are the benchmark's own code, so a
change to `cqm` does not change them.

Interpreter-bound and array-bound code slow down differently, so there are
two kernels: "interpreter" (many small numpy calls from Python, like the jet
arithmetic of `verify` and the small grids of `evolve_small`) and "array"
(whole-array numpy operations on a 24^3 spinor grid, like the 3-D packet).
On interpreter-bound Larmor rounds the first cut the spread between rounds
from 26% to 2.5%; it did not help the 3-D packet, which the second suits.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

INTERVAL = 0.02
REFERENCE_S = 8.0e-5  # one kernel call, either kind, on that machine at its faster speed


class SpeedProbe:
    def __init__(self, kernel: str):
        rng = np.random.default_rng(0)
        if kernel == "interpreter":
            a, b = rng.standard_normal(35), rng.standard_normal(35)
            i, j = rng.integers(0, 35, 330), rng.integers(0, 35, 330)
            k = np.sort(rng.integers(0, 35, 330))

            def run():
                for _ in range(25):
                    np.bincount(k, weights=a[i] * b[j], minlength=35)
        elif kernel == "array":
            x = rng.standard_normal((24, 24, 24, 2)) + 1j * rng.standard_normal((24, 24, 24, 2))
            y = np.empty_like(x)

            def run():
                for _ in range(2):
                    np.multiply(x, 0.5, out=y)
                    np.add(y, x, out=y)
        else:
            raise ValueError(f"unknown probe kernel {kernel!r}")
        self._run = run
        self.samples: list[float] = []

    def sample(self, *_):
        t0 = time.perf_counter()
        self._run()
        self.samples.append(time.perf_counter() - t0)

    def start(self):
        self.samples = []
        self.sample()
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        self._t0 = time.perf_counter()

    def stop(self) -> tuple:
        """(wall seconds, scaled seconds) since start()."""
        wall = time.perf_counter() - self._t0
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self.sample()
        factor = statistics.fmean(REFERENCE_S / s for s in self.samples)
        return wall, wall * factor
