"""Machine-speed probe, for timings that do not drift with a shared host.

On a host shared with other tenants the speed of one core drifts by a third
within a minute (a 30 s run of closed-scan read 0.30 s per pass in one
minute and 0.37 s in the next; every op slowed alike). A pass therefore times
a short fixed reference computation, the probe, in the same process: right
before and right after each op, and every INTERVAL_S during it from a timer
signal. Each op's time, with the probes taken out, is scaled to the speed at
which the probe takes REFERENCE_S:

    reported = measured * REFERENCE_S / mean(probes before, during and after)

There are two probes, one per kind of work the program does: interpreted
float arithmetic ("python") and numpy random draws with a reduction
("numpy"). A workload uses the one its ops resemble; on the reference
machine that choice halved the pass-to-pass spread against the other probe
or a mix of both. The probes call nothing of the program, so a change to the
program cannot change the scale. Raw times are kept next to the scaled ones
in the result file.
"""

from __future__ import annotations

import math
import signal
import time

import numpy as np

INTERVAL_S = 0.025


def _python_probe() -> None:
    acc = 0.0
    for i in range(1, 2001):
        acc += math.log(i) * math.exp(-i * 1e-4)


class _NumpyProbe:
    def __init__(self) -> None:
        self._rng = np.random.Generator(np.random.Philox(1))
        self._buf = np.empty((50, 1000))

    def __call__(self) -> None:
        self._rng.random(out=self._buf)
        np.subtract(1.0, self._buf, out=self._buf)
        self._buf.min(axis=1)


# Each probe on the reference machine (2-core x86-64 VM, Python 3.11,
# numpy 2.4) at its fastest; scaled times read as seconds on that machine.
REFERENCE_S = {"python": 0.00033, "numpy": 0.00024}


class SpeedMeter:
    """Probes the machine's speed around and during timed calls."""

    def __init__(self, kind: str, sample_during: bool = True) -> None:
        self._work = _python_probe if kind == "python" else _NumpyProbe()
        self._reference = REFERENCE_S[kind]
        self._sample_during = sample_during
        self._busy = False
        self.samples: list[float] = []
        self.paused = 0.0  # seconds spent probing

    def _probe(self, *_) -> None:
        if self._busy:  # a timer tick during a probe is dropped
            return
        self._busy = True
        t0 = time.perf_counter()
        self._work()
        t1 = time.perf_counter()
        self.samples.append(t1 - t0)
        self.paused += time.perf_counter() - t0
        self._busy = False

    def scale(self, samples: list[float]) -> float:
        """Factor from measured to reference seconds for these probe samples."""
        return self._reference * len(samples) / sum(samples)

    def time(self, fn):
        """(result, seconds, scaled seconds) of fn(), probes excluded."""
        first = len(self.samples)
        self._probe()
        if self._sample_during:
            signal.signal(signal.SIGALRM, self._probe)
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        paused = self.paused
        t0 = time.perf_counter()
        try:
            result = fn()
        finally:
            self._busy = True  # no probe from here on falls inside the interval
            end = time.perf_counter()
            if self._sample_during:
                signal.setitimer(signal.ITIMER_REAL, 0.0)
                signal.signal(signal.SIGALRM, signal.SIG_DFL)
            self._busy = False
        elapsed = end - t0 - (self.paused - paused)
        self._probe()
        return result, elapsed, elapsed * self.scale(self.samples[first:])
