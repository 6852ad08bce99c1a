"""In-process host-speed sampler.

The benchmark's box is a virtual machine on a shared host. What other
tenants run on the same physical cores changes how fast each of its vCPUs
runs, by up to 2x, and the two vCPUs change largely independently, over
periods of a fraction of a second to tens of seconds. A probe on the other
vCPU therefore says nothing about the one the program runs on, and a probe
before and after a run misses what happened during it.

``SpeedSampler`` runs a fixed probe from a ``SIGALRM`` handler every
``INTERVAL_S`` seconds, in the measured thread itself, while the measured
code runs. The handler runs between bytecodes, so the probe lands on the
same vCPU at the same time as the program's own work. The probe has the
program's two kinds of work: an interpreter loop (``PROBE_LOOPS``
iterations) and ``MATVECS`` dense matrix-vector products, the classifier's
kind. ``factor()`` is ``REFERENCE_PROBE_S`` over the mean probe time
(preempted probes left out): multiplying a wall time by it gives the time at
the reference speed. The probes take about 2% of a run.

    with SpeedSampler() as sampler:
        work()
    adjusted = elapsed * sampler.factor()
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

PROBE_LOOPS = 2_000
MATVECS = 3
INTERVAL_S = 0.025
OUTLIER = 3.0
REFERENCE_PROBE_S = 4.9e-4  # a typical mean probe on the 2-core reference box; it sets only the scale
_MATRIX = np.arange(500 * 400, dtype=np.float64).reshape(500, 400)  # 1.6 MB, resident in every measured process
_MATRIX %= 7.0
_VECTOR = np.ones(400)


def probe() -> tuple[float, float]:
    """Seconds taken by a fixed interpreter loop and by ``MATVECS`` fixed matrix-vector products."""
    started = time.perf_counter()
    total = 0
    for i in range(PROBE_LOOPS):
        total += i * i % 7
    middle = time.perf_counter()
    for _ in range(MATVECS):
        _MATRIX @ _VECTOR
    return middle - started, time.perf_counter() - middle


class SpeedSampler:
    """Collect probe times from a timer signal while the ``with`` block runs."""

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []
        self._previous = None

    def _on_alarm(self, signum, frame) -> None:
        self.samples.append(probe())

    def __enter__(self) -> SpeedSampler:
        self.samples.append(probe())
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.samples.append(probe())

    def mean_probe_s(self) -> float:
        """Mean probe time, leaving out probes over ``OUTLIER`` times the median.

        The host's slow stretches make a probe at most about 2x slower, so a
        longer probe was preempted; one preemption of 100 ms would outweigh
        hundreds of probes, while the run it interrupted loses only 100 ms.
        """
        totals = [a + b for a, b in self.samples]
        limit = OUTLIER * statistics.median(totals)
        return statistics.fmean(x for x in totals if x <= limit)

    def mean_parts(self) -> tuple[float, float]:
        """Mean seconds of the loop part and of the matrix part, for the record."""
        return (statistics.fmean(a for a, _ in self.samples), statistics.fmean(b for _, b in self.samples))

    def factor(self) -> float:
        return REFERENCE_PROBE_S / self.mean_probe_s()
