"""The speed of the CPUs while the benchmark measures, from a reference loop.

The CPUs of a shared machine change speed by a quarter or more within
seconds, as other tenants load the cores they share: on a 2-CPU test machine
(Intel Xeon, 2.0 GHz) the same ``p1`` solve with the same seed took 4.5 s or
7.7 s. A reference loop, timed on the CPU that runs the work and while the
work runs, moves with that speed. On that machine, dividing by it took the
spread (interquartile range over median) of five ``wide`` runs from 16% to
6%, and of five ``experiment`` runs from 21% to 4%.

:class:`Speedometer` runs one sampling thread per CPU, each pinned to its
CPU, that times :func:`reference_loop` every ``INTERVAL_S`` (about 1% of a
CPU). A timing is then reported in reference seconds: wall seconds scaled
to a CPU on which the loop takes ``REFERENCE_S``. The loop is the
benchmark's own code, so a change to the solver cannot move it.
"""

from __future__ import annotations

import os
import statistics
import threading
import time

REFERENCE_S = 5e-4
INTERVAL_S = 0.05
WINDOW_S = 1.0

_TABLE = {(i, j): i * j for i in range(40) for j in range(40)}


def reference_loop() -> int:
    """About 0.5 ms of two kinds of work a solve does: integer arithmetic,
    and tuple keys built and looked up in a dict, which slows more than
    arithmetic when the CPU is contended. Pure Python, so that importing
    this module leaves the solver's imports to the set-up it times."""
    total = 0
    for i in range(1200):
        total += i * i % 7
    for i in range(600):
        key = (i % 40, i * 7 % 40)
        total += _TABLE[key[:1] + (key[1],)]
    return total


def cpus() -> list[int]:
    return sorted(os.sched_getaffinity(0))


def pin_to(cpu: int) -> None:
    """Pin the calling thread, and the threads and processes it starts later,
    to one CPU (Linux applies an affinity given for pid 0 to the calling
    thread only)."""
    os.sched_setaffinity(0, {cpu})


class Speedometer:
    """Samples the reference loop on each of ``cpus`` until :meth:`stop`."""

    def __init__(self, cpus):
        self.cpus = list(cpus)
        self.samples: dict[int, list[tuple[float, float]]] = {cpu: [] for cpu in self.cpus}
        self._stop = threading.Event()
        self._threads = [threading.Thread(target=self._sample, args=(cpu,), daemon=True)
                         for cpu in self.cpus]

    def __enter__(self) -> "Speedometer":
        for thread in self._threads:
            thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    def stop(self) -> None:
        self._stop.set()
        for thread in self._threads:
            thread.join()

    def _sample(self, cpu: int) -> None:
        pin_to(cpu)
        out, clock = self.samples[cpu], time.perf_counter
        while True:
            start = clock()
            reference_loop()
            out.append((start, clock() - start))
            if self._stop.wait(INTERVAL_S):
                return

    def factor(self, start: float, end: float) -> float:
        """How much slower than the reference the CPUs ran in [start, end].
        A CPU's speed is ``REFERENCE_S`` over the median loop time of its
        samples taken then (or of the nearest one); the CPUs' speeds are
        averaged, because a pool that keeps every CPU busy gets through work
        at the sum of their speeds."""
        speeds = []
        for samples in self.samples.values():
            inside = [s for t, s in samples if start <= t <= end]
            if not inside and samples:
                inside = [min(samples, key=lambda ts: abs(ts[0] - start))[1]]
            if inside:
                speeds.append(REFERENCE_S / statistics.median(inside))
        if not speeds:
            raise RuntimeError("the speedometer took no sample")
        return 1.0 / statistics.fmean(speeds)

    def seconds(self, start: float, end: float) -> float:
        """Reference seconds of the wall interval [start, end]: each
        ``WINDOW_S`` of it divided by the factor of that window, so that a
        change of speed within a long interval is followed."""
        total = 0.0
        while start < end:
            stop = min(start + WINDOW_S, end)
            total += (stop - start) / self.factor(start, stop)
            start = stop
        return total
