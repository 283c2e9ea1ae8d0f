"""CPU-contention correction for timings on a shared machine.

On the shared 2-vCPU KVM guest (2.1 GHz Xeon) this benchmark was tuned
on, each vCPU switches between a fast and a slow speed (entwatch's work
runs 1.45-1.75x slower) for stretches of a fraction of a second to several
seconds, and the share of slow time drifts over minutes with other tenants'
load. Raw timings of identical work then differ by 20-40% between runs. A
fixed probe, run on the same CPU while the measured work runs, reads that
speed; a duration is expressed at a nominal speed, at which the probe takes
REFERENCE_PROBE_S:

    corrected = measured * REFERENCE_PROBE_S / mean(probe durations during the work)

A constant reference, rather than one estimated per run, keeps the run's own
contention out of the correction. On a machine whose uncontended probe time
differs, every corrected timing scales by the same factor. Raw timings stay
in the run record.
"""

from __future__ import annotations

import bisect
import contextlib
import os
import random
import threading
import time

import numpy as np

PROBE_FLOATS = tuple(random.Random(0).random() for _ in range(500))
PROBE_ARRAY = np.random.default_rng(0).random(2048)
# About the probe's uncontended time on that 2.1 GHz Xeon KVM guest, so
# corrected timings there read like quiet raw ones.
REFERENCE_PROBE_S = 160e-6
SAMPLE_INTERVAL_S = 0.02


def probe() -> float:
    """CPU seconds this thread spends on fixed work that touches no entwatch code.

    CPU time, not wall time: a probe that the measured subprocess preempts
    on the shared CPU, or that waits for the interpreter lock, still reads
    only the CPU's speed.

    Dict updates, a sort and small numpy calls: the kind of work entwatch
    does. A tight integer loop slows less in the slow state than entwatch
    does (about 1.3x against 1.45-1.75x), which left part of the
    contention in corrected timings.
    """
    start = time.thread_time()
    sums: dict[int, float] = {}
    for i, x in enumerate(PROBE_FLOATS):
        sums[i % 61] = sums.get(i % 61, 0.0) + x
    sorted(PROBE_FLOATS)
    for _ in range(2):
        np.histogram(PROBE_ARRAY, bins=64, range=(0.0, 1.0))
        np.sort(PROBE_ARRAY)
    return time.thread_time() - start


def pin_to_one_cpu() -> None:
    """Pin this thread, and the threads and processes it starts, to one CPU.

    Probes then read the speed of the CPU the measured work runs on.
    """
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def corrected(seconds: float, probe_seconds: float) -> float:
    """``seconds`` of work expressed at the nominal speed, given the probe time seen during it."""
    return seconds * REFERENCE_PROBE_S / probe_seconds


class Sampler:
    """Probes the CPU every SAMPLE_INTERVAL_S from a thread, while work runs on it.

    Run it around subprocesses and long in-process calls, never around
    window closes: its probes would land inside the short calls they time.
    """

    def __init__(self):
        self.times: list[float] = []
        self.durations: list[float] = []

    @contextlib.contextmanager
    def running(self):
        stop = threading.Event()
        thread = threading.Thread(target=self._run, args=(stop,), daemon=True)
        thread.start()
        try:
            yield
        finally:
            stop.set()
            thread.join()

    def _run(self, stop: threading.Event) -> None:
        while True:
            now = time.perf_counter()
            probe()  # the work since the last probe left the caches cold
            duration = probe()
            self.times.append(now)
            self.durations.append(duration)
            if stop.wait(SAMPLE_INTERVAL_S):
                return

    def corrected(self, start: float, end: float) -> float:
        """Seconds from ``start`` to ``end`` at the nominal speed; call after ``running()`` ends."""
        lo = bisect.bisect_left(self.times, start)
        hi = bisect.bisect_right(self.times, end)
        if hi <= lo:  # no probe inside: use the nearest ones
            lo, hi = max(0, lo - 1), min(len(self.times), lo + 1)
        inside = self.durations[lo:hi]
        return corrected(end - start, sum(inside) / len(inside))
