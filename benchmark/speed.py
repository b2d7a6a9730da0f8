"""Machine-speed probe: a fixed reference job timed all through a run.

The shared machine this benchmark runs on switches between CPU speed
levels, about 1.6x apart, for under a second to about a minute at a time,
and CPU time follows wall time. A rate over a 30 s run then depends on how much of the
run fell in the slow level. The probe measures that level as the run goes:
every ``INTERVAL_S`` seconds a SIGALRM handler runs a fixed pure-Python job
and times it. Multiplying a measured rate by ``mean job time /
REFERENCE_S`` gives the rate on a machine that runs the job in
``REFERENCE_S`` seconds, and the slow and fast levels largely cancel out.

The job is benchmark code, never program code, so a change to the program
moves the program's time and leaves the job's time alone. ``clock()`` is
``time.perf_counter()`` minus the time spent in the job, so timed regions
do not count it. The job is pure Python, which lets it run before NumPy and
the program are imported, during set-up.
"""
from __future__ import annotations

import signal
import time

INTERVAL_S = 0.02  # wall time from the end of one job to the start of the next
REFERENCE_S = 1e-3  # the job's time at the nominal machine speed
_LOOPS = 9000  # about 1 ms on a 2.1 GHz Xeon at its faster level


def _job() -> int:
    acc = 0
    table: dict[int, int] = {}
    for i in range(_LOOPS):
        table[i & 63] = acc
        acc = (acc + i * i) % 1000003
    return acc + len(table)


class SpeedProbe:
    """Times ``_job`` every ``INTERVAL_S`` s from ``start()`` to ``stop()``."""

    def __init__(self) -> None:
        self.job_s = 0.0  # summed job time
        self.jobs = 0
        self._running = False

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        _job()
        self.job_s += time.perf_counter() - start
        self.jobs += 1
        if self._running:  # one-shot timer, re-armed after the job: jobs never overlap
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S)

    def start(self) -> None:
        self._running = True
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S)

    def stop(self) -> None:
        self._running = False
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_IGN)

    def clock(self) -> float:
        """Wall-clock seconds that exclude the time spent in the job."""
        return time.perf_counter() - self.job_s

    def mark(self) -> tuple[float, int]:
        return self.job_s, self.jobs

    def speed_factor(self, since: tuple[float, int]) -> float:
        """Mean job time since ``since`` over ``REFERENCE_S``: 1 at nominal speed, above 1 when slower."""
        job_s, jobs = self.job_s - since[0], self.jobs - since[1]
        if jobs == 0:
            raise RuntimeError("the speed probe ran no reference job in the interval")
        return job_s / jobs / REFERENCE_S

