"""Samples how fast the host runs while a job runs.

On a shared host the speed of a core drifts by a quarter or more within
seconds, so two runs of the same job can differ by that much.  While a
pass runs, a SIGALRM handler times a fixed piece of work, `tick()`,
every TICK_S seconds.  A job's time, less the time its ticks took, is
scaled by REFERENCE_S over the mean tick time seen during the job, so
it reads as seconds at a fixed host speed.  The tick uses only
integers: it depends on nothing in hochcap and allocates nothing the
cyclic garbage collector tracks, so it never runs a collection that
belongs to the job.
"""

import signal
import statistics
import time

TICK_S = 0.02
# mean tick() time inside jobs on a 2-vCPU Intel Xeon host, Python 3.11
REFERENCE_S = 110e-6


def tick():
    s = 0
    for i in range(1500):
        s += i * i % 7
    return s


class SpeedSampler:
    """Context manager that times `tick()` every TICK_S seconds.

    `mark()` takes a reading; `scaled(start, end)` is the time between
    two readings, less the ticks in between, in seconds at the reference
    speed.  An interval too short to hold a tick uses the mean of every
    tick so far.
    """

    def __enter__(self):
        self.ticks = []
        self.busy_s = 0.0
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def _on_alarm(self, signum, frame):
        t0 = time.perf_counter()
        tick()
        spent = time.perf_counter() - t0
        self.ticks.append(spent)
        self.busy_s += spent

    def mark(self):
        return time.perf_counter(), self.busy_s, len(self.ticks)

    def scaled(self, start, end):
        (t0, busy0, i0), (t1, busy1, i1) = start, end
        ticks = self.ticks[i0:i1] or self.ticks
        if not ticks:
            raise RuntimeError("no speed sample yet; time a longer interval")
        return (t1 - t0 - (busy1 - busy0)) * REFERENCE_S / statistics.mean(ticks)
