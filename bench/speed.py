"""CPU-speed sampling: times measured at a reference speed.

The benchmark runs on a few vCPUs of a shared host, whose speed drifts by
up to 2x within seconds as other tenants load the host.  A run that falls in
a slow spell is slower as a whole, so no statistic taken inside one run
(best, median) removes the drift between runs, and a probe taken only
between operations misses the changes inside a 2-second verify sweep.

So the host's speed is sampled all through the run.  An interval timer
interrupts the process every PERIOD_S, and the signal handler times a fixed
pure-Python kernel of the same kind of work the package does (small tuples,
generator expressions, ``zip``/``all``, a set), which touches no package
code.  A stretch of work that took ``seconds`` of wall time is reported as
``(seconds - kernel time inside it) * mean(REFERENCE_S / kernel time)`` over
the samples in and next to it: the time it would have taken at the
reference speed, the speed at which the kernel takes REFERENCE_S.  Over 90
seconds of verify sweeps on a 2-vCPU shared VM the raw sweep time spread
(q3 - q1) / median = 0.29 and the time at the reference speed 0.025.

The kernel runs with the garbage collector off, so it measures the host and
not a collector setting the package may make.  It runs on the main thread,
so the scaling assumes the package does its work there too: a thread of the
package's own that held the interpreter lock would slow the kernel as much
as the work and so go unseen.
"""

import gc
import signal
import statistics
from bisect import bisect_left, bisect_right
from time import perf_counter, sleep

# kernel time at the reference speed: about the kernel's time on an unloaded
# 2-vCPU Xeon VM with Python 3.11
REFERENCE_S = 0.0002
KERNEL_ROUNDS = 100
# sampling period; each sample costs about 2-4 % of it
PERIOD_S = 0.01


def kernel():
    base = tuple(range(6))
    seen = set()
    hits = 0
    for i in range(KERNEL_ROUNDS):
        mono = tuple((x * i + 3) % 5 for x in base)
        if all(a <= b for a, b in zip(base, mono)):
            hits += 1
        seen.add(mono)
    return hits + len(seen)


class Speedometer:
    """Samples of the kernel's time while started, in time order."""

    def __init__(self):
        self.starts = []     # perf_counter() when each sample began
        self.durations = []  # the kernel's time in each sample
        self._previous = None

    def _sample(self, signum, frame):
        enabled = gc.isenabled()
        gc.disable()
        start = perf_counter()
        kernel()
        end = perf_counter()
        if enabled:
            gc.enable()
        self.starts.append(start)
        self.durations.append(end - start)

    def start(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def settle(self):
        """Wait until the work done so far has samples after it too."""
        sleep(2 * PERIOD_S)

    def at_reference(self, start, seconds):
        """Work that began at `start` (a perf_counter() reading) and took
        `seconds` of wall time, less the samples taken inside it, as time at
        the reference speed."""
        end = start + seconds
        inside = slice(bisect_left(self.starts, start),
                       bisect_left(self.starts, end))
        work_s = seconds - sum(self.durations[inside])
        lo = bisect_left(self.starts, start - PERIOD_S)
        hi = bisect_right(self.starts, end + PERIOD_S)
        if lo == hi:
            # no sample near it (a long C call held the signal back): the
            # samples on either side
            lo, hi = max(lo - 1, 0), hi + 1
        speeds = [REFERENCE_S / d for d in self.durations[lo:hi]]
        return work_s * statistics.fmean(speeds)

    def median_speed(self):
        """The host's median speed over the run, 1.0 at the reference."""
        return statistics.median(REFERENCE_S / d for d in self.durations)
