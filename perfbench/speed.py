"""The machine's speed, sampled while the benchmark runs, and wall time
scaled to a fixed reference speed.

The benchmark machine is a core of a shared host.  Its speed flips between
states about 1.4x apart, staying in one for a fraction of a second to tens
of seconds, so the same operation can take 1.8x as long from one moment to
the next.  That drift does not depend on the program, and a median over the
passes of one run cannot take it out: the share of slow time differs from
run to run.

So the worker samples the speed while it works: an interval timer interrupts
it every sampling period (``PERIOD_S`` unless set otherwise) and the handler
times ``reference_loop``, a fixed pure-Python loop that touches no
``krchar`` code and little memory.  The time of a span *at reference speed*
is its wall time times the mean of ``REFERENCE_S / t`` over the loop times
``t`` sampled in the span widened by one sampling period on each side (so
that a span shorter than a period still has the samples next to it).  A
change to ``krchar`` moves the span and not the loop, so it shows whole; a
slow phase of the machine moves both and cancels.

The handler runs between bytecodes of the process it samples, so its time
(about 0.4 % of the span at the default period) is inside the spans it
samples, the same for every version of the program.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

PERIOD_S = 0.01
# Time of reference_loop on the baseline machine's fast state (2-core KVM
# guest, Intel Xeon, Python 3.11.7).  A fixed constant, so that a value at
# reference speed depends on nothing measured in the run but the span and
# the loop.
REFERENCE_S = 30e-6


def reference_loop() -> int:
    s = 0
    for i in range(300):
        s += (i * 7919) % 10007
    return s


class SpeedSampler:
    """Samples the speed every ``period_s`` from :meth:`start` to
    :meth:`stop` (which may repeat) and scales spans of
    ``time.perf_counter`` to reference speed."""

    def __init__(self, period_s: float = PERIOD_S):
        self.period_s = period_s
        self.times: list[float] = []  # perf_counter at each sample, ascending
        self.scales: list[float] = []  # REFERENCE_S / loop time at that sample
        self._previous = None

    def _sample(self, signum, frame) -> None:
        t = time.perf_counter()
        reference_loop()
        self.times.append(t)
        self.scales.append(REFERENCE_S / (time.perf_counter() - t))

    def start(self) -> None:
        for _ in range(3):  # let the interpreter specialise the loop first
            reference_loop()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.period_s, self.period_s)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def at_reference(self, start: float, end: float) -> float:
        """Wall time from ``start`` to ``end`` at reference speed."""
        lo = bisect.bisect_left(self.times, start - self.period_s)
        hi = bisect.bisect_right(self.times, end + self.period_s)
        if hi == lo:
            # The handler runs only between bytecodes, so a long call into C
            # can hold a sample up: take the nearest one on either side.
            lo, hi = max(lo - 1, 0), min(hi + 1, len(self.times))
        if hi == lo:
            raise RuntimeError("no speed sample was taken")
        return (end - start) * statistics.fmean(self.scales[lo:hi])
