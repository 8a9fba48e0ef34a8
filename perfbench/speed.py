"""Times in reference seconds, steady on a machine whose speed drifts.

On a shared virtual machine the speed of a vCPU drifts with its
neighbours' load.  On a 2-vCPU Xeon host the same laxlab command took from
one to two times its fastest wall time, in phases lasting from seconds to
minutes, and its CPU time drifted with its wall time; a median over a run
of 20 seconds could not average that out.  A fixed reference workload, the
probe, slows down by nearly the same factor at the same moment.

``SpeedClock.section()`` times a block of code.  It runs the probe
``END_PROBES`` times at the start and at the end of the block, taking the
median, and once every ``PERIOD_S`` seconds inside it, from a SIGALRM
interval timer.  Each stretch of work between two probes counts
``stretch * REF_PROBE_S / probe`` reference seconds, the probe being the
mean of the two around the stretch; the probes' own time is left out.  A
reference second is thus a second on a machine that runs the probe in
``REF_PROBE_S``, its typical time on the machine above, so that reference
and wall seconds agree on average.  The raw wall time is kept beside it.

The probe is pure Python and independent of laxlab, so no change to the
program can move it.  It measures the vCPU that runs the main thread, so
while the program runs threads of its own it is skipped: it would compete
with them for the interpreter, and it would not tell the speed of the
other vCPU.  The stretches on either side of such a timer tick count at
their wall time.
"""

import math
import signal
import statistics
import threading
import time
from contextlib import contextmanager

PERIOD_S = 0.1
PROBE_ITERATIONS = 3000
# the probe's median time on a 2-vCPU 2.1 GHz Xeon VM, Python 3.11
REF_PROBE_S = 0.0007
# probes run untimed first, so that the timed ones run warm interpreter code
WARM_PROBES = 5
# one probe varies by a third from call to call; the median of several at
# each end of a block steadies blocks with few or no probes inside
END_PROBES = 5


def _probe_work():
    acc, x, table = 0, 0.5, {}
    for i in range(PROBE_ITERATIONS):
        acc += i * i % 7
        x = math.sin(x) + 0.5
        table[i & 31] = x
    return acc


def probe(repeat=1):
    """Run the probe ``repeat`` times: (start, end, median probe time)."""
    times = []
    for _ in range(repeat):
        start = time.perf_counter()
        _probe_work()
        times.append(time.perf_counter() - start)
    end = time.perf_counter()
    return end - sum(times), end, statistics.median(times)


class Section:
    """Result of one timed block: wall_s (probes left out) and ref_s."""

    wall_s = 0.0
    ref_s = 0.0

    def finish(self, marks):
        """Sum the stretches between marks (start, end, probe time, or
        None where threads ran); returns the probe times."""
        for (_, a_end, a), (b_start, _, b) in zip(marks, marks[1:]):
            stretch = b_start - a_end
            self.wall_s += stretch
            if a is None or b is None:
                self.ref_s += stretch
            else:
                self.ref_s += stretch * REF_PROBE_S / ((a + b) / 2)
        return [m[2] for m in marks if m[2] is not None]


class SpeedClock:
    """Times blocks in reference seconds; see the module docstring.  With
    ``sample=False`` only the probes at the ends of each block run, for
    traced runs whose spans must not contain probes."""

    def __init__(self, sample=True):
        self.sample = sample
        self.probe_s = []
        self._marks = None
        for _ in range(WARM_PROBES):
            probe()
        if sample:
            signal.signal(signal.SIGALRM, self._on_alarm)

    def _on_alarm(self, signum, frame):
        if self._marks is None:
            return
        if threading.active_count() == 1:
            self._marks.append(probe())
        else:
            now = time.perf_counter()
            self._marks.append((now, now, None))

    @contextmanager
    def section(self):
        result = Section()
        marks = [probe(END_PROBES)]
        self._marks = marks
        if self.sample:
            signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        try:
            yield result
        finally:
            if self.sample:
                signal.setitimer(signal.ITIMER_REAL, 0)
            self._marks = None
            marks.append(probe(END_PROBES))
            self.probe_s += result.finish(marks)

    def median_probe_s(self):
        return statistics.median(self.probe_s)
