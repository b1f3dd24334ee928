"""The machine-speed reference every reported timing is scaled by.

The machines this benchmark runs on share their cores with other
tenants, and their speed drifts: the same pure-Python loop, timed
every second, takes anywhere between 1x and 1.8x its fastest time, and
a 25-second run can fall entirely into a slow stretch.  Raw wall-clock
figures of two runs of the same code therefore differ by far more than
any change worth measuring.

While a run measures, a :class:`Speedometer` times a fixed reference
kernel (:func:`kernel`, code of this file only, so no change to the
program can move it) every :data:`PERIOD_S` seconds of wall clock,
from a ``SIGALRM`` handler, that is, while the workload is running.
The median kernel time over a stretch, divided by
:data:`NOMINAL_S`, is the stretch's slowdown factor, and the
benchmark reports each time divided by it: seconds at the nominal
speed.  The kernel's time is inside the measured wall clock, a
constant few percent on every commit.
"""

import signal
import statistics
import time

#: wall-clock seconds between two samples of the reference kernel
PERIOD_S = 0.04
#: the kernel's median time (s) on the 2-core machine the benchmark's
#: reference figures come from, in a quiet stretch
NOMINAL_S = 0.0005


class _Slot:
    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value

    def add(self, other):
        return self.value + other


def kernel():
    """A fixed mix of the work Python programs spend their time on:
    integer arithmetic, dict and list updates with bytes allocation,
    and method calls on small objects."""
    x = 1
    for i in range(600):
        x = (x * 1103515245 + i) & 0x7FFFFFFF
    table = {}
    chunks = []
    for i in range(300):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        table[x & 4095] = i
        chunks.append(x.to_bytes(4, "big"))
    total = len(b"".join(chunks))
    for i in range(300):
        total = _Slot(i).add(total)
    return total


class Speedometer:
    """Samples :func:`kernel` every :data:`PERIOD_S` while armed.

    Use :meth:`mark` to open a stretch and :meth:`factor` to close it;
    the factor is ``1.0`` when the stretch was too short to hold a
    sample.
    """

    def __init__(self):
        self.samples = []
        self._previous = None

    def _tick(self, _signum, _frame):
        t0 = time.perf_counter()
        kernel()
        self.samples.append(time.perf_counter() - t0)

    def arm(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def disarm(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def mark(self):
        self.samples = []

    def factor(self):
        if not self.samples:
            return 1.0
        return statistics.median(self.samples) / NOMINAL_S
