"""A probe of the speed the machine gives this process, to normalize CPU times.

On a shared host the same work takes from 1x to about 2x the CPU time from
one second to the next (other guests share the cores and caches; the host's
clock speed moves). Those swings are what made the figures of the same code
spread by a quarter between runs. The probe samples them while the program
runs: a profiling timer (``ITIMER_PROF``, which counts this process's CPU
time) fires every ``INTERVAL_S`` of CPU time, and its handler times a small
fixed piece of work, ``reference_work``. A window of the run, say one op,
then has a CPU time, less the probe's own, and a set of samples taken inside
it; its normalized time is that CPU time times the mean of
``NOMINAL_S / sample``: the CPU time it would have taken on a machine on
which ``reference_work`` takes ``NOMINAL_S``.

``reference_work`` is pure Python of the kind valcalc's exact core does
(products and sums of small fractions in a dict keyed by exponent pairs). It
calls nothing in valcalc, so a change to valcalc leaves it alone. The handler
runs in the main thread between two bytecodes, so it sees the process in a
consistent state; it pauses the garbage collector while it works.
"""

import gc
import signal
import time
from fractions import Fraction

INTERVAL_S = 0.05  # of process CPU time between two samples
NOMINAL_S = 0.0024  # reference_work's time on a quiet reference machine


def reference_work(n=6):
    p = {(i, j): Fraction(i + 1, j + 2) for i in range(n) for j in range(n)}
    q = {(i, j): Fraction(j + 1, i + 3) for i in range(n) for j in range(n)}
    r = {}
    for (a, b), x in p.items():
        for (c, d), y in q.items():
            r[a + c, b + d] = r.get((a + c, b + d), 0) + x * y
    return r


class SpeedProbe:
    def __init__(self):
        self.samples = []  # CPU seconds of each reference_work
        self.cost = 0.0  # CPU seconds spent in the handler

    def _sample(self, signum, frame):
        enter = time.thread_time()
        collecting = gc.isenabled()
        gc.disable()
        try:
            reference_work()
            done = time.thread_time()
            self.samples.append(done - enter)
        finally:
            if collecting:
                gc.enable()
        self.cost += time.thread_time() - enter

    def start(self):
        reference_work()  # first call outside the timer: fills the interpreter's caches
        signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)

    def mark(self):
        """The state at the start of a window: (CPU time, samples, probe cost)."""
        return time.thread_time(), len(self.samples), self.cost

    def since(self, mark):
        """(CPU seconds, normalized seconds, samples) of the window from ``mark``
        to now, less the probe's own time. A window without a sample of its
        own is normalized by every sample so far."""
        cpu0, n0, cost0 = mark
        cpu = time.thread_time() - cpu0 - (self.cost - cost0)
        inside = self.samples[n0:] or self.samples
        factor = sum(NOMINAL_S / s for s in inside) / len(inside) if inside else 1.0
        return cpu, cpu * factor, len(self.samples) - n0
