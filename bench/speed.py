"""Host-speed probe: scale measured times to a host of fixed speed.

The benchmark shares a few cores of a busy host.  Other tenants slow the
interpreter by up to 2x, in stretches of a fraction of a second to tens of
seconds, so raw wall times of the same work spread by 20-40 % between runs.
The probe measures that slowdown where it happens: a fixed piece of
interpreter work is timed right before and after each measured invocation and,
through ``SIGPROF``, every ``INTERVAL_S`` of CPU time during it.  An
invocation's time is then reported as it would read on a host where the
probe takes ``NOMINAL_S``::

    adjusted = (wall - time spent probing) * NOMINAL_S / mean(probe times)

Standard library only, so a fresh interpreter can import it cheaply for the
set-up measurement.  The adjustment assumes the program slows with the
host as interpreter work does; code that spends its time inside numpy slows
less, and its adjusted times then read low while the host is busy.
"""

from __future__ import annotations

import signal
import time

#: Probe duration the adjusted times are scaled to: about what one probe
#: takes on an unloaded core of an x86 server (Xeon, Python 3.11).
NOMINAL_S = 0.001
#: CPU time between two probes inside an invocation.
INTERVAL_S = 0.05
_ITERATIONS = 2000


def _work():
    table, seen = {}, set()
    for i in range(_ITERATIONS):
        key = "v%d" % i
        table[key] = i
        seen.add((i, key))


def probe() -> float:
    """Wall time of a fixed piece of interpreter work (string formatting,
    dict and set inserts, as in the program).  The work runs twice and only
    the second pass is timed, so what the program left in the caches does
    not change the reading; contention from other tenants does."""
    _work()
    start = time.perf_counter()
    _work()
    return time.perf_counter() - start


class SpeedProbe:
    """Probe samples around one measured stretch of work::

        with SpeedProbe() as sp:
            start = time.perf_counter()
            work()
            wall = time.perf_counter() - start
        adjusted = (wall - sp.spent) * sp.scale()

    One probe is taken on entry, one on exit and one every ``INTERVAL_S`` of
    CPU time in between; ``spent`` is the wall time of the ones in between,
    which the work's wall time includes, and ``total`` that of all of them.
    The caller owns ``SIGPROF`` while the probe is armed.
    """

    def __init__(self):
        self.samples = []
        self.spent = 0.0
        self.total = 0.0
        self._busy = False
        self._old = None

    def _take(self) -> float:
        self._busy = True
        start = time.perf_counter()
        try:
            self.samples.append(probe())
        finally:
            self._busy = False
        took = time.perf_counter() - start
        self.total += took
        return took

    def _on_signal(self, signum, frame):
        if not self._busy:
            self.spent += self._take()

    def __enter__(self):
        self._take()
        self._old = signal.signal(signal.SIGPROF, self._on_signal)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, self._old)
        self._take()
        return False

    def scale(self) -> float:
        """Factor from this host's speed to the nominal one."""
        return scale(self.samples)


def scale(samples) -> float:
    """Factor from the host speed that ``samples`` (probe times) show to the
    nominal one."""
    return NOMINAL_S * len(samples) / sum(samples)
