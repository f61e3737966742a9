"""A machine-speed reference that the end-to-end timings are scaled by.

The benchmark runs on a few vCPUs of a shared host, and the load of other
tenants changes the speed of this process by a third or more within seconds.
While a ``Reference`` is active, a timer signal interrupts the work every
``PERIOD_S`` seconds to time ``reference_task``, a fixed pure-Python task of
small tuples and sets, the kind of work bbcovers does most.  The handler's own
time is taken out of the work's timings (``spent``), and a timing is scaled to
the reference speed measured while it ran:

    seconds * NOMINAL_S / median(reference times within WINDOW_S of it)

A slow spell of the host stretches the reference task with the work, so it
cancels out, while a change to bbcovers leaves the reference task as it is.
No thread or process is started: the handler runs in the main thread.
"""

from __future__ import annotations

import bisect
import gc
import signal
import statistics
import time

PERIOD_S = 0.1
WINDOW_S = 1.0
NOMINAL_S = 0.002  # reference_task on one idle 2.1 GHz Xeon vCPU takes about this long


def reference_task() -> int:
    seen, out = set(), []
    for i in range(3000):
        pair = (i % 17, i % 13)
        seen.add(pair)
        out.append(frozenset((pair, (i % 5, 1))))
    return len(seen) + len(out)


class Reference:
    """Times reference_task from SIGALRM while the context is entered."""

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.times: list[float] = []
        self.spent = 0.0  # seconds spent in the handler so far

    def _handler(self, signum, frame) -> None:
        # The task frees all it allocates; a collection inside it would time
        # the interrupted caller's heap instead of the machine.
        enabled = gc.isenabled()
        gc.disable()
        t0 = time.perf_counter()
        reference_task()
        t1 = time.perf_counter()
        if enabled:
            gc.enable()
        self.starts.append(t0)
        self.times.append(t1 - t0)
        self.spent += time.perf_counter() - t0

    def __enter__(self) -> Reference:
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def median_s(self) -> float:
        return statistics.median(self.times)

    def scaled(self, seconds: float, start: float, end: float) -> float:
        """``seconds`` of work done between start and end, at the nominal reference speed."""
        lo = bisect.bisect_left(self.starts, start - WINDOW_S)
        hi = bisect.bisect_right(self.starts, end + WINDOW_S)
        near = self.times[lo:hi] or self.times
        return seconds * NOMINAL_S / statistics.median(near)
