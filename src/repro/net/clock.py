"""Clock abstraction: simulated vs. wall time.

Every time-dependent component (soft-state registries, caches, refresh
loops, failure detectors) takes a :class:`Clock` so the same code runs
deterministically on the discrete-event simulator and in real time over
TCP.  This is the key to reproducing Figures 1 and 4 exactly.

On the wall clock, every pending timer of the process waits on **one
timer thread**, started by the first :meth:`WallClock.call_later`.  Most
timers are search deadlines and chained-child timeouts that are
cancelled a moment after they are armed, so arming one costs a heap push
and cancelling it clears a slot; neither starts an OS thread.  A timer
that comes due runs its callback on a fresh daemon thread of its own,
because some callbacks block (a GRRP refresh may dial a directory, a
polling subscription tick may call a provider) and must not hold up the
timers behind them.
"""

from __future__ import annotations

import heapq
import itertools
import threading
import time as _time
from typing import Callable, List, Optional

__all__ = ["Clock", "WallClock", "TimerHandle"]


class TimerHandle:
    """Cancellation handle for a scheduled callback."""

    __slots__ = ("_cancel", "cancelled")

    def __init__(self, cancel: Callable[[], None]):
        self._cancel = cancel
        self.cancelled = False

    def cancel(self) -> None:
        if not self.cancelled:
            self.cancelled = True
            self._cancel()


class Clock:
    """Interface: current time plus delayed-callback scheduling."""

    def now(self) -> float:
        raise NotImplementedError

    def call_later(self, delay: float, fn: Callable[[], None]) -> TimerHandle:
        raise NotImplementedError


class _TimerThread:
    """The process's pending wall-clock timers and the thread that waits
    on them.

    The heap holds ``[when, seq, fn]`` items under one condition.
    Cancelling clears an item's ``fn`` in place; once cleared items
    exceed 64 and half the heap, the heap is rebuilt without them, so it
    holds at most 64 plus twice the live timers.  The thread clears
    ``fn`` on the item it fires too, so a late cancel is a no-op.
    """

    def __init__(self) -> None:
        self._cv = threading.Condition()
        self._heap: List[list] = []
        self._seq = itertools.count()
        self._cancelled = 0
        self._thread: Optional[threading.Thread] = None

    def call_later(self, delay: float, fn: Callable[[], None]) -> TimerHandle:
        when = _time.monotonic() + max(0.0, delay)
        with self._cv:
            item = [when, next(self._seq), fn]
            heapq.heappush(self._heap, item)
            if self._thread is None:
                self._thread = threading.Thread(
                    target=self._run, name="wallclock-timers", daemon=True
                )
                self._thread.start()
            elif self._heap[0] is item:
                self._cv.notify()  # due before what the thread sleeps on
        return TimerHandle(lambda: self._cancel(item))

    def _cancel(self, item: list) -> None:
        with self._cv:
            if item[2] is None:
                return  # already fired
            item[2] = None
            self._cancelled += 1
            heap = self._heap
            if self._cancelled > 64 and 2 * self._cancelled > len(heap):
                heap[:] = [i for i in heap if i[2] is not None]
                heapq.heapify(heap)
                self._cancelled = 0

    def _next_due(self) -> Callable[[], None]:
        """Wait until the earliest live timer is due; pop and disarm it.
        The caller holds the condition."""
        heap = self._heap
        while True:
            while heap and heap[0][2] is None:
                heapq.heappop(heap)
                self._cancelled -= 1
            if not heap:
                self._cv.wait()
                continue
            delay = heap[0][0] - _time.monotonic()
            if delay > 0:
                self._cv.wait(delay)
                continue
            item = heapq.heappop(heap)
            fn, item[2] = item[2], None
            return fn

    def _run(self) -> None:
        while True:
            with self._cv:
                fn = self._next_due()
            threading.Thread(target=fn, daemon=True).start()


_TIMERS = _TimerThread()


class WallClock(Clock):
    """Real time via :func:`time.monotonic`; timers wait on the process's
    one timer thread, and each due callback runs on its own daemon
    thread (see the module docstring)."""

    def now(self) -> float:
        return _time.monotonic()

    def call_later(self, delay: float, fn: Callable[[], None]) -> TimerHandle:
        return _TIMERS.call_later(delay, fn)

    def sleep(self, seconds: float) -> None:
        _time.sleep(seconds)
