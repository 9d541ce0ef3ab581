"""Wall and virtual time sources for the startup runtime.

Every blocking operation in the runtime goes through a ``Clock`` so the
same code can run against real time (benchmarks) or deterministic virtual
time (tests, reproducible measurements).  Durations and timestamps are
milliseconds throughout.

The clock owns the single coordination lock (``cond``, a re-entrant lock)
shared by the condition store and the supervision runtime.  Coarse, but it
makes the virtual-time accounting airtight: virtual time may only advance
when every registered thread is parked in ``sleep`` or ``wait``, so
timestamps depend solely on the workload structure, never on OS scheduling.

Blocking is park and wake: a thread parks on a one-shot waiter of its own,
and whoever releases it wakes exactly that waiter, or its deadline fires.
The clock never evaluates caller code to decide who may run.
"""

from __future__ import annotations

import heapq
import itertools
import threading
import time
from contextlib import contextmanager
from typing import Callable

from .errors import ClockStalledError

__all__ = ["Clock", "WallClock", "VirtualClock"]

_PARKED = "parked"
_WOKEN = "woken"
_TIMED_OUT = "timed-out"


class _Waiter:
    """A one-shot wake-up target, owned by the thread that parks on it."""

    __slots__ = ("woken", "state", "cv")

    def __init__(self, lock):
        self.woken = False  # set by the first wake, and stays set
        self.state: str | None = None  # the virtual clock's last park on it
        # Own condition over the shared lock: a wake-up reaches only the
        # thread parked on this waiter.
        self.cv = threading.Condition(lock)


class Clock:
    """Interface shared by :class:`WallClock` and :class:`VirtualClock`.

    ``cond`` is the clock's coordination lock itself, a ``threading.RLock``
    entered as ``with clock.cond:``; no thread waits on it or notifies it.
    Locking protocol: ``now`` and ``sleep`` are called without holding
    ``cond``; ``wait`` and ``wake`` must be called while holding it.  A
    waiter from :meth:`waiter` belongs to the one thread that waits on it;
    any thread may wake it, and a wake is never lost: a waiter woken before
    it parks returns at once.
    """

    cond: threading.RLock

    def now(self) -> float:
        raise NotImplementedError

    def sleep(self, duration_ms: float) -> None:
        raise NotImplementedError

    def waiter(self) -> _Waiter:
        """A fresh waiter for :meth:`wait` and :meth:`wake`."""
        return _Waiter(self._lock)

    def wait(self, waiter: _Waiter, deadline: float | None = None) -> bool:
        """Park until ``waiter`` is woken or ``now() >= deadline``.

        Returns True when woken, False on deadline.  A waiter that timed
        out may wait again.
        """
        raise NotImplementedError

    def wake(self, waiter: _Waiter) -> None:
        """Release ``waiter``: now if it is parked, else at its next wait."""
        raise NotImplementedError

    def spawn(self, fn: Callable[[], None], name: str) -> threading.Thread:
        raise NotImplementedError

    @contextmanager
    def attached(self):
        """Mark the calling thread as a participant for the duration.

        Only meaningful for the virtual clock; re-entrant.
        """
        yield


class WallClock(Clock):
    """Real time, measured from clock creation."""

    def __init__(self):
        self._lock = self.cond = threading.RLock()
        self._epoch = time.monotonic()

    def now(self) -> float:
        return (time.monotonic() - self._epoch) * 1000.0

    def sleep(self, duration_ms: float) -> None:
        if duration_ms > 0:
            time.sleep(duration_ms / 1000.0)

    def wait(self, waiter, deadline=None) -> bool:
        while not waiter.woken:
            if deadline is None:
                waiter.cv.wait()
            else:
                remaining = deadline - self.now()
                if remaining <= 0:
                    return False
                waiter.cv.wait(remaining / 1000.0)
        return True

    def wake(self, waiter) -> None:
        waiter.woken = True
        waiter.cv.notify()

    def spawn(self, fn, name) -> threading.Thread:
        thread = threading.Thread(target=fn, name=name, daemon=True)
        thread.start()
        return thread


class VirtualClock(Clock):
    """Deterministic simulated time driven by the threads themselves.

    Threads participate either by being spawned through :meth:`spawn` or by
    wrapping their work in :meth:`attached`.  A participant is *active*
    unless it is parked inside :meth:`sleep` or :meth:`wait`; a sleep is a
    park on a private waiter whose deadline is its end.  A wake makes its
    parked waiter active again at once, under the lock, so a waker can never
    race the advance logic.  When the active count reaches zero, the thread
    that parked last advances the clock to the earliest pending deadline and
    wakes the threads due then; with none pending while threads are parked,
    the run has stalled.  A sleep by the only active participant that ends
    strictly before every pending deadline advances the clock without
    parking.
    """

    def __init__(self, start_ms: float = 0.0):
        self._lock = self.cond = threading.RLock()
        self._now = start_ms
        self._active = 0
        self._parked = 0
        self._timers: list[tuple[float, int, _Waiter]] = []
        self._tiebreak = itertools.count()
        self._local = threading.local()

    def now(self) -> float:
        return self._now

    def sleep(self, duration_ms: float) -> None:
        with self._lock:
            deadline = self._now + max(duration_ms, 0.0)
            if self._active == 1 and getattr(self._local, "depth", 0):
                # The caller is the only active participant, so parking would
                # advance straight to the earliest timer.  When that is ours
                # alone, advance without parking.  A tie takes the slow path,
                # which wakes every waiter due at that instant in order.
                earliest = self._earliest_timer()
                if earliest is None or deadline < earliest:
                    self._now = deadline
                    return
            self._park(_Waiter(self._lock), deadline)

    def wait(self, waiter, deadline=None) -> bool:
        return self._park(waiter, deadline)

    def wake(self, waiter) -> None:
        waiter.woken = True
        if waiter.state == _PARKED:
            self._unpark(waiter, _WOKEN)

    def spawn(self, fn, name) -> threading.Thread:
        # The child counts as active from before start() so the clock can
        # never advance across the gap between spawn and first activity.
        with self.cond:
            self._active += 1

        def run():
            # A thread is one unit of activity; pre-set the attachment
            # depth so a nested attached() block cannot double-count it.
            self._local.depth = 1
            try:
                fn()
            finally:
                self._local.depth = 0
                with self.cond:
                    self._active -= 1
                    self._advance_if_idle()

        thread = threading.Thread(target=run, name=name, daemon=True)
        thread.start()
        return thread

    @contextmanager
    def attached(self):
        depth = getattr(self._local, "depth", 0)
        self._local.depth = depth + 1
        if depth == 0:
            with self.cond:
                self._active += 1
        try:
            yield
        finally:
            self._local.depth -= 1
            if depth == 0:
                with self.cond:
                    self._active -= 1
                    self._advance_if_idle()

    # -- internals, all called with cond held --

    def _park(self, waiter: _Waiter, deadline: float | None) -> bool:
        if waiter.woken:
            return True
        waiter.state = _PARKED
        self._parked += 1
        if deadline is not None:
            heapq.heappush(self._timers, (deadline, next(self._tiebreak), waiter))
        self._active -= 1
        self._advance_if_idle()
        while waiter.state == _PARKED:
            waiter.cv.wait()
        return waiter.state == _WOKEN

    def _unpark(self, waiter: _Waiter, state: str) -> None:
        waiter.state = state
        self._parked -= 1
        self._active += 1
        waiter.cv.notify()

    def _earliest_timer(self) -> float | None:
        # Drop the timers that a wake left behind.
        while self._timers and self._timers[0][2].state != _PARKED:
            heapq.heappop(self._timers)
        return self._timers[0][0] if self._timers else None

    def _advance_if_idle(self) -> None:
        if self._active > 0:
            return
        deadline = self._earliest_timer()
        if deadline is None:
            if self._parked:
                raise ClockStalledError(
                    "all threads blocked with no pending deadline "
                    f"({self._parked} parked waiter(s))"
                )
            return
        self._now = deadline
        while self._timers and self._timers[0][0] == deadline:
            _, _, waiter = heapq.heappop(self._timers)
            if waiter.state == _PARKED:
                self._unpark(waiter, _TIMED_OUT)
