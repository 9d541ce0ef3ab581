"""Wall and virtual time sources for the startup runtime.

Every blocking operation in the runtime goes through a ``Clock`` so the
same code can run against real time (benchmarks) or deterministic virtual
time (tests, reproducible measurements).  Durations and timestamps are
milliseconds throughout.

The clock owns the single coordination lock (``cond``) shared by the
condition store and the supervision runtime.  Coarse, but it makes the
virtual-time accounting airtight: virtual time may only advance when every
registered thread is parked in ``sleep`` or ``wait``, so timestamps depend
solely on the workload structure, never on OS scheduling.
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


class Clock:
    """Interface shared by :class:`WallClock` and :class:`VirtualClock`.

    Locking protocol: ``now`` and ``sleep`` are called without holding
    ``cond``; ``wait`` and ``notify_all`` must be called while holding it.
    """

    cond: threading.Condition

    def now(self) -> float:
        raise NotImplementedError

    def sleep(self, duration_ms: float) -> None:
        raise NotImplementedError

    def wait(self, predicate: Callable[[], bool], deadline: float | None = None) -> bool:
        """Block until ``predicate()`` is true or ``now() >= deadline``.

        Returns True when released by the predicate, False on deadline.
        """
        raise NotImplementedError

    def notify_all(self) -> None:
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
        self.cond = threading.Condition()
        self._epoch = time.monotonic()

    def now(self) -> float:
        return (time.monotonic() - self._epoch) * 1000.0

    def sleep(self, duration_ms: float) -> None:
        if duration_ms > 0:
            time.sleep(duration_ms / 1000.0)

    def wait(self, predicate, deadline=None) -> bool:
        while not predicate():
            if deadline is None:
                self.cond.wait()
            else:
                remaining = deadline - self.now()
                if remaining <= 0:
                    return predicate()
                self.cond.wait(remaining / 1000.0)
        return True

    def notify_all(self) -> None:
        self.cond.notify_all()

    def spawn(self, fn, name) -> threading.Thread:
        thread = threading.Thread(target=fn, name=name, daemon=True)
        thread.start()
        return thread


_WAITING = "waiting"
_RELEASED = "released"
_TIMED_OUT = "timed-out"


class _Waiter:
    __slots__ = ("predicate", "deadline", "state", "cv")

    def __init__(self, predicate, deadline, lock):
        self.predicate = predicate
        self.deadline = deadline
        self.state = _WAITING
        # Own condition over the shared lock: wake-ups are targeted, so an
        # advance never stampedes every parked thread.
        self.cv = threading.Condition(lock)


class VirtualClock(Clock):
    """Deterministic simulated time driven by the threads themselves.

    Threads participate either by being spawned through :meth:`spawn` or by
    wrapping their work in :meth:`attached`.  A participant is *active*
    unless it is parked inside :meth:`sleep` or :meth:`wait`.  When the
    active count reaches zero, the thread that parked last advances the
    clock to the earliest pending deadline and wakes the threads due then.
    A sleep by the only active participant that ends strictly before every
    pending deadline advances the clock without parking.  Predicate
    waiters are re-checked synchronously inside :meth:`notify_all`, so a
    notifier can never race the advance logic.
    """

    def __init__(self, start_ms: float = 0.0):
        self._lock = threading.RLock()
        self.cond = threading.Condition(self._lock)
        self._now = start_ms
        self._active = 0
        self._timers: list[tuple[float, int, _Waiter]] = []
        self._pred_waiters: list[_Waiter] = []
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
            waiter = _Waiter(None, deadline, self._lock)
            heapq.heappush(self._timers, (deadline, next(self._tiebreak), waiter))
            self._park()
            while waiter.state == _WAITING:
                waiter.cv.wait()

    def wait(self, predicate, deadline=None) -> bool:
        if predicate():
            return True
        waiter = _Waiter(predicate, deadline, self._lock)
        self._pred_waiters.append(waiter)
        if deadline is not None:
            heapq.heappush(self._timers, (deadline, next(self._tiebreak), waiter))
        self._park()
        while waiter.state == _WAITING:
            waiter.cv.wait()
        return waiter.state == _RELEASED

    def notify_all(self) -> None:
        self._release_ready()

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

    def _park(self) -> None:
        self._active -= 1
        self._advance_if_idle()

    def _release_ready(self) -> None:
        kept = []
        for waiter in self._pred_waiters:
            if waiter.state == _WAITING and waiter.predicate():
                waiter.state = _RELEASED
                self._active += 1
                waiter.cv.notify()
            elif waiter.state == _WAITING:
                kept.append(waiter)
        self._pred_waiters = kept

    def _earliest_timer(self) -> float | None:
        # Drop timers whose waiters were already released or timed out.
        while self._timers and self._timers[0][2].state != _WAITING:
            heapq.heappop(self._timers)
        return self._timers[0][0] if self._timers else None

    def _advance_if_idle(self) -> None:
        if self._active > 0:
            return
        deadline = self._earliest_timer()
        if deadline is None:
            if self._pred_waiters:
                raise ClockStalledError(
                    "all threads blocked with no pending deadline "
                    f"({len(self._pred_waiters)} predicate waiter(s))"
                )
            return
        self._now = deadline
        woke_pred_waiter = False
        while self._timers and self._timers[0][0] == deadline:
            _, _, waiter = heapq.heappop(self._timers)
            if waiter.state != _WAITING:
                continue
            if waiter.predicate is None:
                waiter.state = _RELEASED
            else:
                waiter.state = _TIMED_OUT
                woke_pred_waiter = True
            self._active += 1
            waiter.cv.notify()
        if woke_pred_waiter:
            self._pred_waiters = [w for w in self._pred_waiters
                                  if w.state == _WAITING]
