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
A waiter is a bare lock, so a park is one acquire of it and a wake one
release, with no condition variable in between.  The clock never
evaluates caller code to decide who may run.
"""

from __future__ import annotations

import hashlib
import heapq
import itertools
import os
import threading
import time
from contextlib import contextmanager
from typing import Callable

from .errors import ClockStalledError

__all__ = ["Clock", "WallClock", "VirtualClock"]

_BUSY_CHUNK = b"\x00" * (128 * 1024)

_PARKED = "parked"
_WOKEN = "woken"
_TIMED_OUT = "timed-out"


class _Waiter:
    """A one-shot wake-up target, owned by the thread that parks on it.

    ``gate`` is a bare lock, created held.  A park acquires it and a wake
    releases it, so a wake-up reaches only the thread parked on this
    waiter.  The wall clock releases it once, at the first wake; the
    virtual clock once per park, when it ends that park.
    """

    __slots__ = ("woken", "state", "gate")

    def __init__(self):
        self.woken = False  # set by the first wake, and stays set
        self.state: str | None = None  # the virtual clock's last park on it
        self.gate = threading.Lock()
        self.gate.acquire()

    def block(self, lock, timeout: float = -1) -> None:
        """Acquire ``gate``, for at most ``timeout`` seconds (-1: no limit),
        with the clock's ``lock`` fully released, then take ``lock`` back at
        the caller's depth, as a condition variable's wait does."""
        saved = lock._release_save()
        try:
            self.gate.acquire(True, timeout)
        finally:
            lock._acquire_restore(saved)


class Clock:
    """Interface shared by :class:`WallClock` and :class:`VirtualClock`.

    ``cond`` is the clock's coordination lock itself, a ``threading.RLock``
    entered as ``with clock.cond:``; no thread waits on it or notifies it.
    Locking protocol: ``now``, ``sleep`` and ``busy`` are called without
    holding ``cond``; ``wait`` and ``wake`` must be called while holding
    it, at any depth.  A park releases ``cond`` fully while it blocks and
    takes it back at the same depth before it returns.  A waiter from
    :meth:`waiter` belongs to the one thread that waits on it; any thread
    may wake it, and a wake is never lost: a waiter woken before it parks
    returns at once.  A second wake does nothing.
    """

    cond: threading.RLock

    def now(self) -> float:
        raise NotImplementedError

    def sleep(self, duration_ms: float) -> None:
        raise NotImplementedError

    def busy(self, duration_ms: float) -> None:
        """Burn ``duration_ms`` of this thread's CPU time.

        Measured with the per-thread CPU clock, so contention stretches the
        wall time but never shrinks the work.  Hashing large buffers drops
        the interpreter lock, so concurrent lanes genuinely occupy multiple
        cores.
        """
        digest = hashlib.sha256()
        deadline = time.thread_time() + duration_ms / 1000.0
        while time.thread_time() < deadline:
            digest.update(_BUSY_CHUNK)

    def waiter(self) -> _Waiter:
        """A fresh waiter for :meth:`wait` and :meth:`wake`."""
        return _Waiter()

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
        timeout = -1 if deadline is None else (deadline - self.now()) / 1000.0
        if not waiter.woken and (deadline is None or timeout > 0):
            waiter.block(self._lock, timeout)
        # A wake between the timeout and taking the lock back still counts.
        return waiter.woken

    def wake(self, waiter) -> None:
        if not waiter.woken:
            waiter.woken = True
            waiter.gate.release()

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

    Every thread that :meth:`spawn` starts runs on one CPU, the lowest one
    the spawning thread may use; a nested spawn inherits that one CPU, so
    all of a clock's starters share it.  No participant needs a second
    core: time advances only when all of them are parked, and ``busy`` is
    simulated.  Keeping them together makes each park and wake a switch on
    one CPU rather than a wake-up sent to another.  Each such thread also
    lowers its own policy to ``SCHED_BATCH``, under which a thread that is
    woken does not preempt the one running.  So a woken starter waits until
    its waker parks, and each handoff costs one thread switch, not a
    preemption and a switch back.  The caller's own thread keeps its CPUs
    and policy, and so do ``WallClock`` threads.  The limit: user ``call``
    code that runs in a starter, and any thread it starts, stays on that
    CPU and runs ``SCHED_BATCH`` too.  Both are cost hints only: where
    ``os.sched_setaffinity`` or ``os.sched_setscheduler`` is missing or
    refuses, the thread runs as the caller does.
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
                earliest = self._earliest_timer() if self._timers else None
                if earliest is None or deadline < earliest:
                    self._now = deadline
                    return
            self._park(_Waiter(), deadline)

    def busy(self, duration_ms: float) -> None:
        """A simulated burn: the time passes as in :meth:`sleep`."""
        self.sleep(duration_ms)

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
        # The lowest CPU this thread may use; a nested spawn gets the same one.
        cpu = min(os.sched_getaffinity(0)) if hasattr(os, "sched_setaffinity") else None

        def run():
            if cpu is not None:
                try:
                    os.sched_setaffinity(0, {cpu})
                except OSError:  # a cost hint: a refusal leaves the thread unpinned
                    pass
            try:  # a woken starter waits for its waker to park
                os.sched_setscheduler(0, os.SCHED_BATCH, os.sched_param(0))
            except (AttributeError, OSError):  # a cost hint, as the pin is
                pass
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
        waiter.block(self._lock)  # released by the _unpark that ends this park
        return waiter.state == _WOKEN

    def _unpark(self, waiter: _Waiter, state: str) -> None:
        waiter.state = state
        self._parked -= 1
        self._active += 1
        waiter.gate.release()

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
