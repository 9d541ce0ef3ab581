"""Virtual clock semantics: deterministic time, parking, deadlines."""

from __future__ import annotations

import os
import sys
import threading
import time

import pytest

from treeboot import (
    ChildSpec,
    ClockStalledError,
    DependencyGraph,
    InitModel,
    VirtualClock,
    WallClock,
    boot_system,
    check_trace,
    critical_path,
)

from gensys import random_system


def test_single_thread_sleep_advances():
    clock = VirtualClock()
    with clock.attached():
        clock.sleep(25)
        clock.sleep(10)
    assert clock.now() == 35.0


def test_parallel_sleeps_overlap():
    clock = VirtualClock()
    done = []

    def lane(d):
        clock.sleep(d)
        done.append((d, clock.now()))

    with clock.attached():
        threads = [clock.spawn(lambda d=d: lane(d), f"lane{d}") for d in (50, 20, 80)]
    for t in threads:
        t.join(5)
    assert clock.now() == 80.0
    assert sorted(done) == [(20, 20.0), (50, 50.0), (80, 80.0)]


def test_wait_released_by_wake():
    clock = VirtualClock()
    waiter = clock.waiter()
    box = {}

    def parked():
        with clock.cond:
            box["result"] = clock.wait(waiter, deadline=1000)
            box["now"] = clock.now()

    with clock.attached():
        t = clock.spawn(parked, "waiter")
        clock.sleep(5)
        with clock.cond:
            clock.wake(waiter)
    t.join(5)
    assert not t.is_alive()
    assert box == {"result": True, "now": 5.0}


def test_wait_times_out_at_deadline():
    clock = VirtualClock()
    result = {}

    def waiter():
        with clock.cond:
            result["ok"] = clock.wait(clock.waiter(), deadline=300)
            result["now"] = clock.now()

    t = clock.spawn(waiter, "w")
    t.join(5)
    assert result == {"ok": False, "now": 300.0}


def test_late_wake_leaves_the_active_count_alone():
    # A wake after the deadline fired must not count the waiter active
    # again: the later sleep would then park and never advance.
    clock = VirtualClock()
    result = {}

    def late():
        waiter = clock.waiter()
        with clock.cond:
            result["first"] = clock.wait(waiter, deadline=10)
            clock.wake(waiter)
            result["again"] = clock.wait(waiter, deadline=20)  # woken before parking
        clock.sleep(5)
        result["now"] = clock.now()

    t = clock.spawn(late, "late")
    t.join(5)
    assert not t.is_alive()
    assert result == {"first": False, "again": True, "now": 15.0}


def test_zero_duration_sleep_keeps_time():
    clock = VirtualClock()
    with clock.attached():
        clock.sleep(0)
    assert clock.now() == 0.0


def test_stall_detection():
    clock = VirtualClock()

    def hopeless():
        with clock.cond:
            clock.wait(clock.waiter(), deadline=None)

    # the spawned thread parks with no deadline while we stay attached;
    # our detach is then the last deactivation and has nothing to advance to
    with pytest.raises(ClockStalledError):
        with clock.attached():
            t = clock.spawn(hopeless, "stuck")
            for _ in range(2000):
                with clock.cond:
                    if clock._parked:
                        break
                time.sleep(0.001)
    assert t.is_alive()  # left parked; the error surfaced to the driver


def test_attached_is_reentrant():
    clock = VirtualClock()
    with clock.attached():
        with clock.attached():
            clock.sleep(5)
        clock.sleep(5)
    assert clock.now() == 10.0


def test_virtual_busy_passes_virtual_time_only():
    clock = VirtualClock()
    cpu = time.thread_time()
    with clock.attached():
        clock.busy(30)
    assert clock.now() == 30.0
    assert time.thread_time() - cpu < 0.02


def test_wall_busy_burns_this_threads_cpu():
    clock = WallClock()
    cpu = time.thread_time()
    clock.busy(20)
    assert time.thread_time() - cpu >= 0.02


def test_wall_clock_wait_timeout_and_release():
    clock = WallClock()
    woken = clock.waiter()
    with clock.cond:
        clock.wake(woken)
        assert clock.wait(woken) is True

    # The waiter that timed out parks again and the later wake releases it
    # well before its new deadline.
    waiter = clock.waiter()
    with clock.cond:
        assert clock.wait(waiter, deadline=clock.now() + 5) is False

    def releaser():
        clock.sleep(10)
        with clock.cond:
            clock.wake(waiter)

    t = threading.Thread(target=releaser)
    t.start()
    with clock.cond:
        parked_at = clock.now()
        released = clock.wait(waiter, deadline=parked_at + 20_000)
        parked_ms = clock.now() - parked_at
    t.join(5)
    assert not t.is_alive()
    assert released is True
    assert parked_ms < 10_000


def test_wall_clock_now_monotonic():
    clock = WallClock()
    a = clock.now()
    clock.sleep(2)
    assert clock.now() >= a + 1.5


# -- the bare-lock waiter --------------------------------------------------
# A waiter's gate is a lock created held: a park acquires it with the
# clock's lock fully released, and a wake releases it.


@pytest.mark.parametrize("clock_type", [WallClock, VirtualClock])
def test_a_second_wake_is_a_no_op(clock_type):
    clock = clock_type()
    early, parked = clock.waiter(), clock.waiter()
    box = {}

    def park():
        with clock.cond:
            box["entered"] = True
            box["woken"] = clock.wait(parked, deadline=clock.now() + 60_000)

    with clock.attached():
        with clock.cond:
            clock.wake(early)
            clock.wake(early)  # before any park: must not release the gate twice
            assert clock.wait(early) is True
        t = clock.spawn(park, "parked")
        _until_parked(clock, box)
        with clock.cond:
            clock.wake(parked)
            clock.wake(parked)  # the park has ended already
        t.join(5)
    assert not t.is_alive()
    assert box["woken"] is True
    with clock.cond:
        assert clock.wait(parked) is True


def test_wall_wait_that_timed_out_returns_at_once_once_woken():
    clock = WallClock()
    waiter = clock.waiter()
    with clock.cond:
        assert clock.wait(waiter, deadline=clock.now() + 1) is False
        clock.wake(waiter)
        started = time.monotonic()
        assert clock.wait(waiter, deadline=clock.now() + 5_000) is True
        assert clock.wait(waiter) is True
    assert time.monotonic() - started < 1


@pytest.mark.parametrize("clock_type", [WallClock, VirtualClock])
def test_a_park_releases_a_re_entered_lock_fully(clock_type):
    clock = clock_type()
    waiter = clock.waiter()
    box = {}

    def park():
        with clock.cond, clock.cond:
            box["entered"] = True
            box["woken"] = clock.wait(waiter, deadline=clock.now() + 60_000)
            # Taken back at depth two: one release leaves it held.
            clock.cond.release()
            box["still_held"] = clock.cond._is_owned()
            clock.cond.acquire()

    with clock.attached():
        t = clock.spawn(park, "parked")
        _until_parked(clock, box)
        with clock.cond:
            clock.wake(waiter)
        t.join(5)
    assert not t.is_alive()
    assert box == {"entered": True, "woken": True, "still_held": True}


@pytest.mark.parametrize("clock_type", [WallClock, VirtualClock])
def test_a_ring_of_handoffs_loses_no_wake_under_a_short_switch_interval(clock_type):
    # Each member parks on its waiter of the round, then wakes the next
    # member: a lost or doubled wake hangs the ring or breaks its order.
    clock = clock_type()
    members, rounds = 8, 40
    gates = [[clock.waiter() for _ in range(members)] for _ in range(rounds + 1)]
    passes = []

    def member(i):
        for r in range(rounds):
            with clock.cond:
                clock.wait(gates[r][i])
                passes.append((r, i))
                clock.wake(gates[r + (i + 1) // members][(i + 1) % members])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with clock.attached():
            threads = [clock.spawn(lambda i=i: member(i), f"m{i}") for i in range(members)]
            with clock.cond:
                clock.wake(gates[0][0])
        for t in threads:
            t.join(10)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert passes == [(r, i) for r in range(rounds) for i in range(members)]


def _until_parked(clock, box):
    """Return once the thread that set ``box["entered"]`` under ``cond``
    has parked: it releases ``cond`` only inside its wait, so taking
    ``cond`` after that proves the park let go of it."""
    for _ in range(2000):
        if clock.cond.acquire(timeout=5):
            try:
                if box.get("entered"):
                    return
            finally:
                clock.cond.release()
        else:
            raise AssertionError("the parked thread kept the clock's lock")
        time.sleep(0.001)
    raise AssertionError("the thread never parked")


# -- a lone sleeper against pending timers --------------------------------
# A sleeper that is the only active participant and whose deadline comes
# strictly before every pending timer advances the clock itself; on a tie
# it parks, so every waiter due at that instant wakes together.


def _spawn_parked(clock, fn, name):
    """Spawn ``fn`` and return once it is parked in the clock."""
    thread = clock.spawn(fn, name)
    for _ in range(2000):
        with clock.cond:
            if clock._active == 1:
                return thread
        time.sleep(0.001)
    raise AssertionError(f"{name} never parked")


def test_lone_sleeper_advances_to_its_exact_deadline():
    clock = VirtualClock(start_ms=7.3)
    with clock.attached():
        clock.sleep(2.2)
        assert clock.now() == 7.3 + 2.2
        clock.sleep(-1)
        assert clock.now() == 7.3 + 2.2


@pytest.mark.parametrize("sleep_ms, expected", [
    (40, {"ok": True, "now": 40.0}),  # strictly earlier: the timer stays pending
    (50, {"ok": False, "now": 50.0}),  # tie: the deadline fires first
])
def test_sleep_against_wait_deadline(sleep_ms, expected):
    clock = VirtualClock()
    waiter = clock.waiter()
    result = {}

    def parked():
        with clock.cond:
            result["ok"] = clock.wait(waiter, deadline=50)
            result["now"] = clock.now()

    with clock.attached():
        t = _spawn_parked(clock, parked, "waiter")
        clock.sleep(sleep_ms)
        with clock.cond:
            clock.wake(waiter)
    t.join(5)
    assert not t.is_alive()
    assert result == expected


@pytest.mark.parametrize("sleep_ms, expected", [
    (40, (False, 40.0)),  # strictly earlier: the other sleeper is still parked
    (50, (True, 50.0)),  # tie: both sleepers wake at 50
])
def test_sleep_against_other_sleeper(sleep_ms, expected):
    clock = VirtualClock()
    waiter = clock.waiter()
    woke = []

    def sleeper():
        clock.sleep(50)
        with clock.cond:
            woke.append(clock.now())
            clock.wake(waiter)

    with clock.attached():
        t = _spawn_parked(clock, sleeper, "sleeper")
        clock.sleep(sleep_ms)
        with clock.cond:
            # Deadline now: woken only if the other sleeper is already awake.
            seen = clock.wait(waiter, deadline=clock.now())
            now = clock.now()
    t.join(5)
    assert not t.is_alive()
    assert (seen, now) == expected
    assert woke == [50.0]


# -- one CPU and the batch policy for a virtual clock's starters ---------
# No virtual-clock participant needs a second core, so the threads that
# VirtualClock.spawn starts share one CPU, and each runs SCHED_BATCH so a
# woken starter does not preempt the thread that woke it.  WallClock
# threads keep the caller's CPUs and policy, and the caller itself is never
# changed.

needs_affinity = pytest.mark.skipif(not hasattr(os, "sched_getaffinity"),
                                    reason="no CPU affinity on this platform")
needs_policy = pytest.mark.skipif(not hasattr(os, "SCHED_BATCH"),
                                  reason="no SCHED_BATCH on this platform")


def _seen_by_a_concurrent_init(clock, probe):
    """What ``probe()`` returns inside a concurrent child's ``call`` init."""
    seen = []
    root = ChildSpec(id="root", module="root", kind="supervisor", children=(
        ChildSpec(id="c", module="c", start_mode="concurrent",
                  init=InitModel.call(lambda _: seen.append(probe()))),
        ChildSpec(id="s", module="s", init=InitModel.sleep(1.0)),
    ))
    boot_system(DependencyGraph(), [("app", root)], clock=clock)
    assert len(seen) == 1
    return seen[0]


def _cpus():
    return os.sched_getaffinity(0)


def _policy():
    return os.sched_getscheduler(0)


@needs_affinity
def test_virtual_starter_runs_on_one_cpu_and_the_caller_is_not_pinned():
    before = _cpus()
    cpus = _seen_by_a_concurrent_init(VirtualClock(), _cpus)
    assert len(cpus) == 1 and cpus <= before
    assert _cpus() == before


@needs_affinity
def test_wall_starter_keeps_the_callers_cpus():
    assert _seen_by_a_concurrent_init(WallClock(), _cpus) == _cpus()


@needs_policy
def test_virtual_starter_runs_batch_and_the_caller_keeps_its_policy():
    before = _policy()
    assert _seen_by_a_concurrent_init(VirtualClock(), _policy) == os.SCHED_BATCH
    assert _policy() == before


@needs_policy
def test_wall_starter_keeps_the_callers_policy():
    assert _seen_by_a_concurrent_init(WallClock(), _policy) == _policy()


def _boot_when_a_starter_hint_cannot_be_set(monkeypatch, hint, probe, platform):
    calls = []
    if platform == "refuses":
        def refuse(*args):
            calls.append(args)
            raise OSError(f"{hint} refused")
        monkeypatch.setattr(os, hint, refuse)
    else:
        monkeypatch.delattr(os, hint)
    # The starters run as the caller does, on its CPUs with its policy.
    assert _seen_by_a_concurrent_init(VirtualClock(), probe) == probe()
    system = random_system(11)
    tagged = system.tagged_root(all_concurrent=True)
    result = boot_system(system.graph, [("sys", tagged)], clock=VirtualClock(),
                         deadlock_timeout_ms=60_000)
    assert result.report.duration_ms == critical_path(tagged, system.graph)
    assert check_trace(result.system.trace.events, system.graph, [("sys", tagged)]) == []
    assert bool(calls) == (platform == "refuses")


@needs_affinity
@pytest.mark.parametrize("platform", ["refuses", "missing"])
def test_boot_is_correct_when_threads_cannot_be_pinned(monkeypatch, platform):
    _boot_when_a_starter_hint_cannot_be_set(monkeypatch, "sched_setaffinity", _cpus, platform)


@needs_policy
@pytest.mark.parametrize("platform", ["refuses", "missing"])
def test_boot_is_correct_when_starters_cannot_run_batch(monkeypatch, platform):
    _boot_when_a_starter_hint_cannot_be_set(monkeypatch, "sched_setscheduler", _policy,
                                            platform)
