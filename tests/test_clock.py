"""Virtual clock semantics: deterministic time, parking, deadlines."""

from __future__ import annotations

import threading
import time

import pytest

from treeboot import ClockStalledError, VirtualClock, WallClock


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
