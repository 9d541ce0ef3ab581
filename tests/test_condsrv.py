"""Condition store: truth flips, blocking waits, watchdog, determinism."""

from __future__ import annotations

import sys
import threading

import pytest
from hypothesis import given, settings, strategies as st

from treeboot import (
    ConditionStore,
    DeadlockError,
    DependencyGraph,
    GraphError,
    ModuleKey,
    VirtualClock,
    WallClock,
    boot_system,
    check_trace,
    parse_release_graph,
    parse_trace,
    parse_tree,
)
from treeboot import condsrv


def make_store(graph, timeout=500.0):
    clock = VirtualClock()
    return ConditionStore(graph, clock=clock, deadlock_timeout_ms=timeout), clock


# -- construction -----------------------------------------------------------


def test_new_store_all_false(two_app_graph):
    store, _ = make_store(two_app_graph)
    snap = store.snapshot()
    assert len(snap) == 4
    assert not any(snap.values())


def test_new_store_empty_graph_waits_return_immediately():
    store, _ = make_store(DependencyGraph())
    assert store.snapshot() == {}
    report = store.wait_for_conditions("anything", "[x]")
    assert report.waited_ms == 0.0
    assert report.conditions_waited_on == frozenset()


def test_new_store_rejects_invalid_graph():
    bad = DependencyGraph(preconditions=((ModuleKey("m"), ("missing",)),))
    with pytest.raises(GraphError):
        ConditionStore(bad)


def test_new_store_rejects_bad_timeout(two_app_graph):
    with pytest.raises(ValueError):
        ConditionStore(two_app_graph, deadlock_timeout_ms=0)


@pytest.mark.parametrize("timeout", [-1.0, float("nan"), float("inf")])
def test_new_store_rejects_negative_nan_and_infinite_timeouts(two_app_graph, timeout):
    # NaN passed a "<= 0" test and never expired; inf overflowed a wall wait
    with pytest.raises(ValueError, match="deadlock timeout"):
        ConditionStore(two_app_graph, deadlock_timeout_ms=timeout)


# -- set_condition ------------------------------------------------------------


def test_set_condition_flips_exact_match(two_app_graph):
    store, _ = make_store(two_app_graph)
    flipped = store.set_condition("generic_server", "[app1_server1]")
    assert flipped == {"cond_app1_server1"}
    assert store.snapshot()["cond_app1_server1"] is True


def test_set_condition_idempotent(two_app_graph):
    store, _ = make_store(two_app_graph)
    store.set_condition("generic_server", "[app1_server1]")
    before = store.snapshot()
    assert store.set_condition("generic_server", "[app1_server1]") == set()
    assert store.snapshot() == before


def test_set_condition_unknown_module_noop(two_app_graph):
    store, _ = make_store(two_app_graph)
    assert store.set_condition("unknown_mod", "[x]") == set()
    assert not any(store.snapshot().values())


def test_set_condition_wildcard_declaration_matches_any_args(two_app_graph):
    assert store_flip(two_app_graph, "app1_rootsup", "[a]") == {"cond_app1_rootsup"}
    assert store_flip(two_app_graph, "app1_rootsup", None) == {"cond_app1_rootsup"}


def store_flip(graph, module, args):
    store, _ = make_store(graph)
    return store.set_condition(module, args)


# -- snapshot ------------------------------------------------------------------


def test_snapshot_single_flip(two_app_graph):
    store, _ = make_store(two_app_graph)
    store.set_condition("app1_rootsup", "[x]")
    snap = store.snapshot()
    assert snap["cond_app1_rootsup"] is True
    assert sum(snap.values()) == 1


# -- wait_for_conditions --------------------------------------------------------


def test_wait_returns_immediately_when_satisfied(two_app_graph):
    store, _ = make_store(two_app_graph)
    store.set_condition("app1_rootsup", None)
    for n in (1, 2, 3):
        store.set_condition("generic_server", f"[app1_server{n}]")
    report = store.wait_for_conditions("generic_server", "[app2_server1]")
    assert report.waited_ms == 0.0
    assert report.conditions_waited_on == frozenset()


def test_wait_no_precondition_entry_returns_immediately(two_app_graph):
    store, _ = make_store(two_app_graph)
    report = store.wait_for_conditions("app1_rootsup", "[x]")
    assert report.waited_ms == 0.0
    assert report.conditions_waited_on == frozenset()


def test_wait_releases_exactly_after_last_distinct_flip(two_app_graph):
    store, clock = make_store(two_app_graph)
    outcome = {}

    def waiter():
        outcome["report"] = store.wait_for_conditions(
            "generic_server", "[app2_server1]", node="w")

    with clock.attached():
        t = clock.spawn(waiter, "w")
        flips = [
            ("app1_rootsup", None),
            ("generic_server", "[app1_server1]"),
            ("generic_server", "[app1_server1]"),  # repeat: no progress
            ("generic_server", "[app1_server2]"),
            ("generic_server", "[app1_server3]"),
        ]
        for i, (module, args) in enumerate(flips):
            clock.sleep(10)
            store.set_condition(module, args)
            with clock.cond:
                released = store.blocked_count == 0
            # released only once the fourth distinct condition flipped
            assert released == (i == len(flips) - 1), f"after flip {i}"
    t.join(5)
    report = outcome["report"]
    assert report.conditions_waited_on == {
        "cond_app1_rootsup", "cond_app1_server1",
        "cond_app1_server2", "cond_app1_server3",
    }
    assert report.waited_ms == 50.0  # registered at 0, released at the 5th step


def test_waiters_released_in_registration_order(two_app_graph):
    store, clock = make_store(two_app_graph)

    def waiter(name):
        store.wait_for_conditions("generic_server", "[app2_server1]", node=name)

    with clock.attached():
        # Deterministic registration order: a zero sleep returns only once
        # every other participant is parked, so the first waiter is blocked.
        first = clock.spawn(lambda: waiter("first"), "first")
        clock.sleep(0)
        assert store.blocked_count == 1
        second = clock.spawn(lambda: waiter("second"), "second")
        clock.sleep(0)
        assert store.blocked_count == 2
        store.set_condition("app1_rootsup", None)
        for n in (1, 2, 3):
            store.set_condition("generic_server", f"[app1_server{n}]")
    first.join(5)
    second.join(5)
    ends = [e for e in store.trace.events if e.kind == "wait_end"]
    assert [e.node for e in ends] == ["first", "second"]


class WakeCountingClock(VirtualClock):
    def __init__(self):
        super().__init__()
        self.wakes = 0

    def wake(self, waiter):
        self.wakes += 1
        super().wake(waiter)


def one_condition_per_waiter(n):
    """waiter [i] waits on condition c<i>, which setter [i] sets."""
    return DependencyGraph(
        conditions=tuple((ModuleKey("setter", f"[{i}]"), f"c{i}") for i in range(n)),
        preconditions=tuple((ModuleKey("waiter", f"[{i}]"), (f"c{i}",)) for i in range(n)),
    )


def test_flip_wakes_only_the_waiter_it_releases():
    n = 6
    clock = WakeCountingClock()
    store = ConditionStore(one_condition_per_waiter(n), clock=clock,
                           deadlock_timeout_ms=500.0)
    with clock.attached():
        threads = [clock.spawn(lambda i=i: store.wait_for_conditions("waiter", f"[{i}]"),
                               f"w{i}")
                   for i in range(n)]
        clock.sleep(0)  # returns once every waiter is parked
        assert store.blocked_count == n
        store.set_condition("setter", "[2]")
        assert clock.wakes == 1
        assert store.blocked_count == n - 1
        for i in range(n):
            store.set_condition("setter", f"[{i}]")
    for t in threads:
        t.join(5)
        assert not t.is_alive()
    assert clock.wakes == n


@pytest.mark.parametrize("clock_cls", [VirtualClock, WallClock])
def test_no_wake_is_lost_under_fast_thread_switching(clock_cls):
    # The flips race the waiters' registration.  A lost wake leaves its
    # waiter parked until the watchdog deadline: 20 s of wall time, or a
    # virtual clock that moved.
    n = 8
    clock = clock_cls()
    store = ConditionStore(one_condition_per_waiter(n), clock=clock,
                           deadlock_timeout_ms=20_000.0)
    reports = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with clock.attached():
            threads = [
                clock.spawn(lambda i=i: reports.append(
                    store.wait_for_conditions("waiter", f"[{i}]")), f"w{i}")
                for i in range(n)
            ]
            for i in reversed(range(n)):
                store.set_condition("setter", f"[{i}]")
        for t in threads:
            t.join(10)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(reports) == n
    if clock_cls is VirtualClock:
        assert clock.now() == 0.0


# -- watchdog ---------------------------------------------------------------------


def test_watchdog_reports_two_cycle(cycle_graph):
    store, clock = make_store(cycle_graph, timeout=500.0)
    failures = []

    def waiter(module, args):
        try:
            store.wait_for_conditions(module, args, node=module)
        except DeadlockError as exc:
            failures.append(exc.report)

    with clock.attached():
        t1 = clock.spawn(lambda: waiter("worker_a", "[x]"), "a")
        t2 = clock.spawn(lambda: waiter("worker_b", "[y]"), "b")
    t1.join(5)
    t2.join(5)
    assert len(failures) == 2
    report = failures[0]
    assert failures[1] is report  # one shared report
    assert clock.now() == 500.0
    assert report.elapsed_ms == 500.0
    assert report.blocked == (
        (ModuleKey("worker_a", "[x]"), frozenset({"cond_b"})),
        (ModuleKey("worker_b", "[y]"), frozenset({"cond_a"})),
    )
    assert report.unset_conditions == {"cond_a", "cond_b"}
    # every reported-unmet condition is false in the store
    snap = store.snapshot()
    assert all(not snap[c] for c in report.unset_conditions)
    assert any(e.kind == "deadlock" for e in store.trace.events)


def test_watchdog_scan_no_waiters(two_app_graph):
    store, _ = make_store(two_app_graph)
    assert store.watchdog_scan() is None


def test_watchdog_quiet_window_extends_on_progress(two_app_graph):
    # flips keep arriving within the timeout, so the watchdog never fires
    store, clock = make_store(two_app_graph, timeout=100.0)
    outcome = {}

    def waiter():
        outcome["report"] = store.wait_for_conditions(
            "generic_server", "[app2_server1]", node="w")

    with clock.attached():
        t = clock.spawn(waiter, "w")
        for module, args in (
            ("app1_rootsup", None),
            ("generic_server", "[app1_server1]"),
            ("generic_server", "[app1_server2]"),
            ("generic_server", "[app1_server3]"),
        ):
            clock.sleep(80)  # below the 100 ms timeout, but 4 x 80 > timeout
            store.set_condition(module, args)
    t.join(5)
    assert outcome["report"].waited_ms == 320.0
    assert not any(e.kind == "deadlock" for e in store.trace.events)


# -- start plans ------------------------------------------------------------------


PLAN_GRAPH = """\
[conditions]
setter * -> ready

[preconditions]
worker * <- ready
"""


def plan_tree(workers_per_lane: int) -> str:
    """Two concurrent lanes of workers that all share one key and wait for
    the sequential setter; 4 distinct keys in all."""
    lines = ["sup r module=root"]
    for lane in ("a", "b"):
        lines.append(f"  sup {lane} module=lane mode=concurrent")
        lines += [f"    worker w{i} module=worker args=[w]" for i in range(workers_per_lane)]
    lines.append("  worker s module=setter init=sleep:5")
    return "\n".join(lines) + "\n"


def test_boot_prepares_details_per_key_not_per_event(monkeypatch):
    calls = []
    original = condsrv.prepare_detail

    def counting_prepare_detail(**detail):
        calls.append(detail)
        return original(**detail)

    monkeypatch.setattr(condsrv, "prepare_detail", counting_prepare_detail)
    graph, tree = parse_release_graph(PLAN_GRAPH), parse_tree(plan_tree(20))
    result = boot_system(graph, [("app", tree)], clock=VirtualClock())
    events = result.system.trace.events
    keys = {(spec.module, spec.args) for spec in tree.iter_nodes()}
    blocked = [e for e in events if e.kind == "wait_begin" and e.get("conditions")]
    assert result.report.node_count == 44 and len(keys) == 4 and len(blocked) == 2
    assert len(calls) <= 2 * len(keys) + len(blocked)
    assert check_trace(events, graph, [("app", tree)]) == []
    # Prepared details compare equal to the plain tuples a parse makes.
    assert parse_trace(result.system.trace.to_lines()) == events


def test_start_plan_is_made_once_per_key_and_shared(two_app_graph):
    store, _ = make_store(two_app_graph)
    plan = store.plan("generic_server", "[app2_server1]")
    assert store.plan("generic_server", "[app2_server1]") is plan
    assert plan.key == ModuleKey("generic_server", "[app2_server1]")
    assert plan.needs == frozenset({"cond_app1_rootsup", "cond_app1_server1",
                                    "cond_app1_server2", "cond_app1_server3"})
    assert store.plan("app1_rootsup", "[x]").sets == ("cond_app1_rootsup",)
    assert plan.detail == (("module", "generic_server"), ("args", "[app2_server1]"))
    with pytest.raises(ValueError, match="whitespace"):
        store.plan("has space")
    assert store.trace.events == []


def test_racing_first_starts_share_one_plan_per_key(two_app_graph):
    store, _ = make_store(two_app_graph)
    other, _ = make_store(two_app_graph)  # a second store over the same graph
    keys = [("generic_server", f"[app1_server{n}]") for n in (1, 2, 3)] + [("m", None)]
    seen: list[dict] = []
    reports: list[dict] = []

    def first_starts(store):
        seen.append({key: store.plan(*key) for key in keys})
        reports.append({key: store.wait_for_conditions(*key) for key in keys})

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=first_starts, args=((store, other)[n % 2],))
                   for n in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(10)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads) and len(seen) == len(reports) == 8
    for plans, made in zip(seen, reports):
        assert all(plans[key] is store.plan(*key) is other.plan(*key) for key in keys)
        assert all(made[key] is store.plan(*key).no_wait[1] for key in keys)
        for (module, args), plan in plans.items():
            # every field was set before the plan was published
            assert (plan.module, plan.args) == (module, args)
            assert plan.detail == ((("module", module),) if args is None else
                                   (("module", module), ("args", args)))
            assert plan.sets == (() if module == "m" else (f"cond_app1_server{args[-2]}",))
            assert plan.needs == frozenset()


def test_stores_over_one_graph_share_its_plans_and_no_wait_reports(two_app_graph):
    first, _ = make_store(two_app_graph)
    second, _ = make_store(two_app_graph)
    plan = first.plan("generic_server", "[app2_server1]")
    assert second.plan("generic_server", "[app2_server1]") is plan
    assert two_app_graph.start_plan("generic_server", "[app2_server1]") is plan
    report = first.wait_for_conditions("app1_rootsup", "[x]", node="a")
    assert second.wait_for_conditions("app1_rootsup", "[x]", node="b") is report
    assert second.trace.events[0].detail == first.trace.events[0].detail == (
        ("module", "app1_rootsup"), ("args", "[x]"), ("conditions", ""))


def test_unblocked_wait_returns_the_plans_report(two_app_graph):
    store, _ = make_store(two_app_graph)
    first = store.wait_for_conditions("app1_rootsup", "[x]", node="a")
    assert first is store.wait_for_conditions("app1_rootsup", "[x]", node="b")
    assert first.waited_ms == 0.0 and first.conditions_waited_on == frozenset()
    assert [(e.kind, e.node, e.detail) for e in store.trace.events] == [
        ("wait_begin", "a", (("module", "app1_rootsup"), ("args", "[x]"), ("conditions", ""))),
        ("wait_end", "a", (("module", "app1_rootsup"), ("args", "[x]"))),
        ("wait_begin", "b", (("module", "app1_rootsup"), ("args", "[x]"), ("conditions", ""))),
        ("wait_end", "b", (("module", "app1_rootsup"), ("args", "[x]"))),
    ]


# -- monotonicity property ---------------------------------------------------------


_module = st.sampled_from(["app1_rootsup", "generic_server", "nobody"])
_args = st.sampled_from([None, "[app1_server1]", "[app1_server2]",
                         "[app1_server3]", "[app2_server1]", "[zzz]"])


@given(st.lists(st.tuples(_module, _args), max_size=25))
@settings(max_examples=50)
def test_snapshot_monotone_under_any_set_sequence(ops):
    """Later snapshots are pointwise >= earlier ones; flips are exactly
    the false->true transitions."""
    from conftest import TWO_APP_GRAPH
    from treeboot import parse_release_graph

    store, _ = make_store(parse_release_graph(TWO_APP_GRAPH))
    previous = store.snapshot()
    for module, args in ops:
        flipped = store.set_condition(module, args)
        current = store.snapshot()
        for name in current:
            assert current[name] >= previous[name]
            if name in flipped:
                assert not previous[name] and current[name]
        previous = current
