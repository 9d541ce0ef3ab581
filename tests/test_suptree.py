"""Supervision runtime: start ordering, wrappers, lifecycle, crashes."""

from __future__ import annotations

import math
import random
import threading
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from treeboot import (
    ChildSpec,
    ConditionStore,
    DependencyGraph,
    ForkPlacement,
    InitModel,
    Runtime,
    StartupError,
    SupervisorFlags,
    TreeError,
    VirtualClock,
    boot_system,
    check_trace,
    critical_path,
    parse_release_graph,
    parse_tree,
    place_forks,
    run_worker_lifecycle,
    serialize_tree,
)

from gensys import random_system


def fresh(graph=None, timeout=1000.0, force_sequential=False):
    clock = VirtualClock()
    store = ConditionStore(graph or DependencyGraph(), clock=clock,
                           deadlock_timeout_ms=timeout)
    return Runtime(store, force_sequential=force_sequential), store, clock


def kinds_for(store, node):
    return [e.kind for e in store.trace.events if e.node == node]


def first_event(store, node, kind):
    for e in store.trace.events:
        if e.node == node and e.kind == kind:
            return e
    return None


# -- start ordering ------------------------------------------------------------


def test_two_sequential_workers_chain_acks():
    rt, store, _ = fresh()
    root = rt.start_supervisor(SupervisorFlags(), (
        ChildSpec(id="w1", module="m1", init=InitModel.sleep(100)),
        ChildSpec(id="w2", module="m2", init=InitModel.sleep(10)),
    ))
    report = rt.await_quiescence()
    assert report.duration_ms == 110.0  # oracle: sum of the two delays
    ack1 = first_event(store, "root/w1", "ack")
    req2 = first_event(store, "root/w2", "start_request")
    assert ack1.seq < req2.seq


def test_concurrent_first_child_overlaps():
    rt, store, _ = fresh()
    rt.start_supervisor(SupervisorFlags(), (
        ChildSpec(id="w1", module="m1", init=InitModel.sleep(100),
                  start_mode="concurrent"),
        ChildSpec(id="w2", module="m2", init=InitModel.sleep(10)),
    ))
    report = rt.await_quiescence()
    assert report.duration_ms == 100.0  # oracle: max of the two delays
    req2 = first_event(store, "root/w2", "start_request")
    init_end1 = first_event(store, "root/w1", "init_end")
    assert req2.ts < init_end1.ts  # w2 requested before w1 finished init


def test_zero_children_supervisor_acks_immediately():
    rt, store, _ = fresh()
    rt.start_supervisor(SupervisorFlags(), ())
    report = rt.await_quiescence()
    assert report.duration_ms == 0.0
    assert report.node_count == 1 and report.wrapper_count == 0
    assert kinds_for(store, "root") == [
        "start_request", "wait_begin", "wait_end",
        "init_begin", "init_end", "ack",
    ]


# -- wrapper construction ----------------------------------------------------------


def test_wrapper_tree_shape_and_starter_terminated():
    rt, store, _ = fresh()
    root = rt.start_supervisor(SupervisorFlags(), (
        ChildSpec(id="w1", module="m1", init=InitModel.sleep(5),
                  start_mode="concurrent"),
        ChildSpec(id="w2", module="m2", init=InitModel.sleep(5)),
    ), path="s")
    rt.await_quiescence()  # the one-shot starter has finished once quiescent
    assert root.shape() == (
        "s", "supervisor", (
            ("w1#wrap", "wrapper", (("w1", "worker", ()),)),
            ("w2", "worker", ()),
        ),
    )
    assert root.find("s/w1").state == "running"
    assert first_event(store, "s/w1#wrap", "attach") is not None


def test_blocked_concurrent_child_does_not_block_sibling():
    graph = parse_release_graph(
        "[conditions]\nm2 * -> cond_x\n[preconditions]\nm1 * <- cond_x\n")
    rt, store, _ = fresh(graph)
    rt.start_supervisor(SupervisorFlags(), (
        ChildSpec(id="w1", module="m1", init=InitModel.sleep(5),
                  start_mode="concurrent"),
        ChildSpec(id="w2", module="m2", init=InitModel.sleep(30)),
    ), path="s")
    rt.await_quiescence()
    init_end_w2 = first_event(store, "s/w2", "init_end")
    wait_end_w1 = first_event(store, "s/w1", "wait_end")
    assert init_end_w2.seq < wait_end_w1.seq  # only w1 waited, w2 went through
    assert wait_end_w1.ts == 30.0


def test_wrap_concurrent_on_running_supervisor():
    from treeboot import await_quiescence, wrap_concurrent
    rt, store, _ = fresh()
    root = rt.start_supervisor(SupervisorFlags(), (), path="s")
    spec = ChildSpec(id="late", module="m", init=InitModel.sleep(5),
                     start_mode="concurrent")
    wrapper = wrap_concurrent(root, spec)
    assert wrapper.kind == "wrapper" and wrapper.path == "s/late#wrap"
    assert wrapper.state == "running"  # acked immediately
    await_quiescence(root)
    assert root.find("s/late").state == "running"
    with pytest.raises(ValueError):
        wrap_concurrent(root, ChildSpec(id="seq", module="m"))


def test_wrapper_ack_never_waits_for_child():
    rt, store, _ = fresh()
    rt.start_supervisor(SupervisorFlags(), (
        ChildSpec(id="slow", module="m", init=InitModel.sleep(500),
                  start_mode="concurrent"),
    ), path="s")
    ack = first_event(store, "s/slow#wrap", "ack")
    assert ack.ts == 0.0  # before quiescence, child still initializing
    rt.await_quiescence()


# -- worker lifecycle ------------------------------------------------------------


def test_worker_lifecycle_canonical_order():
    graph = parse_release_graph("[conditions]\nm * -> c_m\n")
    rt, store, clock = fresh(graph)
    spec = ChildSpec(id="w", module="m", args="[1]")
    assert run_worker_lifecycle(spec, store) is True
    assert [e.kind for e in store.trace.events] == [
        "start_request", "wait_begin", "wait_end",
        "init_begin", "init_end", "condition_set", "ack",
    ]
    assert clock.now() == 0.0  # zero-cost init, wait duration ~ 0


def test_worker_lifecycle_blocks_until_released(two_app_graph):
    rt, store, clock = fresh(two_app_graph)
    spec = ChildSpec(id="w", module="generic_server", args="[app2_server1]")
    outcome = {}

    def child():
        outcome["ok"] = run_worker_lifecycle(spec, store, path="w")

    with clock.attached():
        t = clock.spawn(child, "w")
        clock.sleep(10)
        assert first_event(store, "w", "wait_end") is None  # still blocked
        store.set_condition("app1_rootsup", None)
        for n in (1, 2, 3):
            store.set_condition("generic_server", f"[app1_server{n}]")
    t.join(5)
    assert outcome["ok"] is True
    assert first_event(store, "w", "wait_end").ts == 10.0


def test_failing_init_emits_crash_and_sets_nothing():
    graph = parse_release_graph("[conditions]\nm * -> c_m\n")
    rt, store, _ = fresh(graph)
    spec = ChildSpec(id="w", module="m", init=InitModel.failing())
    assert run_worker_lifecycle(spec, store) is False
    kinds = [e.kind for e in store.trace.events]
    assert "crash" in kinds and "condition_set" not in kinds
    assert store.snapshot() == {"c_m": False}


@pytest.mark.parametrize("path", ["a b", "x\ty", ""])
def test_root_path_that_breaks_a_trace_line_is_refused_before_any_event(path):
    rt, store, _ = fresh()
    worker = ChildSpec(id="w", module="w")
    sup = ChildSpec(id="s", module="s", kind="supervisor", children=(worker,))
    with pytest.raises(ValueError, match="root path"):
        run_worker_lifecycle(worker, store, path=path)
    with pytest.raises(ValueError, match="root path"):
        rt.start_tree(sup, path=path)
    with pytest.raises(ValueError):  # the id or the module the path gives is refused
        rt.start_supervisor(SupervisorFlags(), (worker,), path=path)
    if path:  # with an id and a module of its own, start_tree refuses the path
        with pytest.raises(ValueError, match="root path"):
            rt.start_supervisor(SupervisorFlags(), (worker,), path=f"{path}/s", module="s")
    assert store.trace.events == [] and rt.roots == []


def test_callable_init_receives_args():
    seen = []
    rt, store, _ = fresh()
    spec = ChildSpec(id="w", module="m", args="[42]",
                     init=InitModel.call(seen.append))
    assert run_worker_lifecycle(spec, store) is True
    assert seen == ["[42]"]


@pytest.mark.parametrize("kind, fn, fragment", [
    ("sleeep", None, "unknown init kind"),
    ("call", None, "callable fn"),
    ("call", "not callable", "callable fn"),
    ("sleep", print, "takes no fn"),
    ("none", print, "takes no fn"),
])
def test_init_model_rejects_unknown_kind_and_misplaced_fn(kind, fn, fragment):
    # each used to pass as a model and crash its node at boot instead
    with pytest.raises(ValueError, match=fragment):
        InitModel(kind, 5.0 if kind != "call" else 0.0, fn)


# -- crash handling ----------------------------------------------------------------


def budget_tree(max_restarts, max_seconds):
    rt, store, clock = fresh()
    root = rt.start_supervisor(
        SupervisorFlags(max_restarts=max_restarts, max_seconds=max_seconds),
        (ChildSpec(id="w", module="m", init=InitModel.sleep(1)),))
    rt.await_quiescence()
    return rt, store, clock, root


def test_restart_budget_one_then_escalate():
    rt, store, clock, root = budget_tree(1, 5.0)
    out1 = rt.inject_crash(root.find("root/w"))
    assert out1.hops == (("root", "restarted"),)
    assert root.find("root/w").state == "running"
    out2 = rt.inject_crash(root.find("root/w"))  # second within 5 s window
    assert out2.hops == (("root", "escalated"),)
    assert root.state == "terminated"


def test_restart_budget_window_expiry_allows_restart():
    rt, store, clock, root = budget_tree(1, 2.0)
    assert rt.inject_crash(root.find("root/w")).final == "restarted"
    with clock.attached():
        clock.sleep(2500)  # clears the 2 s window
    assert rt.inject_crash(root.find("root/w")).final == "restarted"


def test_crash_under_wrapper_escalates_immediately():
    rt, store, clock = fresh()
    root = rt.start_supervisor(SupervisorFlags(max_restarts=3), (
        ChildSpec(id="c", module="m", init=InitModel.sleep(1),
                  start_mode="concurrent"),
    ))
    rt.await_quiescence()
    child = root.find("root/c")
    outcome = rt.inject_crash(child)
    # the wrapper's zero budget escalates at once; the original parent then
    # applies its own policy to the wrapper slot
    assert outcome.hops[0] == ("root/c#wrap", "escalated")
    assert outcome.hops[1] == ("root", "restarted")
    assert first_event(store, "root/c#wrap", "terminate") is not None
    rt.await_quiescence()
    assert root.find("root/c").state == "running"


def test_crash_terminated_node_is_noop():
    rt, store, clock, root = budget_tree(0, 1.0)
    node = root.find("root/w")
    rt.inject_crash(node)  # escalates, everything terminated
    before = len(store.trace.events)
    assert rt.inject_crash(node).final == "noop"
    assert len(store.trace.events) == before


def test_root_failure_terminates_a_child_that_was_still_starting():
    """The root fails while a concurrent child's init still runs: the
    wrapper goes down with the root, and once the starter finishes the child
    goes down too instead of attaching to the dead wrapper."""
    tree = parse_tree("sup root restarts=0/1\n"
                      "  worker slow init=sleep:5 mode=concurrent\n"
                      "  worker bad init=fail\n")
    rt, store, _ = fresh()
    with pytest.raises(StartupError):
        rt.start_tree(tree)
    for thread in threading.enumerate():
        if thread.name == "starter:root/slow":
            thread.join(timeout=30)
            assert not thread.is_alive()
    events = store.trace.events
    wrapper_down = next(i for i, e in enumerate(events)
                        if e.kind == "terminate" and e.node == "root/slow#wrap")
    assert [(e.ts, e.kind, e.node, e.get("reason")) for e in events[wrapper_down + 1:]] == [
        (0.0, "terminate", "root", "child-start-failure"),
        (5.0, "init_end", "root/slow", None),
        (5.0, "ack", "root/slow", None),
        (5.0, "terminate", "root/slow", "parent-terminated"),
    ]
    assert not any(e.kind == "attach" for e in events)


def test_temporary_child_not_restarted():
    rt, store, clock = fresh()
    root = rt.start_supervisor(SupervisorFlags(), (
        ChildSpec(id="w", module="m", restart="temporary"),
    ))
    rt.await_quiescence()
    outcome = rt.inject_crash(root.find("root/w"))
    assert outcome.hops == (("root", "removed"),)
    assert root.state == "running"
    assert root.find("root/w") is None


def test_startup_failure_consumes_budget_then_escalates():
    rt, store, clock = fresh()
    with pytest.raises(StartupError):
        rt.start_supervisor(SupervisorFlags(max_restarts=2, max_seconds=5.0), (
            ChildSpec(id="w", module="m", init=InitModel.failing()),
        ))
    crashes = [e for e in store.trace.events if e.kind == "crash"]
    assert len(crashes) == 3  # initial try + 2 budgeted retries
    assert first_event(store, "root", "terminate") is not None


# -- await_quiescence -----------------------------------------------------------------


def test_single_worker_report():
    rt, store, _ = fresh()
    rt.start_tree(ChildSpec(id="solo", module="m", init=InitModel.sleep(50)))
    report = rt.await_quiescence()
    assert report.duration_ms == 50.0
    assert report.node_count == 1 and report.wrapper_count == 0


@pytest.mark.parametrize("timeout", [-1.0, float("nan"), float("inf")])
def test_await_quiescence_rejects_negative_nan_and_infinite_timeouts(timeout):
    rt, _, _ = fresh()
    rt.start_tree(ChildSpec(id="solo", module="m", init=InitModel.sleep(50)))
    with pytest.raises(ValueError, match="quiescence timeout"):
        rt.await_quiescence(timeout)
    assert rt.await_quiescence(0.0).duration_ms == 50.0


def test_wrapper_tree_report_counts():
    rt, store, _ = fresh()
    rt.start_supervisor(SupervisorFlags(), (
        ChildSpec(id="w1", module="m1", start_mode="concurrent"),
        ChildSpec(id="w2", module="m2"),
    ), path="s")
    report = rt.await_quiescence()
    assert report.node_count == 3  # s, w1, w2
    assert report.wrapper_count == 1


def test_deep_regular_tree_sequential_duration():
    # 3-regular tree of depth 6: (3**7 - 1) // 2 nodes, unit delay each
    expected_nodes = (3 ** 7 - 1) // 2
    from treeboot import DelayModel, TopologySpec, gen_topology
    tree = gen_topology(TopologySpec("deep"), DelayModel("sleep", 1.0))
    rt, store, _ = fresh()
    rt.start_tree(tree)
    report = rt.await_quiescence()
    assert report.node_count == expected_nodes
    assert report.duration_ms == float(expected_nodes)


def chain_text(depth: int, keys: str = "") -> str:
    """A chain of ``depth`` nested supervisors, ``keys`` on every line."""
    return "".join(f"{'  ' * level}sup n{level} {keys}\n" for level in range(depth))


def test_deep_sequential_chain_boots():
    for depth in (400, 2000):
        rt, store, _ = fresh()
        rt.start_tree(parse_tree(chain_text(depth)))
        assert rt.await_quiescence().node_count == depth


def test_deep_chain_duration_prediction_and_check():
    tree = parse_tree(chain_text(2000, "init=sleep:1"))
    rt, store, _ = fresh()
    rt.start_tree(tree)
    assert rt.await_quiescence().duration_ms == critical_path(tree) == 2000.0
    assert check_trace(store.trace.events, DependencyGraph(), tree) == []
    forked, tagged = place_forks(tree, ForkPlacement.at_depth(1999))
    assert tagged == 1
    assert [spec.start_mode for spec in forked.iter_nodes()] == \
        ["sequential"] * 1999 + ["concurrent"]
    assert [spec.id for spec in tree.iter_nodes()] == [f"n{i}" for i in range(2000)]


def test_deep_chain_crash_escalates_once_per_supervisor():
    text = chain_text(2000, "restarts=0/5") + "  " * 2000 + "worker leaf\n"
    rt, store, _ = fresh()
    root = rt.start_tree(parse_tree(text))
    rt.await_quiescence()
    sup_paths = ["/".join(f"n{i}" for i in range(level + 1)) for level in range(2000)]
    outcome = rt.inject_crash(root.find(sup_paths[-1] + "/leaf"))
    assert outcome.hops == tuple((path, "escalated") for path in reversed(sup_paths))
    assert root.state == "terminated"
    with pytest.raises(StartupError):
        rt.await_quiescence()


def chain_spec(depth: int, leaf_init: InitModel = InitModel()) -> ChildSpec:
    spec = ChildSpec(id=f"n{depth - 1}", module="m", init=leaf_init)
    for level in reversed(range(depth - 1)):
        spec = ChildSpec(id=f"n{level}", module="m", kind="supervisor", children=(spec,))
    return spec


def test_deep_chain_spec_eq_hash_repr():
    a, b = chain_spec(2000), chain_spec(2000)
    assert a is not b and a == b and hash(a) == hash(b)
    other = chain_spec(2000, InitModel.sleep(1))  # differs only at the deepest node
    assert a != other and hash(a) != hash(other)
    assert a != chain_spec(1999) and a != "n0"
    assert {a, b, other} == {a, other}
    assert repr(a) == (
        "ChildSpec(id='n0', module='m', args=None, restart='permanent', kind='supervisor', "
        "start_mode='sequential', init=InitModel(kind='none', duration_ms=0.0, fn=None), "
        "flags=SupervisorFlags(max_restarts=3, max_seconds=5.0), children=<1>)")


def test_spec_eq_compares_every_field_and_the_shape():
    base = parse_tree(TREE_TEXT)
    assert base == parse_tree(TREE_TEXT)
    leaf = base.children[0]
    for changed in (replace(leaf, args="[x]"), replace(leaf, restart="temporary"),
                    replace(leaf, start_mode="concurrent"), replace(leaf, init=InitModel.sleep(9))):
        tree = replace(base, children=(changed, *base.children[1:]))
        assert tree != base
    # the same pre-order ids under a different shape
    flat = ChildSpec(id="r", module="r", kind="supervisor", children=(
        ChildSpec(id="a", module="a", kind="supervisor", children=(
            ChildSpec(id="b", module="b"),)),
        ChildSpec(id="c", module="c")))
    nested = ChildSpec(id="r", module="r", kind="supervisor", children=(
        ChildSpec(id="a", module="a", kind="supervisor", children=(
            ChildSpec(id="b", module="b"), ChildSpec(id="c", module="c"))),))
    assert flat != nested


def test_deep_chain_shape():
    rt, _, _ = fresh()
    root = rt.start_tree(chain_spec(2000))
    rt.await_quiescence()
    shape, depth = root.shape(), 0
    while shape[2]:
        assert shape[:2] == (f"n{depth}", "supervisor") and len(shape[2]) == 1
        shape, depth = shape[2][0], depth + 1
    assert (shape, depth) == (("n1999", "worker", ()), 1999)


# -- spec walk ------------------------------------------------------------------------


def reference_walk(spec: ChildSpec, path: str, parent: str | None = None, depth: int = 0):
    yield path, spec, parent, depth
    for child in spec.children:
        yield from reference_walk(child, f"{path}/{child.id}", path, depth + 1)


def by_identity(walk):
    return [(path, id(spec), parent, depth) for path, spec, parent, depth in walk]


@pytest.mark.parametrize("seed", range(12))
def test_walk_matches_recursive_reference(seed):
    root = random_system(seed).tagged_root()
    assert by_identity(root.walk()) == by_identity(reference_walk(root, root.id))
    assert [id(spec) for spec in root.iter_nodes()] == \
        [id(spec) for _, spec, _, _ in reference_walk(root, root.id)]
    forest = [("app1", root), ("app2", random_system(seed + 100).root)]
    for prefix, app_root in forest:
        path = f"{prefix}/{app_root.id}"
        assert by_identity(app_root.walk(path)) == by_identity(reference_walk(app_root, path))


# -- trace checking -------------------------------------------------------------------


def run_gated_lane_system():
    graph = parse_release_graph(
        "[conditions]\nm2 * -> cond_x\n[preconditions]\nm1 * <- cond_x\n")
    root = ChildSpec(id="s", module="s", kind="supervisor", children=(
        ChildSpec(id="w1", module="m1", init=InitModel.sleep(5),
                  start_mode="concurrent"),
        ChildSpec(id="w2", module="m2", init=InitModel.sleep(30)),
    ))
    clock = VirtualClock()
    store = ConditionStore(graph, clock=clock, deadlock_timeout_ms=1000)
    rt = Runtime(store)
    rt.start_tree(root)
    rt.await_quiescence()
    return store.trace.events, graph, root


def test_check_trace_passes_on_real_run():
    events, graph, root = run_gated_lane_system()
    assert check_trace(events, graph, root) == []


def test_check_trace_catches_shuffled_bracketing():
    events, graph, root = run_gated_lane_system()
    by_seq = {e.seq: e for e in events}
    # swap w2's wait_end and init_begin sequence numbers
    we = next(e for e in events if e.node == "s/w2" and e.kind == "wait_end")
    ib = next(e for e in events if e.node == "s/w2" and e.kind == "init_begin")
    forged = [by_seq[s] for s in sorted(by_seq)]
    forged[we.seq], forged[ib.seq] = (
        type(we)(we.seq, we.ts, ib.kind, ib.node, ib.detail),
        type(ib)(ib.seq, ib.ts, we.kind, we.node, we.detail),
    )
    codes = {v.code for v in check_trace(forged, graph, root)}
    assert "wait-before-init" in codes


def test_check_trace_missing_ack():
    events, graph, root = run_gated_lane_system()
    pruned = [e for e in events if not (e.node == "s/w2" and e.kind == "ack")]
    codes = {v.code for v in check_trace(pruned, graph, root)}
    assert "missing-events" in codes


def test_check_trace_detects_unsatisfied_precondition():
    events, graph, root = run_gated_lane_system()
    pruned = [e for e in events if e.kind != "condition_set"]
    codes = {v.code for v in check_trace(pruned, graph, root)}
    assert "unsatisfied-precondition" in codes


def test_check_trace_sequential_order_rule():
    rt, store, _ = fresh()
    root_spec = ChildSpec(id="r", module="r", kind="supervisor", children=(
        ChildSpec(id="a", module="ma", init=InitModel.sleep(1)),
        ChildSpec(id="b", module="mb", init=InitModel.sleep(1)),
    ))
    rt.start_tree(root_spec)
    rt.await_quiescence()
    events = store.trace.events
    assert check_trace(events, DependencyGraph(), root_spec) == []
    # forge: move b's start_request before a's ack
    ack_a = next(e for e in events if e.node == "r/a" and e.kind == "ack")
    req_b = next(e for e in events if e.node == "r/b" and e.kind == "start_request")
    swapped = []
    for e in events:
        if e is ack_a:
            swapped.append(type(e)(req_b.seq, e.ts, e.kind, e.node, e.detail))
        elif e is req_b:
            swapped.append(type(e)(ack_a.seq, e.ts, e.kind, e.node, e.detail))
        else:
            swapped.append(e)
    codes = {v.code for v in check_trace(swapped, DependencyGraph(), root_spec)}
    assert "sequential-order" in codes


def test_check_trace_structure_mismatch():
    events, graph, root = run_gated_lane_system()
    stray = type(events[0])(len(events), 99.0, "ack", "s/ghost", ())
    codes = {v.code for v in check_trace(events + [stray], graph, root)}
    assert "structure-mismatch" in codes


def run_wrapper_crash():
    """C08-style: crash the child of a wrapper; the wrapper terminates and
    the parent restarts the slot."""
    rt, store, _ = fresh()
    root_spec = ChildSpec(id="root", module="root", kind="supervisor", children=(
        ChildSpec(id="c", module="m", start_mode="concurrent", init=InitModel.sleep(2)),
    ))
    root = rt.start_tree(root_spec)
    rt.await_quiescence()
    rt.inject_crash(root.find("root/c"))
    rt.await_quiescence()
    return store.trace.events, root_spec


def test_check_trace_wrapper_terminated_after_crash():
    events, root_spec = run_wrapper_crash()
    assert check_trace(events, DependencyGraph(), root_spec) == []


def test_check_trace_wrapper_survived_crash():
    events, root_spec = run_wrapper_crash()
    crash = next(e for e in events if e.kind == "crash")
    pruned = [e for e in events if not (e.kind == "terminate" and e.node == "root/c#wrap")]
    violations = check_trace(pruned, DependencyGraph(), root_spec)
    assert [(v.code, v.seqs) for v in violations] == [("wrapper-survived-crash", (crash.seq,))]


def test_check_trace_empty_trace_nonempty_tree():
    root = ChildSpec(id="s", module="s")
    assert [v.code for v in check_trace([], DependencyGraph(), root)] == [
        "missing-events"]


@pytest.mark.parametrize("seed", [3, 7])
@pytest.mark.parametrize("mode", ["sequential", "as-specified"])
def test_check_trace_reads_events_in_seq_order_whatever_the_input_order(seed, mode):
    """Events out of seq order, or with repeated seqs, give the violations of
    the same list sorted stably by seq, which keeps equal seqs in input
    order."""
    system = random_system(seed)
    forest = [("sys", system.tagged_root())]
    result = boot_system(system.graph, forest, mode=mode, clock=VirtualClock())
    forged = result.system.trace.events
    rng = random.Random(seed)
    for _ in range(4):  # swap the seqs of a few event pairs, so that some rules fail
        a, b = rng.sample(range(len(forged)), 2)
        forged[a], forged[b] = (forged[a]._replace(seq=forged[b].seq),
                                forged[b]._replace(seq=forged[a].seq))
    assert check_trace(forged, system.graph, forest), "the forged trace breaks no rule"
    tied = [event._replace(seq=event.seq // 2) for event in forged]  # every seq twice
    for trace in (forged, tied):
        for order in (trace[::-1], *(rng.sample(trace, len(trace)) for _ in range(3))):
            by_seq = sorted(order, key=lambda e: e.seq)
            assert check_trace(order, system.graph, forest) == \
                check_trace(by_seq, system.graph, forest)


# -- tree files ----------------------------------------------------------------------


TREE_TEXT = """\
sup root module=app1_rootsup restarts=2/10
  worker server1 module=generic_server args=[app1_server1] init=sleep:50
  worker server2 module=generic_server args=[app1_server2] init=busy:20 mode=concurrent
  sup mid restarts=0/1
    worker t module=mt restart=temporary init=fail
"""


def test_parse_tree_structure():
    root = parse_tree(TREE_TEXT)
    assert root.kind == "supervisor" and root.module == "app1_rootsup"
    assert root.flags == SupervisorFlags(2, 10.0)
    assert [c.id for c in root.children] == ["server1", "server2", "mid"]
    assert root.children[1].start_mode == "concurrent"
    assert root.children[1].init == InitModel.busy(20)
    mid = root.children[2]
    assert mid.flags.max_restarts == 0
    assert mid.children[0].restart == "temporary"
    assert mid.children[0].init == InitModel.failing()


def test_tree_round_trip():
    root = parse_tree(TREE_TEXT)
    assert parse_tree(serialize_tree(root)) == root


@pytest.mark.parametrize("bad, fragment", [
    ("worker w\n  worker x\n", "cannot have children"),
    ("sup a\nsup b\n", "multiple top-level"),
    ("   sup a\n", "multiples of two"),
    ("sup a unknown=1\n", "unknown key"),
    ("sup a\n  worker b\n  worker b\n", "duplicate child id"),
    ("", "empty tree"),
    ("sup a mode=parallel\n", "bad mode"),
    ("sup a shutdown=brutal\n", "unknown key"),
    ("sup a modules=m\n", "unknown key"),
    ("sup a\n  worker b restarts=1/5\n", "supervisors only"),
    ("sup a restarts=2/nan\n  worker b init=fail\n", "expected restarts="),
    ("sup a init=sleep:nan\n", "bad init duration"),
    ("sup a init=sleep:-1\n", "bad init duration"),
    ("sup a init=busy:inf\n", "bad init duration"),
])
def test_parse_tree_errors(bad, fragment):
    with pytest.raises(TreeError) as exc:
        parse_tree(bad)
    assert fragment in str(exc.value)


@pytest.mark.parametrize("token, fragment", [
    ("init=sleep:1_0", "bad init duration"),
    ("init=busy:1_000.5", "bad init duration"),
    ("init=sleep:\u0661\u0662", "bad init duration"),
    ("init=sleep:1.\u0665", "bad init duration"),
    ("init=busy:\uff12", "bad init duration"),
    ("restarts=1_0/2_0", "expected restarts="),
    ("restarts=1/2_0", "expected restarts="),
    ("restarts=\u0663/5", "expected restarts="),
    ("restarts=3/\u0665", "expected restarts="),
])
def test_parse_tree_reads_only_ascii_numbers_without_underscores(token, fragment):
    # float() and int() read these; serialize_tree would write them back differently
    with pytest.raises(TreeError, match=fragment) as exc:
        parse_tree(f"sup r\n  sup a {token}\n")
    assert exc.value.line == 2


def test_parse_tree_reads_the_numbers_it_writes():
    text = ("sup r restarts=2/0.25\n  worker a init=sleep:1e+06\n"
            "  worker b init=busy:0.5\n  sup c restarts=0/inf\n")
    root = parse_tree(text)
    assert root.flags == SupervisorFlags(2, 0.25)
    assert root.children[0].init == InitModel.sleep(1e6)
    assert root.children[2].flags == SupervisorFlags(0, math.inf)
    assert serialize_tree(root) == text


@pytest.mark.parametrize("field, value, fragment", [
    ("id", "", "child id ''"),
    ("id", "a b", "child id 'a b'"),
    ("id", "a\tb", "child id"),
    ("id", "a/b", "child id 'a/b'"),
    ("id", "a#wrap", "child id 'a#wrap'"),
    ("module", "has space", "module 'has space'"),
    ("module", "m\n", "module"),
    ("args", "[a b]", "args '[a b]'"),
])
def test_child_spec_rejects_ids_and_keys_that_break_paths_or_traces(field, value, fragment):
    with pytest.raises(ValueError) as exc:
        ChildSpec(**{"id": "w", "module": "m", field: value})
    assert fragment in str(exc.value)


def test_parse_tree_reports_a_slash_in_a_node_id_at_its_line():
    # 'a/b' under r would share the path r/a/b with a's child b.
    with pytest.raises(TreeError, match="child id 'a/b'") as exc:
        parse_tree("sup r\n  sup a\n    worker b\n  worker a/b\n")
    assert exc.value.line == 4


@pytest.mark.parametrize("indent", ["\t\t", "\t", " \t", "\t ", "\u00a0\u00a0",
                                    "  \u3000 "])
def test_parse_tree_rejects_indentation_other_than_spaces(indent):
    with pytest.raises(TreeError, match="indentation must be spaces") as exc:
        parse_tree(f"sup r\n  worker a\n{indent}worker b\n")
    assert exc.value.line == 3


def test_deep_tree_parses_and_round_trips():
    text = "".join(f"{'  ' * depth}sup n{depth}\n" for depth in range(2000))
    root = parse_tree(text)
    assert root.id == "n0" and root.children[0].id == "n1"
    assert serialize_tree(root) == text
    assert parse_tree(serialize_tree(root)) == root


_TREE_KEYS = ("module", "args", "restart", "init", "mode", "restarts",
              "shutdown", "modules", "")
_TREE_VALUES = ("", "nan", "-1", "a/b", "1/2/3", "2/5", "0/1", "1/nan", "*",
                "[x]", "m", "temporary", "bogus", "concurrent", "fail",
                "sleep:5", "sleep:nan", "sleep:-1", "busy:inf", "brutal")
_tree_token = st.one_of(
    st.builds("{}={}".format, st.sampled_from(_TREE_KEYS), st.sampled_from(_TREE_VALUES)),
    st.sampled_from(("junk", "#", "=")),
)
_tree_line = st.builds(
    lambda indent, kind, node_id, tokens: " " * indent + " ".join((kind, node_id, *tokens)),
    st.integers(0, 7),
    st.sampled_from(("sup", "worker", "sop", "")),
    st.sampled_from(("a", "b", "c", "")),
    st.lists(_tree_token, max_size=4),
)


@given(st.lists(_tree_line, max_size=8))
@settings(max_examples=300)
def test_parse_tree_returns_spec_or_tree_error(lines):
    """Any line mix parses to a spec that round-trips, or raises TreeError."""
    try:
        root = parse_tree("\n".join(lines))
    except TreeError:
        return
    assert isinstance(root, ChildSpec)
    assert parse_tree(serialize_tree(root)) == root
