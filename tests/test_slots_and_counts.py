"""What a boot reports and how a slot's parent reacts: counts from the acked
nodes, the wrapper that never restarts, and the settings a spec refuses."""

from __future__ import annotations

import pytest

from treeboot import (
    ChildSpec,
    DependencyGraph,
    InitModel,
    QuiescenceTimeout,
    StartupError,
    SupervisorFlags,
    TraceSink,
    VirtualClock,
    boot_system,
    check_trace,
    critical_path,
    inject_crash,
    parse_tree,
    serialize_tree,
)

MODES = ["as-specified", "sequential"]


def boot(tree, *, mode="as-specified", **options):
    return boot_system(DependencyGraph(), [("app", tree)], mode=mode,
                       clock=VirtualClock(), **options)


def check(events, tree):
    return check_trace(events, DependencyGraph(), [("app", tree)])


def failing_once():
    attempts = []

    def init(args):
        attempts.append(args)
        if len(attempts) == 1:
            raise RuntimeError("first start fails")
    return InitModel.call(init), attempts


# -- counts -----------------------------------------------------------------------


def test_a_slot_started_twice_counts_one_wrapper_and_its_nodes_once():
    init, attempts = failing_once()
    tree = ChildSpec(id="root", module="root", kind="supervisor", children=(
        ChildSpec(id="w", module="w", init=init, start_mode="concurrent"),
        ChildSpec(id="s", module="s", init=InitModel.sleep(5)),
    ))
    result = boot(tree)
    assert len(attempts) == 2
    assert (result.report.node_count, result.report.wrapper_count) == (3, 1)
    assert result.report.duration_ms == critical_path(tree) == 5.0
    assert check(result.system.trace.events, tree) == []


def test_quiescence_timeout_counts_declared_nodes_only():
    tree = parse_tree("sup root\n"
                      "  worker slow init=sleep:100 mode=concurrent\n"
                      "  worker quick init=sleep:1\n")
    with pytest.raises(QuiescenceTimeout) as exc:
        boot(tree, quiescence_timeout_ms=5)
    # root and quick acked; the wrapper is no node and slow is still starting
    assert (exc.value.acked, exc.value.outstanding) == (2, 1)
    assert "2 node(s) acked, 1 concurrent start(s) outstanding" in str(exc.value)


def test_system_roots_are_the_runtime_roots():
    trees = [parse_tree(f"sup r{i}\n  worker w mode=concurrent\n") for i in range(3)]
    system = boot_system(DependencyGraph(), [(f"a{i}", t) for i, t in enumerate(trees)],
                         clock=VirtualClock()).system
    assert system.roots == tuple(system.runtime.roots)
    assert [root.path for root in system.roots] == ["a0/r0", "a1/r1", "a2/r2"]


# -- the slot rule: a wrapper never restarts, the slot's parent decides ------------


@pytest.mark.parametrize("mode", MODES)
def test_crashed_temporary_slot_is_removed_by_its_parent(mode):
    tree = parse_tree("sup root\n"
                      "  worker t restart=temporary mode=concurrent\n"
                      "  worker s\n")
    system = boot(tree, mode=mode).system
    outcome = inject_crash(system.find("app/root/t"))
    wrapped = mode == "as-specified"
    assert outcome.hops == ((("app/root/t#wrap", "escalated"),) if wrapped else ()) + (
        ("app/root", "removed"),)
    terminates = [(e.node, e.get("reason")) for e in system.trace.events
                  if e.kind == "terminate"]
    assert terminates == ([("app/root/t#wrap", "restart-budget-exhausted")]
                          if wrapped else [])
    assert system.roots[0].shape() == ("root", "supervisor", (("s", "worker", ()),))
    assert check(system.trace.events, tree) == []


def test_crash_of_a_temporary_slot_wrapper_itself_removes_the_slot():
    tree = parse_tree("sup root\n  worker t restart=temporary mode=concurrent\n")
    system = boot(tree).system
    outcome = inject_crash(system.find("app/root/t#wrap"))
    assert outcome.hops == (("app/root", "removed"),)
    assert system.roots[0].shape() == ("root", "supervisor", ())


@pytest.mark.parametrize("mode", MODES)
def test_crashed_permanent_slot_is_restarted_by_its_parent(mode):
    tree = parse_tree("sup root restarts=1/5\n  worker p mode=concurrent\n")
    system = boot(tree, mode=mode).system
    outcome = inject_crash(system.find("app/root/p"))
    wrapped = mode == "as-specified"
    assert outcome.hops == ((("app/root/p#wrap", "escalated"),) if wrapped else ()) + (
        ("app/root", "restarted"),)
    system.runtime.await_quiescence()
    assert system.find("app/root/p").state == "running"
    assert check(system.trace.events, tree) == []


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("restart", ["temporary", "permanent"])
def test_failed_first_start_is_retried_within_the_parent_budget(mode, restart):
    tree = parse_tree("sup root restarts=2/5\n"
                      f"  worker t restart={restart} init=fail mode=concurrent\n")
    trace = TraceSink()
    with pytest.raises(StartupError):
        boot(tree, mode=mode, trace=trace)
    crashes = [e.node for e in trace.events if e.kind == "crash"]
    assert crashes == ["app/root/t"] * 3  # the first start and two retries
    # the trace is complete except for the acks that never came; behind a
    # wrapper the root acked before its slot failed
    never_acked = ["app/root/t"] if mode == "as-specified" else ["app/root", "app/root/t"]
    assert sorted((v.code, v.message) for v in check(trace.events, tree)) == [
        ("missing-events", f"{path} never acked") for path in never_acked]


@pytest.mark.parametrize("mode", MODES)
def test_temporary_slot_retried_after_a_failed_start_is_removed_when_it_crashes(mode):
    init, attempts = failing_once()
    tree = ChildSpec(id="root", module="root", kind="supervisor", children=(
        ChildSpec(id="t", module="t", init=init, restart="temporary",
                  start_mode="concurrent"),
    ))
    system = boot(tree, mode=mode).system
    assert len(attempts) == 2
    outcome = inject_crash(system.find("app/root/t"))
    assert outcome.final == "removed"
    assert system.roots[0].shape() == ("root", "supervisor", ())
    assert check(system.trace.events, tree) == []


# -- settings the runtime never reads are refused ----------------------------------


@pytest.mark.parametrize("kind, fn", [("none", None), ("fail", None), ("call", print)])
def test_init_model_refuses_a_duration_its_kind_never_runs(kind, fn):
    with pytest.raises(ValueError, match=f"a {kind} init takes no duration"):
        InitModel(kind, 7.0, fn)
    assert InitModel(kind, 0.0, fn).duration_ms == 0.0


@pytest.mark.parametrize("init", [InitModel(), InitModel.sleep(7), InitModel.busy(7),
                                  InitModel.call(lambda args: None)])
def test_every_init_kind_that_boots_boots_in_its_predicted_time(init):
    tree = ChildSpec(id="root", module="root", kind="supervisor", children=(
        ChildSpec(id="a", module="a", init=init),
        ChildSpec(id="b", module="b", init=InitModel.sleep(3), start_mode="concurrent"),
    ))
    assert boot(tree).report.duration_ms == critical_path(tree)


def test_worker_refuses_restart_flags_and_round_trips():
    with pytest.raises(ValueError, match="worker 'w' takes no restart flags"):
        ChildSpec(id="w", module="w", flags=SupervisorFlags(1, 1.0))
    worker = ChildSpec(id="w", module="w", flags=SupervisorFlags())  # equal to the default
    sup = ChildSpec(id="s", module="s", kind="supervisor", flags=SupervisorFlags(1, 1.0),
                    children=(worker,))
    assert parse_tree(serialize_tree(sup)) == sup
