"""Release parsing and release-level startup semantics."""

from __future__ import annotations

import pytest

from treeboot import (
    BootRefusedError,
    ChildSpec,
    InitModel,
    ReleaseError,
    StartupError,
    SupervisorFlags,
    TraceSink,
    VirtualClock,
    boot,
    boot_system,
    check_trace,
    parse_release,
)

from conftest import TWO_APP_GRAPH, CYCLE_GRAPH
from treeboot import parse_release_graph

APP1_TREE = """\
sup rootsup module=app1_rootsup
  worker server1 module=generic_server args=[app1_server1] init=sleep:40 mode=concurrent
  worker server2 module=generic_server args=[app1_server2] init=sleep:25 mode=concurrent
  worker server3 module=generic_server args=[app1_server3] init=sleep:10 mode=concurrent
"""

APP2_TREE = """\
sup rootsup2 module=app2_rootsup
  worker server1 module=generic_server args=[app2_server1] init=sleep:15 mode=concurrent
"""


@pytest.fixture
def release_dir(tmp_path):
    (tmp_path / "sys.rgraph").write_text(TWO_APP_GRAPH)
    (tmp_path / "app1.tree").write_text(APP1_TREE)
    (tmp_path / "app2.tree").write_text(APP2_TREE)
    (tmp_path / "demo.rel").write_text(
        "release demo\ngraph sys.rgraph\napp app1 app1.tree\napp app2 app2.tree\n")
    return tmp_path


# -- parsing -------------------------------------------------------------------


def test_parse_release_order(release_dir):
    release = parse_release((release_dir / "demo.rel").read_text(),
                            base_dir=release_dir)
    assert release.name == "demo"
    assert release.graph_path == "sys.rgraph"
    assert [name for name, _, _ in release.applications] == ["app1", "app2"]
    assert release.applications[0][1].id == "rootsup"


def test_parse_release_zero_apps():
    release = parse_release("release empty\ngraph g.rgraph\n")
    assert release.applications == ()


def test_parse_release_duplicate_app(release_dir):
    text = "graph sys.rgraph\napp a app1.tree\napp a app2.tree\n"
    with pytest.raises(ReleaseError, match="duplicate application"):
        parse_release(text, base_dir=release_dir)


def test_parse_release_missing_graph(release_dir):
    with pytest.raises(ReleaseError, match="missing graph"):
        parse_release("release r\napp a app1.tree\n", base_dir=release_dir)


def test_parse_release_unknown_tree_file(release_dir):
    with pytest.raises(ReleaseError, match="not found"):
        parse_release("graph sys.rgraph\napp a nope.tree\n", base_dir=release_dir)


# -- booting -------------------------------------------------------------------


def test_boot_two_app_release_passes_check(release_dir):
    release = parse_release((release_dir / "demo.rel").read_text(),
                            base_dir=release_dir)
    result = boot(release, base_dir=release_dir, clock=VirtualClock())
    # app2's gated server waits for app1's slowest lane: 40 + 15
    assert result.report.duration_ms == 55.0
    assert [name for name, _ in result.per_app_ms] == ["app1", "app2"]
    forest = [(name, root) for name, root, _ in release.applications]
    graph = parse_release_graph(TWO_APP_GRAPH)
    assert check_trace(result.system.trace.events, graph, forest) == []


def test_boot_app_ack_order_matches_release_order(release_dir):
    release = parse_release((release_dir / "demo.rel").read_text(),
                            base_dir=release_dir)
    result = boot(release, base_dir=release_dir, clock=VirtualClock())
    acks = [e.node for e in result.system.trace.events
            if e.kind == "ack" and e.node.count("/") == 1]
    assert acks == ["app1/rootsup", "app2/rootsup2"]


def test_boot_sequential_mode_no_wrappers_longer_duration(release_dir):
    release = parse_release((release_dir / "demo.rel").read_text(),
                            base_dir=release_dir)
    conc = boot(release, base_dir=release_dir, clock=VirtualClock())
    seq = boot(release, base_dir=release_dir, clock=VirtualClock(),
               mode="sequential")
    assert not any("#wrap" in e.node for e in seq.system.trace.events)
    assert seq.report.duration_ms >= conc.report.duration_ms
    assert seq.report.duration_ms == 90.0  # all five inits serialized
    # final shapes differ only by wrappers
    def strip(shape):
        name, kind, children = shape
        if kind == "wrapper":
            (only,) = children
            return strip(only)
        return (name, kind, tuple(strip(c) for c in children))
    assert [strip(r.shape()) for r in seq.system.roots] == \
        [strip(r.shape()) for r in conc.system.roots]


def test_boot_refuses_cyclic_graph():
    graph = parse_release_graph(CYCLE_GRAPH)
    root = ChildSpec(id="r", module="worker_a", args="[x]")
    with pytest.raises(BootRefusedError) as exc:
        boot_system(graph, [("demo", root)], clock=VirtualClock())
    assert {k.module for k in exc.value.cycle} == {"worker_a", "worker_b"}


def test_boot_condition_server_exists_before_apps(release_dir):
    # the store observes the first application's very first wait, which
    # only works if it was constructed before any app started
    release = parse_release((release_dir / "demo.rel").read_text(),
                            base_dir=release_dir)
    result = boot(release, base_dir=release_dir, clock=VirtualClock())
    first_app_event = next(e for e in result.system.trace.events
                           if e.node.startswith("app1/"))
    assert first_app_event.kind == "start_request"
    assert result.system.store.graph is not None


def test_boot_failure_aborts_remaining_apps():
    graph = parse_release_graph(TWO_APP_GRAPH)
    bad = ChildSpec(id="r", module="m", kind="supervisor",
                    flags=SupervisorFlags(max_restarts=0),
                    children=(ChildSpec(id="w", module="m2",
                                        init=InitModel.failing()),))
    good = ChildSpec(id="r2", module="m3")
    with pytest.raises(StartupError):
        boot_system(graph, [("first", bad), ("second", good)],
                    clock=VirtualClock())


def test_boot_system_rejects_duplicate_application_names():
    graph = parse_release_graph(TWO_APP_GRAPH)
    tree = ChildSpec(id="w", module="generic_server", args="[app1_server1]",
                     init=InitModel.sleep(5))
    trace = TraceSink()
    with pytest.raises(ValueError, match="duplicate application name 'a'"):
        boot_system(graph, [("a", tree), ("b", tree), ("a", tree)],
                    clock=VirtualClock(), trace=trace)
    assert trace.events == []


@pytest.mark.parametrize("name", ["", "my app", "tab\tname", "line\n", "a/b", "/"])
def test_boot_system_rejects_application_names_that_break_paths(name):
    graph = parse_release_graph(TWO_APP_GRAPH)
    tree = ChildSpec(id="w", module="generic_server", args="[app1_server1]")
    trace = TraceSink()
    with pytest.raises(ValueError, match="application name"):
        boot_system(graph, [("ok", tree), (name, tree)], clock=VirtualClock(), trace=trace)
    assert trace.events == []
