"""Start plans: one per (module, args) key per graph, read by the analytic
model, by every condition store over the graph and by the trace checker."""

from __future__ import annotations

import gc
import sys
import threading
from collections import Counter

import pytest

from treeboot import (
    DependencyGraph,
    ModuleKey,
    TopologySpec,
    VirtualClock,
    boot_system,
    check_trace,
    critical_path,
    gen_topology,
    parse_release_graph,
    parse_tree,
)
from treeboot.depgraph import StartPlan

from conftest import TWO_APP_GRAPH
from gensys import random_system

APP1_TREE = """\
sup rootsup module=app1_rootsup
  worker server1 module=generic_server args=[app1_server1] init=sleep:40 mode=concurrent
  worker server2 module=generic_server args=[app1_server2] init=sleep:25
  worker server3 module=generic_server args=[app1_server3] init=sleep:10 mode=concurrent
"""

APP2_TREE = """\
sup rootsup2 module=app2_rootsup
  worker server1 module=generic_server args=[app2_server1] init=sleep:15 mode=concurrent
"""


def two_apps():
    return [("app1", parse_tree(APP1_TREE)), ("app2", parse_tree(APP2_TREE))]


def predict_boot_twice_and_check(graph, apps):
    assert critical_path(apps[0][1], graph) == 40.0  # app2 needs app1's conditions
    for _ in range(2):
        result = boot_system(graph, apps, clock=VirtualClock())
        assert check_trace(result.system.trace.events, graph, apps) == []


def test_model_boots_and_checker_make_and_expand_each_key_once(monkeypatch):
    made: Counter = Counter()
    expanded: Counter = Counter()
    make, expand = StartPlan.__init__, DependencyGraph._expand

    def counting_make(self, graph, module, args):
        made[module, args] += 1
        make(self, graph, module, args)

    def counting_expand(self, module, args):
        expanded[module, args] += 1
        return expand(self, module, args)

    monkeypatch.setattr(StartPlan, "__init__", counting_make)
    monkeypatch.setattr(DependencyGraph, "_expand", counting_expand)
    graph, apps = parse_release_graph(TWO_APP_GRAPH), two_apps()
    predict_boot_twice_and_check(graph, apps)
    keys = {(spec.module, spec.args) for _, root in apps for spec in root.iter_nodes()}
    assert made == Counter(keys)
    # Only generic_server has a precondition entry; the other keys share
    # one empty ``needs`` and expand nothing.
    assert expanded == Counter(key for key in keys if key[0] == "generic_server")
    assert graph.start_plan("app1_rootsup").needs is graph.start_plan("app2_rootsup").needs


@pytest.mark.parametrize("space", [" ", "\t", "\u00a0", "\u3000"])
def test_a_plan_refuses_whitespace_in_module_or_args_naming_the_value(space):
    graph = DependencyGraph()
    with pytest.raises(ValueError, match="module="):
        graph.start_plan(f"m{space}x", "[a]")
    with pytest.raises(ValueError, match="args="):
        graph.start_plan("m", f"[a{space}]")
    assert graph.start_plan("m", "[a]").detail == (("module", "m"), ("args", "[a]"))


def test_load_model_boot_and_check_hash_no_module_key(monkeypatch):
    calls = []

    def counting_hash(self):
        calls.append(self)
        return hash((self.module, self.args))

    monkeypatch.setattr(ModuleKey, "__hash__", counting_hash)
    assert hash(ModuleKey("m")) == hash(("m", None)) and len(calls) == 1
    calls.clear()
    graph, apps = parse_release_graph(TWO_APP_GRAPH), two_apps()
    assert graph.cycle_check() is None
    predict_boot_twice_and_check(graph, apps)
    assert calls == []


def observed(events):
    """The events as a multiset, without seq.  A blocked wait_begin's
    conditions list is dropped: threads active at one virtual instant run in
    OS order, so a condition set at the instant the wait begins may or may
    not be in it."""
    return Counter((e.ts, e.kind, e.node,
                    tuple(pair for pair in e.detail if pair[0] != "conditions"))
                   for e in events)


def test_concurrent_boots_over_one_fresh_graph_each_match_a_lone_boot():
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for seed, mode in ((3, "as-specified"), (11, "as-specified"), (11, "sequential")):
            lone_system = random_system(seed)
            apps = [("app", lone_system.tagged_root())]
            lone = boot_system(lone_system.graph, apps, mode=mode, clock=VirtualClock())
            expected = observed(lone.system.trace.events)

            graph = random_system(seed).graph  # no plan made yet
            start = threading.Barrier(2)
            results = []

            def boot():
                start.wait(10)
                results.append(boot_system(graph, apps, mode=mode, clock=VirtualClock()))

            threads = [threading.Thread(target=boot) for _ in range(2)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(30)
            assert not any(t.is_alive() for t in threads) and len(results) == 2
            for result in results:
                events = result.system.trace.events
                assert check_trace(events, graph, apps) == []
                assert observed(events) == expected
                if mode == "sequential":  # one thread per boot: the whole trace is fixed
                    assert events == lone.system.trace.events
    finally:
        sys.setswitchinterval(interval)


def test_a_boot_over_made_plans_keeps_at_most_ten_tracked_objects_per_node():
    graph, tree = DependencyGraph(), gen_topology(TopologySpec("deep"))
    boot_system(graph, [("app", tree)], clock=VirtualClock())  # makes every plan
    gc.collect()
    before = len(gc.get_objects())
    result = boot_system(graph, [("app", tree)], clock=VirtualClock())
    gc.collect()
    kept = len(gc.get_objects()) - before
    assert result.report.node_count == 1093
    assert kept <= 10 * result.report.node_count
