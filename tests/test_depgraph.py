"""Dependency graph parsing, validation, queries, and cycle detection."""

from __future__ import annotations

import random
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import treeboot.depgraph as depgraph
from treeboot import (
    ConditionGroup,
    ConditionStore,
    DependencyGraph,
    GraphError,
    ModuleKey,
    VirtualClock,
    boot_system,
    critical_path,
    parse_release_graph,
    parse_tree,
    serialize_release_graph,
)

from conftest import CYCLE_GRAPH, TWO_APP_GRAPH, chain_graph_text

WITNESS_GOLDEN = Path(__file__).parent / "golden" / "cycle_witnesses.txt"
WITNESS_SEEDS = range(2000)


# -- parsing -----------------------------------------------------------------


def test_parse_two_app_example():
    graph = parse_release_graph(TWO_APP_GRAPH)
    assert len(graph.conditions) == 4
    assert len(graph.groups) == 1
    assert len(graph.groups[0].members) == 4
    assert len(graph.preconditions) == 1
    # declaration order preserved
    assert [name for _, name in graph.conditions] == [
        "cond_app1_rootsup", "cond_app1_server1",
        "cond_app1_server2", "cond_app1_server3",
    ]
    assert graph.conditions[0][0] == ModuleKey("app1_rootsup")  # wildcard args
    assert graph.preconditions[0][0] == ModuleKey("generic_server", "[app2_server1]")


def test_parse_empty_file():
    graph = parse_release_graph("")
    assert graph == DependencyGraph()
    assert graph.conditions == () and graph.groups == () and graph.preconditions == ()


def test_parse_unknown_name_diagnostic_carries_line():
    text = "[preconditions]\nsome_mod * <- cond_missing\n"
    with pytest.raises(GraphError) as exc:
        parse_release_graph(text)
    diags = exc.value.diagnostics
    assert any(d.code == "unknown-name" and d.line == 2 for d in diags)


def test_parse_duplicate_section():
    text = "[conditions]\n[conditions]\n"
    with pytest.raises(GraphError) as exc:
        parse_release_graph(text)
    assert any(d.code == "duplicate-section" for d in exc.value.diagnostics)


def test_parse_malformed_key():
    with pytest.raises(GraphError) as exc:
        parse_release_graph("[conditions]\nmod badargs -> c1\n")
    assert any(d.code == "malformed-key" for d in exc.value.diagnostics)


def test_parse_empty_precondition_list():
    text = "[conditions]\nm * -> c1\n[preconditions]\nm2 * <- \n"
    with pytest.raises(GraphError) as exc:
        parse_release_graph(text)
    assert any(d.code == "empty-preconditions" for d in exc.value.diagnostics)


def test_parse_entry_outside_section():
    with pytest.raises(GraphError) as exc:
        parse_release_graph("m * -> c1\n")
    assert any(d.code == "syntax-error" for d in exc.value.diagnostics)


def test_comments_and_blank_lines_ignored():
    text = "# header\n\n[conditions]\nm * -> c1  # trailing\n"
    graph = parse_release_graph(text)
    assert graph.conditions == ((ModuleKey("m"), "c1"),)


# -- validation ---------------------------------------------------------------


def test_validate_two_app_example_clean(two_app_graph):
    assert two_app_graph.validate() == []


def test_validate_name_collision_between_condition_and_group():
    graph = DependencyGraph(
        conditions=((ModuleKey("m"), "c"),),
        groups=(ConditionGroup("c", ("c",)),),
    )
    assert any(d.code == "name-collision" for d in graph.validate())


def test_validate_duplicate_module_key():
    key = ModuleKey("generic_server", "[s1]")
    graph = DependencyGraph(conditions=((key, "c1"), (key, "c2")))
    assert any(d.code == "duplicate-module-key" for d in graph.validate())


def test_validate_duplicate_condition_name():
    graph = DependencyGraph(
        conditions=((ModuleKey("a"), "c"), (ModuleKey("b"), "c")))
    assert any(d.code == "duplicate-condition" for d in graph.validate())


def test_validate_empty_group():
    graph = DependencyGraph(groups=(ConditionGroup("g", ()),))
    assert any(d.code == "empty-group" for d in graph.validate())


def test_validate_unknown_precondition_name():
    graph = DependencyGraph(
        preconditions=((ModuleKey("m"), ("nope",)),))
    assert any(d.code == "unknown-name" for d in graph.validate())


def test_validate_checks_each_key_of_a_graph_built_in_code():
    graph = DependencyGraph(
        conditions=((ModuleKey("9x"), "c1"), (ModuleKey("m", "a b"), "c2"),
                    (ModuleKey("n", ""), "c3")),
        preconditions=((ModuleKey("9y"), ("c1",)), (ModuleKey("p", "x y"), ("c2",))),
    )
    assert [d.render() for d in graph.validate()] == [
        "error[malformed-key] bad module name '9x'",
        "error[malformed-key] bad argument token 'a b'",
        "error[malformed-key] bad argument token ''",
        "error[malformed-key] bad module name '9y'",
        "error[malformed-key] bad argument token 'x y'",
    ]


def test_validate_nested_group():
    # A group that names a group is nesting, whichever is declared first,
    # and also when the member group's name is a condition too.
    groups = (ConditionGroup("g1", ("c1",)), ConditionGroup("g2", ("g1",)))
    for order in (groups, groups[::-1]):
        graph = DependencyGraph(conditions=((ModuleKey("m"), "c1"),), groups=order)
        assert [d.render() for d in graph.validate()] == [
            "error[unknown-name] group 'g2' may not contain group 'g1'",
        ]
    graph = DependencyGraph(conditions=((ModuleKey("m"), "c1"), (ModuleKey("n"), "g1")),
                            groups=groups)
    assert [d.render() for d in graph.validate()] == [
        "error[name-collision] 'g1' is both a condition and a group",
        "error[unknown-name] group 'g2' may not contain group 'g1'",
    ]
    # A group that names itself is a group inside a group too.
    graph = DependencyGraph(conditions=((ModuleKey("m"), "c1"),),
                            groups=(ConditionGroup("g", ("g",)),))
    assert [d.render() for d in graph.validate()] == [
        "error[unknown-name] group 'g' may not contain group 'g'",
    ]
    with pytest.raises(GraphError) as exc:
        parse_release_graph("[conditions]\nm * -> c1\n[groups]\ng = g\n")
    assert [d.render() for d in exc.value.diagnostics] == [
        "line 4: error[unknown-name] group 'g' may not contain group 'g'",
    ]


def test_wildcard_and_exact_conditions_for_same_module_allowed():
    graph = DependencyGraph(conditions=(
        (ModuleKey("m"), "c_any"),
        (ModuleKey("m", "[1]"), "c_one"),
    ))
    assert graph.validate() == []
    assert graph.conditions_set_by("m", "[1]") == {"c_any", "c_one"}


# -- queries -------------------------------------------------------------------


def test_expand_preconditions_group_expansion(two_app_graph):
    needed = two_app_graph.expand_preconditions(
        ModuleKey("generic_server", "[app2_server1]"))
    assert needed == {
        "cond_app1_rootsup", "cond_app1_server1",
        "cond_app1_server2", "cond_app1_server3",
    }


def test_expand_preconditions_no_entry(two_app_graph):
    assert two_app_graph.expand_preconditions(ModuleKey("app1_rootsup", "[x]")) == set()


def test_expand_preconditions_unions_exact_and_wildcard():
    graph = DependencyGraph(
        conditions=((ModuleKey("s1"), "c1"), (ModuleKey("s2"), "c2")),
        preconditions=(
            (ModuleKey("m", "[1]"), ("c1",)),
            (ModuleKey("m"), ("c2",)),
        ),
    )
    # independent oracle: plain set union of the two entries
    assert graph.expand_preconditions(ModuleKey("m", "[1]")) == {"c1"} | {"c2"}
    assert graph.expand_preconditions(ModuleKey("m", "[2]")) == {"c2"}
    assert graph.expand_preconditions(ModuleKey("m")) == {"c2"}


def test_conditions_set_by(two_app_graph):
    assert two_app_graph.conditions_set_by("app1_rootsup", "[whatever]") == {
        "cond_app1_rootsup"}
    assert two_app_graph.conditions_set_by("generic_server", "[app1_server2]") == {
        "cond_app1_server2"}
    assert two_app_graph.conditions_set_by("generic_server", "[app9]") == set()


# -- cycle detection -------------------------------------------------------------


def test_cycle_check_two_app_example(two_app_graph):
    assert two_app_graph.cycle_check() is None


def test_cycle_check_two_cycle(cycle_graph):
    witness = cycle_graph.cycle_check()
    assert witness is not None
    assert {key.module for key in witness} == {"worker_a", "worker_b"}


def test_cycle_check_no_preconditions():
    graph = DependencyGraph(conditions=((ModuleKey("m"), "c"),))
    assert graph.cycle_check() is None


def test_cycle_check_self_wait():
    graph = DependencyGraph(
        conditions=((ModuleKey("m"), "c"),),
        preconditions=((ModuleKey("m"), ("c",)),),
    )
    witness = graph.cycle_check()
    assert witness == [ModuleKey("m")]


def test_cycle_check_wildcard_bridges_exact_keys():
    # waiter {m,[1]} waits on a condition set by {m,*}: same module, so the
    # conservative closure links them; with the reverse edge it is a cycle.
    graph = DependencyGraph(
        conditions=((ModuleKey("m"), "c_any"), (ModuleKey("other", "[1]"), "c_o")),
        preconditions=(
            (ModuleKey("other", "[1]"), ("c_any",)),
            (ModuleKey("m", "[1]"), ("c_o",)),
        ),
    )
    assert graph.cycle_check() is not None


TWO_CYCLES = """\
[conditions]
a * -> ca
b * -> cb
c * -> cc
d * -> cd
e * -> ce

[preconditions]
b * <- ca
d * <- cb, ce
c * <- cb
a * <- cc
e * <- cd
"""

WILDCARD_CYCLE = """\
[conditions]
m * -> c_any
other [1] -> c_o
x [2] -> c_x

[preconditions]
other [1] <- c_any
x [2] <- c_o
m [1] <- c_x
"""


@pytest.mark.parametrize("text, witness", [
    (CYCLE_GRAPH, ["worker_a", "worker_b"]),
    # a -> b -> {d, c}: the search enters d first and closes d <-> e
    # before it reaches the a -> b -> c -> a cycle.
    (TWO_CYCLES, ["d", "e"]),
    (WILDCARD_CYCLE, ["m", "other[1]", "x[2]"]),
])
def test_cycle_check_witness_order(text, witness):
    """The witness is the first cycle found depth-first in declaration
    order, listed from the vertex where the search entered it."""
    assert [str(k) for k in parse_release_graph(text).cycle_check()] == witness


def test_cycle_check_long_chain_and_ring():
    n = 10_000  # far deeper than the interpreter's recursion limit
    assert parse_release_graph(chain_graph_text(n)).cycle_check() is None
    ring = parse_release_graph(chain_graph_text(n, closed=True))
    assert [str(k) for k in ring.cycle_check()] == [f"m{i}" for i in range(n)]


def random_graph(seed: int) -> DependencyGraph:
    """A small seeded graph over a few modules, mixing wildcard and exact
    keys, groups and preconditions; about half of the draws are cyclic.
    A waiter mostly waits on other modules' conditions, so the cycles are
    not all self-waits.  Some draws also get an unknown name or a
    duplicate module key."""
    rng = random.Random(seed)
    modules = [f"m{i}" for i in range(rng.randint(2, 12))]

    def key() -> ModuleKey:
        return ModuleKey(rng.choice(modules), rng.choice((None, "[1]", "[2]", "[1]", "[2]")))

    keys = list(dict.fromkeys(key() for _ in range(rng.randint(1, 10))))
    conditions = [(k, f"c{i}") for i, k in enumerate(keys)]
    names = [name for _, name in conditions]
    groups = tuple(
        ConditionGroup(f"g{g}", tuple(rng.sample(names, rng.randint(1, min(3, len(names))))))
        for g in range(rng.randint(0, 2)))
    usable = names + [g.name for g in groups]
    setter = {name: k.module for k, name in conditions}
    preconditions = []
    for k in dict.fromkeys(key() for _ in range(rng.randint(1, 10))):
        pool = [n for n in usable if setter.get(n) != k.module or rng.random() < 0.1]
        if pool:
            preconditions.append((k, tuple(rng.sample(pool, rng.randint(1, min(2, len(pool)))))))
    if rng.random() < 0.08:
        preconditions.append((key(), ("nope",)))
    if rng.random() < 0.05:
        conditions.append((keys[0], "c_dup"))
    return DependencyGraph(tuple(conditions), groups, tuple(preconditions))


def witness_line(seed: int) -> str:
    graph = random_graph(seed)
    witness = graph.cycle_check()
    shown = "-" if witness is None else " ".join(str(k) for k in witness)
    return f"{seed}: {shown} | {'; '.join(d.render() for d in graph.validate())}"


def test_cycle_check_witness_golden():
    """Witnesses and diagnostics of 2000 seeded graphs, written with the
    scan-based search that the indexed one replaced."""
    lines = WITNESS_GOLDEN.read_text(encoding="utf-8").splitlines()
    assert [witness_line(seed) for seed in WITNESS_SEEDS] == lines


# -- checked once per graph -------------------------------------------------------

ONCE_GRAPH = """\
[conditions]
a * -> ca
b [1] -> cb
[groups]
g = ca, cb
[preconditions]
c * <- g
"""

ONCE_TREE = """\
sup root
  worker a init=sleep:1 mode=concurrent
  worker b args=[1] init=sleep:2 mode=concurrent
  worker c init=sleep:1 mode=concurrent
"""


def test_checks_run_once_per_graph(monkeypatch):
    tree = parse_tree(ONCE_TREE)
    calls = {"validate": 0, "cycle search": 0}
    validate, find_cycle = depgraph._validate, DependencyGraph._find_cycle

    def counting_validate(*args):
        calls["validate"] += 1
        return validate(*args)

    def counting_find_cycle(self):
        calls["cycle search"] += 1
        return find_cycle(self)

    monkeypatch.setattr(depgraph, "_validate", counting_validate)
    monkeypatch.setattr(DependencyGraph, "_find_cycle", counting_find_cycle)
    graph = parse_release_graph(ONCE_GRAPH)  # the parse's validation is the one
    graph.validate().append("not a diagnostic")
    assert critical_path(tree, graph) == 3.0
    ConditionStore(graph)
    for _ in range(3):
        result = boot_system(graph, [("app", tree)], clock=VirtualClock())
        assert result.report.duration_ms == 3.0
    assert graph.validate() == [] and graph.cycle_check() is None
    assert calls == {"validate": 1, "cycle search": 1}


def test_returned_check_lists_are_copies():
    bad = DependencyGraph(preconditions=((ModuleKey("m"), ("nope",)),))
    diagnostics = bad.validate()
    assert [d.code for d in diagnostics] == ["unknown-name"]
    diagnostics.clear()
    assert [d.code for d in bad.validate()] == ["unknown-name"]
    with pytest.raises(GraphError):
        bad.require_valid()

    cyclic = parse_release_graph(CYCLE_GRAPH)
    witness = cyclic.cycle_check()
    witness.reverse()
    witness.append(ModuleKey("x"))
    assert [str(k) for k in cyclic.cycle_check()] == ["worker_a", "worker_b"]


# -- properties ---------------------------------------------------------------

_name = st.from_regex(r"[a-z][a-z0-9_]{0,8}", fullmatch=True)
_args = st.one_of(st.none(), st.from_regex(r"\[[a-z0-9_]{1,8}\]", fullmatch=True))


@st.composite
def graphs(draw):
    keys = draw(st.lists(st.tuples(_name, _args), min_size=0, max_size=8,
                         unique=True))
    conditions = tuple(
        (ModuleKey(m, a), f"c{i}") for i, (m, a) in enumerate(keys))
    names = [name for _, name in conditions]
    n_groups = draw(st.integers(0, 3)) if names else 0
    groups = []
    for g in range(n_groups):
        members = tuple(draw(st.lists(st.sampled_from(names), min_size=1,
                                      max_size=4, unique=True)))
        groups.append(ConditionGroup(f"g{g}", members))
    usable = names + [g.name for g in groups]
    pre_keys = draw(st.lists(st.tuples(_name, _args), min_size=0, max_size=5,
                             unique=True))
    preconditions = []
    for m, a in pre_keys:
        if not usable:
            break
        chosen = tuple(draw(st.lists(st.sampled_from(usable), min_size=1,
                                     max_size=4, unique=True)))
        preconditions.append((ModuleKey(m, a), chosen))
    return DependencyGraph(conditions, tuple(groups), tuple(preconditions))


@given(graphs())
@settings(max_examples=60)
def test_serialize_parse_round_trip(graph):
    """Parsing the serialized form yields a structurally equal graph."""
    text = serialize_release_graph(graph)
    assert parse_release_graph(text) == graph
    # and the round trip is a fixed point
    assert serialize_release_graph(parse_release_graph(text)) == text


@given(graphs(), _name, _args)
@settings(max_examples=60)
def test_expansion_contains_no_group_names(graph, module, args):
    expanded = graph.expand_preconditions(ModuleKey(module, args))
    group_names = {g.name for g in graph.groups}
    assert expanded.isdisjoint(group_names)
    assert expanded <= graph.condition_names
    # purity: repeated calls agree
    assert graph.expand_preconditions(ModuleKey(module, args)) == expanded


def _scan_conditions_set_by(graph, module, args):
    """The scan over every condition entry that the index replaced."""
    return {name for key, name in graph.conditions
            if key.module == module and (key.args is None or key.args == args)}


@given(graphs())
@settings(max_examples=60)
def test_conditions_set_by_equals_a_scan_of_the_entries(graph):
    # one module with a wildcard entry and exact entries around it
    both = ((ModuleKey("both", "[1]"), "b1"), (ModuleKey("both"), "b_any"),
            (ModuleKey("both", "[2]"), "b2"), (ModuleKey("both"), "b_any2"))
    graph = DependencyGraph(graph.conditions + both, graph.groups, graph.preconditions)
    modules = {key.module for key, _ in graph.conditions} | {"absent"}
    arg_tokens = {key.args for key, _ in graph.conditions} | {None, "[zz]"}
    for module in sorted(modules):
        for args in sorted(arg_tokens, key=str):
            names = graph.conditions_set_by(module, args)
            assert names == _scan_conditions_set_by(graph, module, args)
            names.add("not a condition")  # each call returns a fresh set
            assert graph.conditions_set_by(module, args) == _scan_conditions_set_by(
                graph, module, args)
    assert graph.conditions_set_by("both", "[1]") == {"b1", "b_any", "b_any2"}
    assert graph.conditions_set_by("both") == {"b_any", "b_any2"}


@given(graphs())
@settings(max_examples=60)
def test_setter_of_equals_a_scan_of_the_entries(graph):
    # exact keys of one module around its wildcard key
    both = ((ModuleKey("both", "[1]"), "b1"), (ModuleKey("both"), "b_any"),
            (ModuleKey("both", "[2]"), "b2"))
    graph = DependencyGraph(graph.conditions + both, graph.groups, graph.preconditions)
    for name in sorted(graph.condition_names | {g.name for g in graph.groups} | {"absent"}):
        scanned = [key for key, declared in graph.conditions if declared == name]
        assert graph.setter_of(name) == (scanned[0] if scanned else None)
    assert graph.setter_of("b1") == ModuleKey("both", "[1]")
    assert graph.setter_of("b_any") == ModuleKey("both")
    assert graph.setter_of("absent") is None


def independent_wait_graph(graph):
    """The module-level wait graph, built the slow way: vertices in
    first-declaration order, each key's closure by a scan over every
    vertex, and out-edges in the order that the preconditions, their
    sorted expanded names, the setter's closure and the waiter's closure
    give them."""
    vertices = []
    for key, _ in graph.conditions + graph.preconditions:
        if key not in vertices:
            vertices.append(key)
    setters = {name: key for key, name in graph.conditions}

    def closure(key):
        return [v for v in vertices
                if v.module == key.module
                and (key.args is None or v.args is None or v.args == key.args)]

    edges = {v: {} for v in vertices}
    for waiter, names in graph.preconditions:
        for cond in sorted(graph.expand_names(names)):
            if cond in setters:
                for src in closure(setters[cond]):
                    for dst in closure(waiter):
                        edges[src][dst] = None
    return vertices, edges


def independent_witness(vertices, edges):
    """The first cycle that a plain recursive three-colour DFS finds,
    written separately from the production code, listed from the vertex
    where the search entered it."""
    WHITE, GREY, BLACK = 0, 1, 2
    color = dict.fromkeys(vertices, WHITE)
    path = []

    def dfs(v):
        color[v] = GREY
        path.append(v)
        for w in edges[v]:
            if color[w] == GREY:
                return path[path.index(w):]
            if color[w] == WHITE and (found := dfs(w)):
                return found
        color[v] = BLACK
        path.pop()
        return None

    for v in vertices:
        if color[v] == WHITE and (found := dfs(v)):
            return found
    return None


@given(graphs())
@settings(max_examples=60)
def test_cycle_check_agrees_with_independent_dfs(graph):
    if any(d.severity == "error" for d in graph.validate()):
        return
    witness = graph.cycle_check()
    vertices, edges = independent_wait_graph(graph)
    assert witness == independent_witness(vertices, edges)
    if witness is not None:
        # the witness must be a real cycle in the wait graph
        for a, b in zip(witness, witness[1:] + witness[:1]):
            assert b in edges[a]


# Module m has exact keys m [0] .. m [4] and a wildcard, declared before,
# between or after them; each case links m to module n so that the search
# meets m's keys in declaration order.
WILDCARD_ORDER_CASES = {
    "exact waits through n": ["n * <- c1", "m [3] <- cn"],
    "wildcard waits through n": ["n * <- c3", "m * <- cn"],
    "exact waits on exact": ["m [1] <- c3"],
    "acyclic": ["n * <- c1, cw"],
}


def wildcard_order_graph(wildcard_at: int, preconditions: list[str]) -> str:
    conditions = [f"m [{i}] -> c{i}" for i in range(5)]
    conditions.insert(wildcard_at, "m * -> cw")
    return "\n".join(["[conditions]", *conditions, "n * -> cn",
                      "[preconditions]", *preconditions]) + "\n"


@pytest.mark.parametrize("wildcard_at", [0, 3, 5], ids=["before", "between", "after"])
@pytest.mark.parametrize("case", list(WILDCARD_ORDER_CASES))
def test_cycle_check_witness_with_the_wildcard_anywhere(wildcard_at, case):
    graph = parse_release_graph(wildcard_order_graph(wildcard_at, WILDCARD_ORDER_CASES[case]))
    witness = graph.cycle_check()
    assert witness == independent_witness(*independent_wait_graph(graph))
    assert (witness is None) == (case == "acyclic")


def test_cycle_check_witness_follows_the_wildcard_position():
    witnesses = {
        at: [str(k) for k in parse_release_graph(wildcard_order_graph(
            at, WILDCARD_ORDER_CASES["exact waits through n"])).cycle_check()]
        for at in (0, 3, 5)}
    assert witnesses == {0: ["m", "n"], 3: ["n", "m"], 5: ["n", "m"]}


def wide_module_graph(k: int) -> DependencyGraph:
    """One module m with k exact keys and a wildcard among them; n [i]
    waits on the condition of m [i], so the graph is acyclic and the
    search visits every key."""
    conditions = [(ModuleKey("m", f"[{i}]"), f"c{i}") for i in range(k)]
    conditions.insert(k // 2, (ModuleKey("m"), "cw"))
    preconditions = [(ModuleKey("n", f"[{i}]"), (f"c{i}",)) for i in range(k)]
    return DependencyGraph(tuple(conditions), (), tuple(preconditions))


def test_cycle_check_time_grows_linearly_with_the_keys_of_a_module():
    def cpu_seconds(k: int) -> float:
        graph = wide_module_graph(k)
        times = []
        for _ in range(3):
            fresh = DependencyGraph(graph.conditions, graph.groups, graph.preconditions)
            t0 = time.process_time()
            assert fresh.cycle_check() is None
            times.append(time.process_time() - t0)
        return min(times)

    # 4x the keys: a linear search costs about 4x, the per-key scan of
    # the whole module that this replaced about 16x.
    ratio = cpu_seconds(16_000) / cpu_seconds(4_000)
    assert ratio < 8, f"cycle_check at 16 000 keys took {ratio:.1f}x its time at 4 000"


if __name__ == "__main__":
    # Regenerate the witness golden (only for an intended change of witness):
    #     PYTHONPATH=src python tests/test_depgraph.py
    WITNESS_GOLDEN.write_text(
        "".join(witness_line(seed) + "\n" for seed in WITNESS_SEEDS), encoding="utf-8")
