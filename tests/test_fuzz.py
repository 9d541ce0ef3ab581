"""Fuzzed inputs: every parser returns a value or its documented error, and
every CLI command returns a documented exit code (0, 1 or 2).

Lines are drawn from tokens of each file format, valid and malformed
alike, so the generated files reach both the checks and the runs.
"""

from __future__ import annotations

import contextlib
import io
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from treeboot import (
    DependencyGraph,
    GraphError,
    Release,
    ReleaseError,
    TraceFormatError,
    TreeError,
    parse_release,
    parse_release_graph,
    parse_trace,
    parse_tree,
)
from treeboot.cli import main
from treeboot.tracing import EVENT_KINDS


def joined_lines(tokens, *, max_lines=10, max_tokens=5):
    line = st.lists(tokens, max_size=max_tokens).map(" ".join)
    return st.lists(line, max_size=max_lines).map("\n".join)


# -- .rgraph files ---------------------------------------------------------------------

_GRAPH_TOKENS = st.sampled_from((
    "[conditions]", "[groups]", "[preconditions]", "[bogus]", "[conditions", "[]",
    "m1", "m2", "lane", "1bad", "*", "[a]", "[b]", "a]", "->", "<-", "=",
    "c1", "c2", "g1", "c1,", "c1, c2", ",", "#", "x y",
))
graph_texts = joined_lines(_GRAPH_TOKENS)
_MODULES = st.sampled_from(("m1", "m2", "a", "b"))
_ARGS = st.sampled_from(("*", "[a]"))
_condition_line = st.builds("{} {} -> {}".format, _MODULES, _ARGS, st.sampled_from(("c1", "c2")))
_precondition_line = st.builds("{} {} <- {}".format, _MODULES, _ARGS,
                               st.sampled_from(("c1", "c2", "c1, c2", "g1")))
# Mostly valid graphs, so that the CLI's runs get past validation.
well_formed_graphs = st.builds(
    lambda conditions, group, preconditions: "\n".join(
        ["[conditions]", "m1 * -> c1", "m2 [a] -> c2", *conditions,
         "[groups]", group, "[preconditions]", *preconditions]),
    st.lists(_condition_line, max_size=1),
    st.sampled_from(("", "g1 = c1", "g1 = c1, c2")),
    st.lists(_precondition_line, max_size=2),
)


@given(graph_texts)
@settings(max_examples=300, deadline=None)
def test_parse_release_graph_returns_graph_or_graph_error(text):
    try:
        graph = parse_release_graph(text)
    except GraphError as exc:
        assert exc.diagnostics
        return
    assert isinstance(graph, DependencyGraph)
    assert graph.validate() == []


# -- tree and release files ------------------------------------------------------------

_TREE_KEYS = st.sampled_from((
    "module=m1", "module=m2", "args=[a]", "args=*", "restart=temporary",
    "restart=bogus", "init=sleep:2", "init=busy:1", "init=fail", "init=none",
    "init=sleep:nan", "mode=concurrent", "mode=parallel", "restarts=1/5",
    "restarts=0/1", "restarts=x", "shutdown=brutal", "junk",
))
_tree_line = st.builds(
    lambda indent, kind, node_id, keys: "  " * indent + " ".join((kind, node_id, *keys)),
    st.integers(0, 3),
    st.sampled_from(("sup", "worker", "sup", "worker", "bogus")),
    st.sampled_from(("a", "b", "c", "d")),
    st.lists(_TREE_KEYS, max_size=3),
)
tree_texts = st.lists(_tree_line, max_size=7).map("\n".join)
# One root supervisor over children one or two levels down.
rooted_tree_texts = st.lists(
    st.builds(lambda line, indent: "  " * indent + line.lstrip(), _tree_line, st.integers(1, 2)),
    max_size=6,
).map(lambda lines: "\n".join(["sup root", *lines]))


def _sup_chain(depths: list[int]) -> list[str]:
    """Lines of a valid tree: each later node at the drawn depth, or one
    below the node before it when that is shallower."""
    lines, depth = ["sup n0"], 0
    for i, wanted in enumerate(depths, start=1):
        depth = min(wanted, depth + 1)
        lines.append(f"{'  ' * depth}sup n{i}")
    return lines


valid_tree_lines = st.lists(st.integers(1, 3), max_size=6).map(_sup_chain)
_odd_indents = st.lists(st.sampled_from((" ", "\t", "\u00a0", "\u2003", "\u3000")),
                        min_size=1, max_size=6).map("".join).filter(lambda s: s.strip(" "))


@given(valid_tree_lines, _odd_indents, st.data())
@settings(max_examples=200, deadline=None)
def test_parse_tree_rejects_indentation_that_is_not_spaces(lines, indent, data):
    """A tab or other whitespace in the indent of any line of a valid tree
    is a TreeError at that line."""
    assert parse_tree("\n".join(lines)).id == "n0"
    lineno = data.draw(st.integers(1, len(lines)))
    lines[lineno - 1] = indent + lines[lineno - 1].lstrip(" ")
    with pytest.raises(TreeError, match="indentation must be spaces") as exc:
        parse_tree("\n".join(lines))
    assert exc.value.line == lineno


_RELEASE_LINES = st.sampled_from((
    "release r", "release", "release r extra", "graph g.rgraph", "graph missing.rgraph",
    "graph", "app a t1.tree", "app b t2.tree", "app a t2.tree", "app c missing.tree",
    "app d", "# comment", "", "junk line",
))
release_texts = st.lists(_RELEASE_LINES, max_size=6).map("\n".join)


@given(release_texts, tree_texts, tree_texts)
@settings(max_examples=200, deadline=None)
def test_parse_release_returns_release_or_documented_error(release, tree1, tree2):
    with tempfile.TemporaryDirectory() as tmp:
        base = Path(tmp)
        (base / "t1.tree").write_text(tree1)
        (base / "t2.tree").write_text(tree2)
        try:
            parsed = parse_release(release, base_dir=base)
        except (ReleaseError, TreeError):
            return
    assert isinstance(parsed, Release)


# -- trace files -----------------------------------------------------------------------

_TRACE_TOKENS = st.one_of(
    st.sampled_from(sorted(EVENT_KINDS)),
    st.sampled_from(("0", "1", "-3", "x", "1.5", "nan", "inf", "1e400", "2.000000",
                     "app/n0", "-", "module=m1", "conditions=", "reason=init-failure",
                     "k=v=w", "=", "novalue", "#", "bogus_kind")),
)
trace_texts = joined_lines(_TRACE_TOKENS, max_tokens=6)


@given(trace_texts)
@settings(max_examples=300, deadline=None)
def test_parse_trace_returns_events_or_trace_format_error(text):
    try:
        events = parse_trace(text.splitlines())
    except TraceFormatError:
        return
    assert all(event.kind in EVENT_KINDS for event in events)


# -- command line ----------------------------------------------------------------------


def run_cli(argv: list[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(argv)


@given(st.one_of(graph_texts, well_formed_graphs), rooted_tree_texts, trace_texts)
@settings(max_examples=100, deadline=None)
def test_cli_exit_codes_are_0_1_or_2(graph, tree, trace):
    with tempfile.TemporaryDirectory() as tmp:
        base = Path(tmp)
        (base / "g.rgraph").write_text(graph)
        (base / "t.tree").write_text(tree)
        (base / "fuzzed.trace").write_text(trace)
        (base / "r.rel").write_text("release r\ngraph g.rgraph\napp a t.tree\n")
        g, t, rel = str(base / "g.rgraph"), str(base / "t.tree"), str(base / "r.rel")
        run_trace = base / "run.trace"
        codes = [
            run_cli(["validate", g]),
            run_cli(["run", rel, "--virtual-clock", "--deadlock-timeout", "50",
                     "--trace", str(run_trace)]),
            run_cli(["check", str(base / "fuzzed.trace"), g, t]),
            run_cli(["check", str(base / "fuzzed.trace"), g, rel]),
        ]
        if run_trace.is_file():
            codes.append(run_cli(["check", str(run_trace), g, rel]))
    assert set(codes) <= {0, 1, 2}, codes
