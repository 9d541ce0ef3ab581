"""Trace event sink and its line format."""

from __future__ import annotations

import sys
import threading

import pytest

from treeboot import (ChildSpec, DependencyGraph, TraceFormatError, VirtualClock, boot_system,
                      parse_trace)
from treeboot.tracing import PreparedDetail, TraceSink, format_event, prepare_detail

from gensys import random_system


def test_emit_assigns_monotonic_seq():
    sink = TraceSink()
    a = sink.emit(0.0, "start_request", "root")
    b = sink.emit(1.0, "ack", "root")
    assert (a.seq, b.seq) == (0, 1)
    assert len(sink) == 2


def test_concurrent_emits_keep_seq_and_program_order():
    """Emits from many threads at once, with the interpreter asked to
    switch threads every microsecond: no seq is lost or repeated, the
    readers return seq order, and each thread's events keep the order it
    emitted them."""
    threads_n, per_thread = 8, 2_000
    sink = TraceSink()
    returned: dict[str, list] = {}

    def emitter(name: str) -> None:
        returned[name] = [sink.emit(float(i), "ack", name, n=i) for i in range(per_thread)]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=emitter, args=(f"t{k}",)) for k in range(threads_n)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads) and len(returned) == threads_n
    total = threads_n * per_thread
    events = sink.events
    assert len(sink) == len(events) == total
    assert [e.seq for e in events] == list(range(total))
    for name, mine in returned.items():
        ordered = [e for e in events if e.node == name]
        assert ordered == mine  # program order is seq order
        assert [e.get("n") for e in ordered] == [str(i) for i in range(per_thread)]
    lines = sink.to_lines()
    assert [int(line.split(" ", 1)[0]) for line in lines] == list(range(total))
    assert parse_trace(lines) == events


def test_round_trip_through_lines():
    sink = TraceSink()
    sink.emit(0.0, "wait_begin", "app/w1", module="m", args="[x]", conditions="a,b")
    sink.emit(12.5, "condition_set", "app/w1", condition="a", module="m")
    sink.emit(12.5, "ack", "app/w1")
    lines = sink.to_lines()
    events = parse_trace(lines)
    assert events == sink.events


def test_detail_none_values_dropped_and_empty_kept():
    sink = TraceSink()
    event = sink.emit(0.0, "wait_begin", "n", module="m", args=None, conditions="")
    assert event.get("args") is None
    assert event.get("conditions") == ""
    parsed = parse_trace([format_event(event)])[0]
    assert parsed.get("conditions") == ""


def test_whitespace_in_detail_rejected():
    sink = TraceSink()
    with pytest.raises(ValueError):
        sink.emit(0.0, "ack", "n", module="bad value")


WHITESPACE = [chr(c) for c in range(sys.maxunicode + 1) if chr(c).isspace()]


@pytest.mark.parametrize("ch", WHITESPACE, ids=lambda ch: f"U+{ord(ch):04X}")
def test_every_isspace_character_rejected(ch):
    sink = TraceSink()
    with pytest.raises(ValueError, match="args="):
        sink.emit(0.0, "ack", "n", module="ok", args=f"bad{ch}value")
    assert len(sink) == 0


def test_non_str_detail_values_format_as_str():
    sink = TraceSink()
    event = sink.emit(0.0, "ack", "n", count=3, ratio=1.5, flag=True, skipped=None)
    assert event.detail == (("count", "3"), ("ratio", "1.5"), ("flag", "True"))
    assert format_event(event) == "0 0.000000 ack n count=3 ratio=1.5 flag=True"


def test_trace_event_is_an_immutable_record():
    event = TraceSink().emit(2.5, "wait_begin", "n", module="m", conditions="a,b")
    assert event == (0, 2.5, "wait_begin", "n", (("module", "m"), ("conditions", "a,b")))
    assert (event.seq, event.ts, event.kind, event.node) == (0, 2.5, "wait_begin", "n")
    assert event.get("conditions") == "a,b" and event.get("args", "-") == "-"
    with pytest.raises(AttributeError):
        event.kind = "ack"


# -- prepared details -------------------------------------------------------


def test_prepared_detail_applies_the_keyword_rules():
    prepared = prepare_detail(module="m", args=None, count=3, conditions="")
    assert prepared == (("module", "m"), ("count", "3"), ("conditions", ""))
    assert isinstance(prepared, PreparedDetail)


@pytest.mark.parametrize("ch", WHITESPACE, ids=lambda ch: f"U+{ord(ch):04X}")
def test_prepare_detail_rejects_every_isspace_character(ch):
    with pytest.raises(ValueError, match="args="):
        prepare_detail(module="ok", args=f"bad{ch}value")


@pytest.mark.parametrize("plain", [(("module", "bad value"),), (("module", "m"),),
                                   [("module", "m")], None])
def test_emit_rejects_a_prepared_detail_that_was_not_prepared(plain):
    sink = TraceSink()
    with pytest.raises(TypeError, match="prepare_detail"):
        sink.emit(0.0, "ack", "n", plain)
    assert len(sink) == 0


def test_prepared_detail_cannot_be_built_around_the_check():
    with pytest.raises(TypeError):
        PreparedDetail((("module", "bad value"),))
    # Concatenation and slicing give plain tuples, which emit rejects.
    prepared = prepare_detail(module="m", args="[x]")
    for derived in (prepared + (("k", "bad value"),), prepared[:1]):
        assert derived.__class__ is tuple
        with pytest.raises(TypeError):
            TraceSink().emit(0.0, "ack", "n", derived)


def test_prepared_then_keyword_detail_keeps_the_keyword_order():
    prepared_sink, keyword_sink = TraceSink(), TraceSink()
    prepared = prepare_detail(module="m", args="[x]")
    a = prepared_sink.emit(1.5, "wait_begin", "n", prepared, conditions="a,b")
    b = keyword_sink.emit(1.5, "wait_begin", "n", module="m", args="[x]", conditions="a,b")
    assert a == b
    assert a.detail == (("module", "m"), ("args", "[x]"), ("conditions", "a,b"))
    assert prepared_sink.to_lines() == keyword_sink.to_lines()
    assert parse_trace(prepared_sink.to_lines()) == prepared_sink.events


def test_keyword_detail_beside_a_prepared_one_is_still_checked():
    sink = TraceSink()
    with pytest.raises(ValueError, match="conditions="):
        sink.emit(0.0, "wait_begin", "n", prepare_detail(module="m"), conditions="a b")
    assert len(sink) == 0


def test_unknown_kind_rejected():
    sink = TraceSink()
    with pytest.raises(ValueError):
        sink.emit(0.0, "nonsense", "n")


def test_parse_trace_skips_comments_and_blanks():
    events = parse_trace(["# header", "", "0 0.000000 ack root"])
    assert len(events) == 1 and events[0].kind == "ack"


@pytest.mark.parametrize("bad", [
    "not enough fields",
    "x 0.0 ack root",
    "0 y ack root",
    "0 0.0 bogus root",
    "0 0.0 ack root detail_without_equals",
    "1_0 0.0 ack root",
    "-3 0.0 ack root",
    "+3 0.0 ack root",
    "\u0661\u0662 0.0 ack root",
    "\u00b2 0.0 ack root",
    "0 nan ack root",
    "0 inf ack root",
    "0 -inf ack root",
    "0 1e400 ack root",
    "0 1_0.000000 ack root",
    "0 \u0661\u0662.000000 ack root",
    "0 1.\u0665 ack root",
    "0 \uff11.000000 ack root",
])
def test_parse_trace_malformed(bad):
    with pytest.raises(TraceFormatError):
        parse_trace([bad])


def test_parse_trace_checks_every_line_whose_detail_it_has_seen():
    good = "0 1.000000 init_begin n module=m args=[x]"
    assert len(parse_trace([good, good.replace("0", "1", 1)])) == 2
    for bad, message in [("1 1.000000 init_begin n module=m args=[x] oops", "bad detail token"),
                         ("1_0 1.000000 init_begin n module=m args=[x]", "bad seq/ts"),
                         ("1 nan init_begin n module=m args=[x]", "bad seq/ts"),
                         ("1 1.000000 bogus n module=m args=[x]", "unknown event kind")]:
        with pytest.raises(TraceFormatError, match=f"^line 2: {message}"):
            parse_trace([good, bad])


# -- the codec on booted traces ----------------------------------------------


def assert_codec_round_trip(sink, tmp_path):
    events = sink.events
    lines = sink.to_lines()
    assert lines == [format_event(event) for event in events]
    assert parse_trace(lines) == events
    sink.write(tmp_path / "run.trace")
    assert (tmp_path / "run.trace").read_text(encoding="utf-8") == "".join(
        line + "\n" for line in lines)


@pytest.mark.parametrize("seed", [3, 9])
@pytest.mark.parametrize("mode", ["sequential", "as-specified"])
def test_codec_round_trips_booted_traces(seed, mode, tmp_path):
    system = random_system(seed)
    graph = system.graph
    assert graph.groups and any(key.args is None for key, _ in graph.conditions)
    assert any(key.args is None for key, _ in graph.preconditions)
    tree = system.tagged_root(all_concurrent=mode == "as-specified")
    result = boot_system(graph, [("sys", tree)], mode=mode, clock=VirtualClock())
    assert result.report.wrapper_count == (0 if mode == "sequential" else
                                           sum(1 for _ in tree.walk()) - 1)
    assert_codec_round_trip(result.system.trace, tmp_path)


def test_codec_keeps_equals_signs_empty_values_and_detail_order(tmp_path):
    tree = ChildSpec(id="r", module="m=r", kind="supervisor", children=(
        ChildSpec(id="a", module="m", args="[k=v]"),
        ChildSpec(id="b", module="m", args="=", start_mode="concurrent"),
        ChildSpec(id="c", module="m"),
    ))
    result = boot_system(DependencyGraph(), [("sys", tree)], clock=VirtualClock())
    sink = result.system.trace
    assert_codec_round_trip(sink, tmp_path)
    waits = {e.node: e for e in sink.events if e.kind == "wait_begin"}
    # prepared module and args, then the keyword conditions; None args dropped
    assert waits["sys/r"].detail == (("module", "m=r"), ("conditions", ""))
    assert waits["sys/r/a"].detail == (("module", "m"), ("args", "[k=v]"), ("conditions", ""))
    assert waits["sys/r/b"].detail == (("module", "m"), ("args", "="), ("conditions", ""))
    assert waits["sys/r/c"].detail == (("module", "m"), ("conditions", ""))
    assert format_event(waits["sys/r/a"]).endswith(" wait_begin sys/r/a module=m args=[k=v] "
                                                   "conditions=")
