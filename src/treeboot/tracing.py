"""Startup lifecycle trace events and their line-oriented wire format.

One event per line, stable field order::

    <seq> <ts> <kind> <node> [key=value ...]

``seq`` is a global monotonic emission counter (the tie-breaker for equal
timestamps) in decimal digits, ``ts`` is clock time in milliseconds,
written ``%.6f`` and finite, ``node`` is the slash-separated path of the
emitting node (``-`` when the event is not tied to a node).  Detail
values are whitespace-free tokens; a ``key=value`` token splits at its
first ``=``.

A detail that many events share can be checked once with
:func:`prepare_detail` and passed to :meth:`TraceSink.emit` ahead of the
event's own keyword details.
"""

from __future__ import annotations

import itertools
import re
from operator import itemgetter
from typing import NamedTuple

from .errors import TraceFormatError

__all__ = ["EVENT_KINDS", "TraceEvent", "TraceSink", "PreparedDetail", "prepare_detail",
           "prepare_key_detail", "format_event", "parse_trace"]

EVENT_KINDS = frozenset(
    {
        "start_request",
        "wait_begin",
        "wait_end",
        "init_begin",
        "init_end",
        "condition_set",
        "ack",
        "attach",
        "crash",
        "terminate",
        "deadlock",
    }
)


# For str patterns ``\s`` matches exactly the characters for which
# ``str.isspace()`` is true.
_has_whitespace = re.compile(r"\s").search


class PreparedDetail(tuple):
    """Checked ``(key, value)`` detail pairs; only :func:`prepare_detail`
    and :func:`prepare_key_detail` make one, and ``+`` joins two.
    Compares equal to the plain tuple of the same pairs."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        raise TypeError("a PreparedDetail is made by prepare_detail()")

    def __add__(self, other):
        # Two checked details join into a checked one; anything else joins
        # into a plain tuple, which emit does not take as prepared.
        joined = tuple.__add__(self, other)
        if other.__class__ is PreparedDetail:
            return tuple.__new__(PreparedDetail, joined)
        return joined


def _checked_items(detail: dict) -> tuple[tuple[str, str], ...]:
    items = []
    for k, v in detail.items():
        if v is not None:
            if v.__class__ is not str:
                v = str(v)
            if _has_whitespace(v):
                raise ValueError(f"trace detail {k}={v!r} contains whitespace")
            items.append((k, v))
    return tuple(items)


def prepare_detail(**detail: object) -> PreparedDetail:
    """Check an event detail once, for any number of :meth:`TraceSink.emit`
    calls: ``None`` values are dropped, the others ``str()``-ed, and a
    value with whitespace raises ValueError."""
    return tuple.__new__(PreparedDetail, _checked_items(detail))


def prepare_key_detail(module: str, args: str | None) -> PreparedDetail:
    """``prepare_detail(module=module, args=args)`` for ``str`` values,
    with one whitespace search over both."""
    if _has_whitespace(module if args is None else module + args):
        prepare_detail(module=module, args=args)  # raises, naming the bad key
    pairs = (("module", module),) if args is None else (("module", module), ("args", args))
    return tuple.__new__(PreparedDetail, pairs)


_NO_DETAIL = prepare_detail()


class TraceEvent(NamedTuple):
    """One immutable trace record; a tuple of its five fields."""

    seq: int
    ts: float
    kind: str
    node: str
    detail: tuple[tuple[str, str], ...] = ()

    def get(self, key: str, default: str | None = None) -> str | None:
        for k, v in self.detail:
            if k == key:
                return v
        return default


_seq_of = itemgetter(0)


class TraceSink:
    """Append-only, thread-safe event collector.

    Ordering rule: one atomic counter gives each event its ``seq``, and one
    ``list.append`` stores it; ``emit`` takes no lock.  Under CPython's
    interpreter lock, ``next()`` on an ``itertools.count`` and
    ``list.append`` each run as one C call that no other thread interleaves
    with, so seqs are unique and gap-free and no append is lost.  A thread
    can be switched out between taking its seq and appending, so events
    from different threads may be stored slightly out of seq order; one
    thread's events are stored in its own program order.  The readers
    (:attr:`events`, :meth:`to_lines`) therefore sort by seq, which costs
    O(n) on input that is already in order.  A read made while another
    thread is inside ``emit`` may miss that thread's event, as a read just
    before the call would.  An interpreter without that lock (a
    free-threaded build) would need a lock in ``emit`` again.
    """

    def __init__(self):
        self._events: list[TraceEvent] = []
        self._seq = itertools.count()

    def emit(self, ts: float, kind: str, node: str, prepared: PreparedDetail = _NO_DETAIL,
             /, **detail: object) -> TraceEvent:
        """Append one event; its detail is ``prepared`` followed by
        ``detail``, whose values are checked as :func:`prepare_detail` does."""
        if kind not in EVENT_KINDS:
            raise ValueError(f"unknown trace event kind: {kind!r}")
        if prepared.__class__ is not PreparedDetail and prepared != ():
            raise TypeError("prepared trace detail must come from prepare_detail(), "
                            f"not {prepared!r}")
        items = prepared + _checked_items(detail) if detail else prepared
        # tuple.__new__ skips the Python-level NamedTuple constructor.
        event = tuple.__new__(TraceEvent, (next(self._seq), ts, kind, node, items))
        self._events.append(event)
        return event

    @property
    def events(self) -> list[TraceEvent]:
        events = self._events.copy()
        events.sort(key=_seq_of)
        return events

    def __len__(self) -> int:
        return len(self._events)

    def to_lines(self) -> list[str]:
        return _format_lines(self.events)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for line in self.to_lines():
                fh.write(line + "\n")


def _format_lines(events) -> list[str]:
    """Format events as trace lines, each distinct detail once per call."""
    details: dict[tuple, str] = {(): ""}
    lines = []
    for seq, ts, kind, node, detail in events:
        text = details.get(detail)
        if text is None:
            text = details[detail] = "".join([" %s=%s" % pair for pair in detail])
        lines.append("%d %.6f %s %s%s" % (seq, ts, kind, node, text))
    return lines


def format_event(event: TraceEvent) -> str:
    return _format_lines((event,))[0]


def parse_trace(lines) -> list[TraceEvent]:
    """Parse trace lines back into events; inverse of :func:`format_event`.

    ``seq`` must be ASCII decimal digits and ``ts`` a finite float
    written in ASCII without ``_``; a detail token splits at its first
    ``=``.  Blank lines and lines starting with ``#`` are skipped; any
    other bad line raises TraceFormatError naming its line number.
    """
    events: list[TraceEvent] = []
    # detail text -> parsed detail; only texts whose every token parsed
    details: dict[str, tuple[tuple[str, str], ...]] = {}
    stamps: dict[str, float] = {}  # ts text -> its value; only texts that passed
    new = tuple.__new__
    for lineno, raw in enumerate(lines, start=1):
        fields = raw.split(None, 4)
        if not fields or fields[0].startswith("#"):
            continue
        if len(fields) < 4:
            raise TraceFormatError(
                f"line {lineno}: expected 'seq ts kind node', got {raw.strip()!r}")
        seq, ts_text = fields[0], fields[1]
        ts = stamps.get(ts_text)
        if ts is None:
            try:
                ts = float(ts_text)
            except ValueError:
                pass
            # ts - ts is 0.0 for every finite float and nan for nan and the
            # infinities; float() also reads '_' and other scripts' digits.
            if ts is not None and ts - ts == 0.0 and ts_text.isascii() and "_" not in ts_text:
                stamps[ts_text] = ts
            else:
                ts = None
        if not (seq.isdigit() and seq.isascii() and ts is not None):
            raise TraceFormatError(f"line {lineno}: bad seq/ts in {raw.strip()!r}")
        kind = fields[2]
        if kind not in EVENT_KINDS:
            raise TraceFormatError(f"line {lineno}: unknown event kind {kind!r}")
        if len(fields) == 4:
            detail = ()
        else:
            text = fields[4]
            detail = details.get(text)
            if detail is None:
                pairs = []
                for tok in text.split():
                    k, eq, v = tok.partition("=")
                    if not eq:
                        raise TraceFormatError(f"line {lineno}: bad detail token {tok!r}")
                    pairs.append((k, v))
                detail = details[text] = tuple(pairs)
        events.append(new(TraceEvent, (int(seq), ts, kind, fields[3], detail)))
    return events
