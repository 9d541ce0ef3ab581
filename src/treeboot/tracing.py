"""Startup lifecycle trace events and their line-oriented wire format.

One event per line, stable field order::

    <seq> <ts> <kind> <node> [key=value ...]

``seq`` is a global monotonic emission counter (the tie-breaker for equal
timestamps), ``ts`` is clock time in milliseconds, ``node`` is the
slash-separated path of the emitting node (``-`` when the event is not
tied to a node).  Detail values are whitespace-free tokens.

A detail that many events share can be checked once with
:func:`prepare_detail` and passed to :meth:`TraceSink.emit` ahead of the
event's own keyword details.
"""

from __future__ import annotations

import re
import threading
from typing import NamedTuple

from .errors import TraceFormatError

__all__ = ["EVENT_KINDS", "TraceEvent", "TraceSink", "PreparedDetail", "prepare_detail",
           "format_event", "parse_trace"]

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
    makes one, and ``+`` joins two.  Compares equal to the plain tuple of
    the same pairs."""

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


class TraceSink:
    """Append-only, thread-safe event collector."""

    def __init__(self):
        self._lock = threading.Lock()
        self._events: list[TraceEvent] = []
        self._seq = 0

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
        with self._lock:
            # tuple.__new__ skips the Python-level NamedTuple constructor.
            event = tuple.__new__(TraceEvent, (self._seq, ts, kind, node, items))
            self._seq += 1
            self._events.append(event)
        return event

    @property
    def events(self) -> list[TraceEvent]:
        with self._lock:
            return list(self._events)

    def __len__(self) -> int:
        with self._lock:
            return len(self._events)

    def to_lines(self) -> list[str]:
        return [format_event(e) for e in self.events]

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for line in self.to_lines():
                fh.write(line + "\n")


def format_event(event: TraceEvent) -> str:
    parts = [str(event.seq), format(event.ts, ".6f"), event.kind, event.node]
    parts.extend(f"{k}={v}" for k, v in event.detail)
    return " ".join(parts)


def parse_trace(lines) -> list[TraceEvent]:
    """Parse trace lines back into events; inverse of :func:`format_event`."""
    events: list[TraceEvent] = []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if len(fields) < 4:
            raise TraceFormatError(f"line {lineno}: expected 'seq ts kind node', got {line!r}")
        try:
            seq = int(fields[0])
            ts = float(fields[1])
        except ValueError:
            raise TraceFormatError(f"line {lineno}: bad seq/ts in {line!r}") from None
        kind, node = fields[2], fields[3]
        if kind not in EVENT_KINDS:
            raise TraceFormatError(f"line {lineno}: unknown event kind {kind!r}")
        detail = []
        for tok in fields[4:]:
            if "=" not in tok:
                raise TraceFormatError(f"line {lineno}: bad detail token {tok!r}")
            k, v = tok.split("=", 1)
            detail.append((k, v))
        events.append(TraceEvent(seq, ts, kind, node, tuple(detail)))
    return events
