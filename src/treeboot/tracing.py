"""Startup lifecycle trace events and their line-oriented wire format.

One event per line, stable field order::

    <seq> <ts> <kind> <node> [key=value ...]

``seq`` is a global monotonic emission counter (the tie-breaker for equal
timestamps), ``ts`` is clock time in milliseconds, ``node`` is the
slash-separated path of the emitting node (``-`` when the event is not
tied to a node).  Detail values are whitespace-free tokens.
"""

from __future__ import annotations

import re
import threading
from typing import NamedTuple

from .errors import TraceFormatError

__all__ = ["EVENT_KINDS", "TraceEvent", "TraceSink", "format_event", "parse_trace"]

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
# ``str.isspace()`` is true, so one search over the joined detail values
# finds any whitespace in any of them.
_WHITESPACE = re.compile(r"\s")


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

    def emit(self, ts: float, kind: str, node: str, **detail: object) -> TraceEvent:
        if kind not in EVENT_KINDS:
            raise ValueError(f"unknown trace event kind: {kind!r}")
        items = tuple([(k, v if v.__class__ is str else str(v))
                       for k, v in detail.items() if v is not None])
        if items and _WHITESPACE.search("".join([v for _, v in items])):
            for k, v in items:
                if _WHITESPACE.search(v):
                    raise ValueError(f"trace detail {k}={v!r} contains whitespace")
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
