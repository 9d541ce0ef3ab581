"""Exception types shared across the package."""

from __future__ import annotations


class TreebootError(Exception):
    """Base class for all package errors."""


class GraphError(TreebootError):
    """A dependency graph failed to parse or validate.

    Carries the full diagnostic list so callers can report every problem,
    not just the first one.
    """

    def __init__(self, diagnostics):
        self.diagnostics = list(diagnostics)
        lines = "; ".join(d.render() for d in self.diagnostics)
        super().__init__(f"invalid dependency graph: {lines}")


class ParseError(TreebootError):
    """An input file failed to parse; ``line`` is where, when known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        where = f" (line {line})" if line is not None else ""
        super().__init__(f"{message}{where}")


class TreeError(ParseError):
    """A supervision-tree description file failed to parse."""


class ReleaseError(ParseError):
    """A release file failed to parse."""


class BootRefusedError(TreebootError):
    """Boot was refused because the dependency graph has a cycle."""

    def __init__(self, cycle):
        self.cycle = list(cycle)
        path = " -> ".join(str(k) for k in self.cycle)
        super().__init__(f"dependency cycle, refusing to boot: {path}")


class DeadlockError(TreebootError):
    """The deadlock watchdog aborted one or more blocked waits."""

    def __init__(self, report):
        self.report = report
        super().__init__(f"startup deadlock: {report.summary()}")


class StartupError(TreebootError):
    """A supervision tree failed to start (restart budget exhausted)."""

    def __init__(self, message: str, node_path: str | None = None):
        self.node_path = node_path
        super().__init__(message)


class QuiescenceTimeout(TreebootError):
    """await_quiescence gave up before the tree finished starting."""

    def __init__(self, message: str, acked: int, outstanding: int):
        self.acked = acked
        self.outstanding = outstanding
        super().__init__(message)


class TraceFormatError(TreebootError):
    """A trace file could not be parsed back into events."""


class ClockStalledError(TreebootError):
    """Virtual time cannot advance: every thread is blocked and no timer
    is pending.  Indicates a wait without a deadline, i.e. a runtime bug."""
