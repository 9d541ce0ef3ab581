"""Release-level startup: condition server first, then each application.

A release file lists the dependency graph and the applications in start
order::

    release demo
    graph system.rgraph
    app app1 app1.tree
    app app2 app2.tree

Applications are always started sequentially relative to each other (each
root supervisor is awaited before the next starts); concurrency lives
inside the trees via child start modes.  The condition store is always
constructed before anything else so every application can reach it.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from .clock import Clock, WallClock
from .condsrv import DEFAULT_DEADLOCK_TIMEOUT_MS, ConditionStore
from .depgraph import DependencyGraph, parse_release_graph
from .errors import BootRefusedError, ReleaseError
from .suptree import (ChildSpec, Node, Runtime, StartupReport, check_quiescence_timeout,
                      parse_tree)
from .tracing import TraceSink, _has_whitespace

__all__ = [
    "Release",
    "SystemRef",
    "BootResult",
    "parse_release",
    "boot",
    "boot_system",
    "read_input",
]


@dataclass(frozen=True)
class Release:
    """A parsed release: ``applications`` is the forest, (name, root spec)
    pairs in start order, that :func:`boot_system` and ``check_trace``
    take."""

    name: str
    graph_path: str
    applications: tuple[tuple[str, ChildSpec], ...]


@dataclass(frozen=True)
class SystemRef:
    """Handle to a booted system for inspection and fault injection."""

    runtime: Runtime
    store: ConditionStore
    trace: TraceSink
    roots: tuple[Node, ...]

    def find(self, path: str) -> Node | None:
        for root in self.roots:
            found = root.find(path)
            if found is not None:
                return found
        return None


@dataclass(frozen=True)
class BootResult:
    system: SystemRef
    per_app_ms: tuple[tuple[str, float], ...]
    report: StartupReport


def read_input(path: str | Path, what: str = "file", line: int | None = None) -> str:
    """An input file as text.

    ReleaseError ``<what> not found`` when ``path`` does not exist, and
    ``not UTF-8 text`` when it does not decode; ``line`` is the release
    line that names it, if any.  Any other OSError, such as reading a
    directory, propagates.
    """
    try:
        return Path(path).read_text(encoding="utf-8")
    except (FileNotFoundError, NotADirectoryError):
        raise ReleaseError(f"{what} not found: {path}", line) from None
    except UnicodeDecodeError as exc:
        raise ReleaseError(f"{path} is not UTF-8 text: byte {exc.start}", line) from None


def parse_release(source: str, *, base_dir: str | Path = ".") -> Release:
    """Parse a release file, loading each referenced tree file."""
    base = Path(base_dir)
    name: str | None = None
    graph_path: str | None = None
    apps: list[tuple[str, ChildSpec]] = []
    seen_apps: set[str] = set()

    for lineno, raw in enumerate(source.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if tokens[0] == "release" and len(tokens) == 2:
            if name is not None:
                raise ReleaseError("duplicate release line", lineno)
            name = tokens[1]
        elif tokens[0] == "graph" and len(tokens) == 2:
            if graph_path is not None:
                raise ReleaseError("duplicate graph line", lineno)
            graph_path = tokens[1]
        elif tokens[0] == "app" and len(tokens) == 3:
            app_name, tree_path = tokens[1], tokens[2]
            if app_name in seen_apps:
                raise ReleaseError(f"duplicate application name {app_name!r}", lineno)
            seen_apps.add(app_name)
            root = parse_tree(read_input(base / tree_path, "tree file", lineno))
            apps.append((app_name, root))
        else:
            raise ReleaseError(f"expected 'release', 'graph' or 'app' line, got {line!r}",
                               lineno)

    if graph_path is None:
        raise ReleaseError("missing graph line")
    return Release(name or "release", graph_path, tuple(apps))


def boot_system(
    graph: DependencyGraph,
    apps,
    *,
    mode: str = "as-specified",
    clock: Clock | None = None,
    deadlock_timeout_ms: float = DEFAULT_DEADLOCK_TIMEOUT_MS,
    trace: TraceSink | None = None,
    allow_cycles: bool = False,
    quiescence_timeout_ms: float | None = None,
) -> BootResult:
    """Boot applications (an iterable of (name, root ChildSpec)) over a graph.

    The graph must validate; a cyclic wait graph refuses to boot unless
    ``allow_cycles`` (the knob that exists to demonstrate runtime deadlock
    detection).  ``mode="sequential"`` downgrades every concurrent tag.
    A repeated application name, or one that is empty or holds whitespace
    or '/', raises ValueError before anything starts.
    Raises DeadlockError / StartupError when the run fails.
    """
    if mode not in ("as-specified", "sequential"):
        raise ValueError(f"bad mode {mode!r}")
    apps = list(apps)
    seen_apps: set[str] = set()
    for app_name, _ in apps:
        if not app_name or "/" in app_name or _has_whitespace(app_name):
            raise ValueError(f"application name {app_name!r} must be non-empty, "
                             "without whitespace or '/'")
        if app_name in seen_apps:
            raise ValueError(f"duplicate application name {app_name!r}")
        seen_apps.add(app_name)
    check_quiescence_timeout(quiescence_timeout_ms)
    graph.require_valid()
    cycle = graph.cycle_check()
    if cycle is not None and not allow_cycles:
        raise BootRefusedError(cycle)

    clock = clock if clock is not None else WallClock()
    trace = trace if trace is not None else TraceSink()
    store = ConditionStore(graph, deadlock_timeout_ms=deadlock_timeout_ms,
                           clock=clock, trace=trace)
    runtime = Runtime(store, force_sequential=(mode == "sequential"))

    per_app: list[tuple[str, float]] = []
    with clock.attached():
        for app_name, root_spec in apps:
            started = clock.now()
            runtime.start_tree(root_spec, path=f"{app_name}/{root_spec.id}")
            per_app.append((app_name, clock.now() - started))
        report = runtime.await_quiescence(quiescence_timeout_ms)

    system = SystemRef(runtime, store, trace, tuple(runtime.roots))
    return BootResult(system, tuple(per_app), report)


def boot(release: Release, *, base_dir: str | Path = ".", **options) -> BootResult:
    """Boot a parsed release: load + validate its graph, then boot_system
    with ``options``."""
    graph = parse_release_graph(read_input(Path(base_dir) / release.graph_path, "graph file"))
    return boot_system(graph, release.applications, **options)
