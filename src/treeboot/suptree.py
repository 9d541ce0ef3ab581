"""Supervision-tree runtime with dependency-gated, optionally concurrent starts.

Supervisors start their children strictly in order, each child
acknowledging (ack) once its startup finished.  A child tagged
``concurrent`` is started through a *wrapper* supervisor instead: the
wrapper acks its parent immediately, hands the real start to a one-shot
starter task, and later *attaches* the started child.  Crashes of the
attached child terminate the wrapper, which never restarts: the slot's
parent decides, so the original restart policy still applies to the slot
— the tree shape and the restart semantics survive parallelization.

Every worker and supervisor start is bracketed by the condition store:
wait for preconditions immediately before init, publish the completed
conditions immediately after.  A start enters the store only for what its
key's start plan holds: with no needs it traces its non-waiting
``wait_begin``/``wait_end`` pair without a wait, and with no sets it
publishes nothing.

Threading model: sequential children run inline in their supervisor's
thread (a blocked sequential child blocks the whole chain, by design);
a new thread exists only per fork point.  All shared state is guarded by
the clock's coordination lock.

The start loop: one call of ``Runtime._start`` starts a node and its whole
sequential subtree without recursing.  It keeps an explicit stack with one
frame per node that has started but not yet acked (the node, its siblings
list and its next child slot).  The loop starts the top node's next child
slot in order (through a wrapper when the slot is concurrent), acks a node
once its last slot started, retries a failed child against its parent's
restart budget, and, once that budget is spent, terminates the parent's
subtree and unwinds the failure to the frame below.  Crash handling walks
up the tree in a loop too, so a tree of any depth starts, restarts and
escalates.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from itertools import combinations
from operator import itemgetter
from typing import Callable, Iterator

from .condsrv import ConditionStore
from .depgraph import DependencyGraph
from .errors import DeadlockError, QuiescenceTimeout, StartupError, TreeError
from .tracing import TraceEvent, _has_whitespace

__all__ = [
    "InitModel",
    "SupervisorFlags",
    "ChildSpec",
    "Node",
    "Runtime",
    "StartupReport",
    "CrashOutcome",
    "Violation",
    "start_supervisor",
    "run_worker_lifecycle",
    "await_quiescence",
    "inject_crash",
    "wrap_concurrent",
    "check_trace",
    "parse_tree",
    "serialize_tree",
]

WRAPPER_SUFFIX = "#wrap"
_INIT_KINDS = ("none", "sleep", "busy", "fail", "call")


@dataclass(frozen=True)
class InitModel:
    """Simulated (or user-supplied) init work for a node.

    kinds: ``none`` (free), ``sleep`` (timed, non-CPU-bound), ``busy``
    (timed CPU burn that releases the interpreter lock, so lanes really
    compete for cores), ``fail`` (always raises), ``call`` (run ``fn``).
    Only ``sleep`` and ``busy`` take a duration, and only ``call`` an ``fn``.
    """

    kind: str = "none"
    duration_ms: float = 0.0
    fn: Callable[[str | None], None] | None = None

    def __post_init__(self):
        if self.kind not in _INIT_KINDS:
            raise ValueError(f"unknown init kind {self.kind!r}")
        if not 0.0 <= self.duration_ms < math.inf:
            raise ValueError(f"init duration {self.duration_ms!r} is not finite and >= 0")
        if self.kind == "call" and not callable(self.fn):
            raise ValueError(f"a call init needs a callable fn, not {self.fn!r}")
        if self.kind != "call" and self.fn is not None:
            raise ValueError(f"a {self.kind} init takes no fn")
        if self.duration_ms and self.kind not in ("sleep", "busy"):
            raise ValueError(f"a {self.kind} init takes no duration")

    @staticmethod
    def sleep(duration_ms: float) -> "InitModel":
        return InitModel("sleep", duration_ms)

    @staticmethod
    def busy(duration_ms: float) -> "InitModel":
        return InitModel("busy", duration_ms)

    @staticmethod
    def call(fn: Callable[[str | None], None]) -> "InitModel":
        return InitModel("call", 0.0, fn)

    @staticmethod
    def failing() -> "InitModel":
        return InitModel("fail")


@dataclass(frozen=True)
class SupervisorFlags:
    """One-for-one restart budget: at most ``max_restarts`` restarts in
    any ``max_seconds`` window."""

    max_restarts: int = 3
    max_seconds: float = 5.0

    def __post_init__(self):
        if self.max_restarts < 0:
            raise ValueError("max_restarts must be >= 0")
        if not self.max_seconds > 0:  # also rejects nan
            raise ValueError("max_seconds must be > 0")


# Shared by every spec that does not set its own; both are immutable.
_NO_INIT = InitModel()
_DEFAULT_FLAGS = SupervisorFlags()
_bad_id_char = re.compile(r"[\s/#]").search


@dataclass(frozen=True)
class ChildSpec:
    """Extended child specification.

    ``start_mode`` distinguishes a plain sequential start from a
    concurrent (fork point) start; it defaults to sequential.  ``flags``
    is the restart budget a supervisor applies to its children; a worker
    takes none, so only the default is accepted on one.
    """

    id: str
    module: str
    args: str | None = None
    restart: str = "permanent"  # permanent | temporary
    kind: str = "worker"  # worker | supervisor
    start_mode: str = "sequential"  # sequential | concurrent
    init: InitModel = _NO_INIT
    flags: SupervisorFlags = _DEFAULT_FLAGS
    children: tuple["ChildSpec", ...] = ()

    def __post_init__(self):
        # The id is one segment of a node's trace path; module and args are
        # trace detail values.
        if not self.id or _bad_id_char(self.id):
            raise ValueError(f"child id {self.id!r} must be non-empty, without "
                             "whitespace, '/' or '#'")
        if _has_whitespace(self.module):
            raise ValueError(f"module {self.module!r} of child {self.id!r} contains whitespace")
        if self.args is not None and _has_whitespace(self.args):
            raise ValueError(f"args {self.args!r} of child {self.id!r} contains whitespace")
        if self.kind not in ("worker", "supervisor"):
            raise ValueError(f"bad child kind {self.kind!r}")
        if self.start_mode not in ("sequential", "concurrent"):
            raise ValueError(f"bad start_mode {self.start_mode!r}")
        if self.restart not in ("permanent", "temporary"):
            raise ValueError(f"bad restart {self.restart!r}")
        if self.kind == "worker" and self.children:
            raise ValueError(f"worker {self.id!r} cannot have children")
        if (self.kind == "worker" and self.flags is not _DEFAULT_FLAGS  # identity first:
                and self.flags != _DEFAULT_FLAGS):  # a load builds many workers
            raise ValueError(f"worker {self.id!r} takes no restart flags")
        seen = set()
        for child in self.children:
            if child.id in seen:
                raise ValueError(f"duplicate child id {child.id!r} under {self.id!r}")
            seen.add(child.id)

    def walk(self, path: str | None = None
             ) -> Iterator[tuple[str, "ChildSpec", str | None, int]]:
        """Yield (path, spec, parent path, depth) for this spec and every
        descendant in pre-order; this spec's path is ``path`` or its id,
        its parent path None and its depth 0."""
        stack = [(self.id if path is None else path, self, None, 0)]
        while stack:
            item = stack.pop()
            yield item
            node_path, spec, _, depth = item
            if spec.children:
                depth += 1
                stack += [(f"{node_path}/{child.id}", child, node_path, depth)
                          for child in reversed(spec.children)]

    def iter_nodes(self) -> Iterator["ChildSpec"]:
        return (spec for _, spec, _, _ in self.walk())

    # The generated dataclass methods would recurse into ``children`` and
    # fail on deep trees; these compare and hash the pre-order walk, one
    # node's own fields and child count at a time.

    def _own_fields(self) -> tuple:
        return (self.id, self.module, self.args, self.restart, self.kind,
                self.start_mode, self.init, self.flags, len(self.children))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self is other or all(
            a._own_fields() == b._own_fields()
            for a, b in zip(self.iter_nodes(), other.iter_nodes()))

    def __hash__(self):
        return hash(tuple(spec._own_fields() for spec in self.iter_nodes()))

    def __repr__(self):
        own = ", ".join(f"{name}={getattr(self, name)!r}"
                        for name in self.__dataclass_fields__ if name != "children")
        return f"ChildSpec({own}, children=<{len(self.children)}>)"


class Node:
    """A live supervision-tree node (worker, supervisor, or wrapper)."""

    __slots__ = ("path", "spec", "kind", "state", "parent", "children",
                 "restart_times", "_runtime")

    def __init__(self, path, spec, parent, runtime, *, wrapper=False):
        self.path = path
        self.spec = spec
        self.kind = "wrapper" if wrapper else spec.kind  # worker | supervisor | wrapper
        self.state = "starting"  # starting | running | terminated
        self.parent = parent
        self.children: list[Node] = []
        self.restart_times: list[float] | tuple = ()  # a list from the first restart on
        self._runtime = runtime

    def walk(self, *, live: bool = False) -> list["Node"]:
        """This node and its descendants, each before its children and the
        last child first; ``live`` skips terminated children's subtrees."""
        order, stack = [], [self]
        while stack:
            node = stack.pop()
            order.append(node)
            stack.extend([c for c in node.children if c.state != "terminated"]
                         if live else node.children)
        return order

    def find(self, path: str) -> "Node | None":
        return next((node for node in self.walk() if node.path == path), None)

    def shape(self):
        """Nested (id-ish, kind, children) tuples of live nodes."""
        shapes: dict[Node, tuple] = {}
        for node in reversed(self.walk(live=True)):
            shapes[node] = (node.path.rsplit("/", 1)[-1], node.kind,
                            tuple(shapes.pop(c) for c in node.children
                                  if c.state != "terminated"))
        return shapes[self]

    def __repr__(self):
        return f"<Node {self.path} {self.kind} {self.state}>"


@dataclass(frozen=True)
class StartupReport:
    duration_ms: float
    node_count: int
    wrapper_count: int


@dataclass(frozen=True)
class CrashOutcome:
    """Decision cascade after a crash: (supervisor path, decision) hops,
    innermost supervisor first."""

    hops: tuple[tuple[str, str], ...] = ()

    @property
    def final(self) -> str:
        return self.hops[-1][1] if self.hops else "noop"


class Runtime:
    """Executes supervision trees against a condition store.

    One Runtime per run.  ``force_sequential`` downgrades every concurrent
    tag (the baseline measurement configuration).
    """

    def __init__(self, store: ConditionStore, *, force_sequential: bool = False):
        self.store = store
        self.clock = store.clock
        self.trace = store.trace
        self.force_sequential = force_sequential
        self.roots: list[Node] = []
        self._outstanding = 0  # concurrent starts not yet attached/failed
        self._failure: BaseException | None = None
        self._acked_paths: set[str] = set()  # every declared node and wrapper that acked
        self._t0: float | None = None
        self._quiescent = self.clock.waiter()  # woken once starts settle or fail
        self._last_done_ms = 0.0

    # -- public surface ---------------------------------------------------

    def start_supervisor(self, flags: SupervisorFlags, children: tuple[ChildSpec, ...],
                         *, path: str = "root", module: str | None = None,
                         args: str | None = None) -> Node:
        spec = ChildSpec(
            id=path.rsplit("/", 1)[-1], module=module or path, args=args,
            kind="supervisor", flags=flags, children=tuple(children),
        )
        return self.start_tree(spec, path=path)

    def start_tree(self, spec: ChildSpec, *, path: str | None = None) -> Node:
        """Start a root node; blocks until it acked.  Raises StartupError
        when its start fails, DeadlockError when a wait was aborted, and
        ValueError, before any event, when ``path`` is empty or holds
        whitespace."""
        full_path = path if path is not None else spec.id
        if not full_path or _has_whitespace(full_path):  # the node field of its events
            raise ValueError(f"root path {full_path!r} must be non-empty, without whitespace")
        if self._t0 is None:
            self._t0 = self.clock.now()
        with self.clock.attached():
            node, ok = self._start(None, spec, full_path, self.roots)
        if not ok:
            raise StartupError(f"root {full_path} failed to start", full_path)
        return node

    def await_quiescence(self, timeout_ms: float | None = None) -> StartupReport:
        """Block until every node acked and every concurrent attach
        finished; returns the startup timing report.  One caller at a time:
        the last starter to finish wakes only the latest caller."""
        check_quiescence_timeout(timeout_ms)
        with self.clock.attached():
            with self.clock.cond:
                deadline = None if timeout_ms is None else self.clock.now() + timeout_ms
                while self._outstanding and self._failure is None:
                    self._quiescent = self.clock.waiter()
                    if not self.clock.wait(self._quiescent, deadline) and self._failure is None:
                        nodes, _ = self._acked_counts()
                        raise QuiescenceTimeout(
                            f"startup incomplete after {timeout_ms:g} ms: "
                            f"{nodes} node(s) acked, "
                            f"{self._outstanding} concurrent start(s) outstanding",
                            nodes, self._outstanding,
                        )
                if self._failure is not None:
                    raise self._failure
                t0 = self._t0 if self._t0 is not None else 0.0
                return StartupReport(self._last_done_ms - t0, *self._acked_counts())

    def inject_crash(self, node: Node) -> CrashOutcome:
        """Terminate a running node and let its supervisor react."""
        with self.clock.attached():
            with self.clock.cond:
                if node.state == "terminated":
                    return CrashOutcome()
                self._emit("crash", node.path, reason="injected")
                self._terminate_subtree(node, None)
            hops: list[tuple[str, str]] = []
            if node.parent is not None:
                self._handle_child_exit(node.parent, node, hops)
            else:
                with self.clock.cond:
                    self._fail(StartupError(f"root {node.path} crashed", node.path))
            return CrashOutcome(tuple(hops))

    # -- lifecycle ----------------------------------------------------------

    def _start(self, parent: Node | None, spec: ChildSpec, path: str,
               siblings: list[Node] | None) -> tuple[Node, bool]:
        """Start one node and its sequential subtree in this thread.

        Returns (node, ok): ok once the node acked; a failed start has
        taken the node out of ``siblings`` again.  ``siblings`` is None for
        a wrapper's child: it joins the wrapper only when it attaches.

        ``stack`` holds a frame (node, siblings, next child slot) for each
        ancestor of the current node that started but has not acked; they
        are all still ok, since only an ok node starts a child.
        """
        stack: list[tuple[Node, list[Node] | None, int]] = []
        node, ok = self._begin(parent, spec, path, siblings)
        slot = 0
        while True:
            children = node.spec.children
            if ok and slot < len(children):
                child_spec = children[slot]
                if child_spec.start_mode == "concurrent" and not self.force_sequential:
                    self.wrap_concurrent(node, child_spec)
                    slot += 1
                    continue
                stack.append((node, siblings, slot))
                siblings, slot = node.children, 0
                node, ok = self._begin(node, child_spec, f"{node.path}/{child_spec.id}",
                                       siblings)
                continue
            with self.clock.cond:
                if ok:
                    node.state = "running"
                    self._ack(node.path)
                elif siblings is not None and node in siblings:
                    siblings.remove(node)
            if not stack:
                return node, ok
            node, siblings, slot = stack.pop()
            if ok:
                slot += 1
                continue
            # Retry the failed slot against this node's budget, or fail it.
            with self.clock.cond:
                ok = self._allow_restart(node)
                if not ok:
                    self._terminate_subtree(node, "child-start-failure")

    def _begin(self, parent: Node | None, spec: ChildSpec, path: str,
               siblings: list[Node] | None) -> tuple[Node, bool]:
        """Create a node, register it in ``siblings``, request its start and
        run wait -> init -> publish conditions; ok is False when the init
        failed."""
        node = Node(path, spec, parent, self)
        plan = self.store.plan(spec.module, spec.args)
        emit, now = self.trace.emit, self.clock.now
        if siblings is not None:
            with self.clock.cond:
                siblings.append(node)
        emit(now(), "start_request", path)
        if plan.needs:
            self.store.wait_for_conditions(spec.module, spec.args, node=path)
        else:
            self.store.emit_no_wait(plan, path)
        emit(now(), "init_begin", path, plan.detail)
        try:
            self._run_init(spec.init, spec.args)
        except Exception as exc:
            with self.clock.cond:
                self._emit("crash", path, reason=f"init-failure:{type(exc).__name__}")
                node.state = "terminated"
            return node, False
        emit(now(), "init_end", path, plan.detail)
        if plan.sets:
            self.store.set_condition(spec.module, spec.args, node=path)
        return node, True

    def _run_init(self, init: InitModel, args: str | None) -> None:
        if init.kind == "sleep":
            self.clock.sleep(init.duration_ms)
        elif init.kind == "busy":
            self.clock.busy(init.duration_ms)
        elif init.kind == "fail":
            raise RuntimeError("simulated init failure")
        elif init.kind == "call":
            init.fn(args)

    def wrap_concurrent(self, parent: Node, spec: ChildSpec) -> Node:
        """Insert the wrapper: ack the parent now, start the child in a
        detached one-shot starter task, attach on completion."""
        child_path = f"{parent.path}/{spec.id}"
        wrapper_path = child_path + WRAPPER_SUFFIX
        wrapper = Node(wrapper_path, spec, parent, self, wrapper=True)
        with self.clock.cond:
            parent.children.append(wrapper)
            self._outstanding += 1
        self._emit("start_request", wrapper_path)
        with self.clock.cond:
            wrapper.state = "running"
            self._ack(wrapper_path)

        def starter():
            try:
                node, ok = self._start(wrapper, spec, child_path, None)
                with self.clock.cond:
                    if wrapper.state == "terminated":
                        # The wrapper went down with its parent during the
                        # start: the child follows it and never attaches.
                        self._terminate_subtree(node, "parent-terminated")
                        return
                    if ok:
                        wrapper.children.append(node)
                        self._emit("attach", wrapper_path, child=child_path)
                        self._last_done_ms = max(self._last_done_ms, self.clock.now())
                        return
                    wrapper.state = "terminated"
                    self._emit("terminate", wrapper_path, reason="child-start-failure")
                self._handle_child_exit(parent, wrapper, [], start_failed=True)
            except BaseException as exc:  # a deadlock, or defensive: surface, never hang
                with self.clock.cond:
                    if isinstance(exc, DeadlockError) and wrapper.state != "terminated":
                        wrapper.state = "terminated"
                        self._emit("terminate", wrapper_path, reason="deadlock")
                    self._fail(exc)
            finally:
                with self.clock.cond:
                    self._outstanding -= 1
                    if not self._outstanding:
                        self.clock.wake(self._quiescent)

        self.clock.spawn(starter, name=f"starter:{child_path}")
        return wrapper

    # -- crash handling -------------------------------------------------------

    def _handle_child_exit(self, sup: Node, child: Node, hops: list, *,
                           start_failed: bool = False) -> None:
        """Apply ``sup``'s policy to its exited ``child``: remove a temporary
        child, restart the slot within the budget, or escalate to sup's
        parent (failing the run at a root).  A wrapper never restarts: the
        slot's parent decides.  A restart that fails to start is handled the
        same way, without recording its decisions in ``hops``.  A failed
        start (``start_failed``) is retried within the budget even for a
        temporary child; a crash of one removes it."""
        while True:
            with self.clock.cond:
                if sup.state == "terminated":
                    return
                if child in sup.children:
                    sup.children.remove(child)
                if sup.kind == "wrapper":
                    restart = False
                elif child.spec.restart == "temporary" and not start_failed:
                    hops.append((sup.path, "removed"))
                    return
                else:
                    restart = self._allow_restart(sup)
                hops.append((sup.path, "restarted" if restart else "escalated"))
                if not restart:
                    self._terminate_subtree(sup, "restart-budget-exhausted")
            if restart:
                spec = child.spec
                if spec.start_mode == "concurrent" and not self.force_sequential:
                    self.wrap_concurrent(sup, spec)
                    return
                child, ok = self._start(sup, spec, f"{sup.path}/{spec.id}", sup.children)
                if ok:
                    return
                hops, start_failed = [], True
            elif sup.parent is None:
                with self.clock.cond:
                    self._fail(StartupError(f"root {sup.path} terminated", sup.path))
                return
            else:
                sup, child, start_failed = sup.parent, sup, False

    def _allow_restart(self, sup: Node) -> bool:
        # Budget: at most max_restarts restarts per max_seconds window.
        now = self.clock.now()
        window = sup.spec.flags.max_seconds * 1000.0
        sup.restart_times = [t for t in sup.restart_times if now - t < window]
        if len(sup.restart_times) < sup.spec.flags.max_restarts:
            sup.restart_times.append(now)
            return True
        return False

    def _terminate_subtree(self, node: Node, reason: str | None) -> None:
        """Terminate ``node`` and its live descendants, each after its
        children in child order; a terminated child's subtree is skipped.
        ``node``'s own ``terminate`` is traced with ``reason``, and not at
        all when it is None."""
        for current in reversed(node.walk(live=True)):
            if current.state != "terminated":
                current.state = "terminated"
                if current is not node:
                    self._emit("terminate", current.path, reason="parent-terminated")
                elif reason is not None:
                    self._emit("terminate", current.path, reason=reason)

    # -- bookkeeping ------------------------------------------------------------

    def _fail(self, exc: BaseException) -> None:
        if self._failure is None:
            self._failure = exc
        self.clock.wake(self._quiescent)

    def _acked_counts(self) -> tuple[int, int]:
        """(declared nodes, wrappers) that acked, each path counted once."""
        wrappers = sum(1 for path in self._acked_paths if path.endswith(WRAPPER_SUFFIX))
        return len(self._acked_paths) - wrappers, wrappers

    def _ack(self, path: str) -> None:
        event = self.trace.emit(self.clock.now(), "ack", path)
        self._acked_paths.add(path)
        self._last_done_ms = max(self._last_done_ms, event.ts)

    def _emit(self, kind: str, node: str, **detail) -> TraceEvent:
        return self.trace.emit(self.clock.now(), kind, node, **detail)


# -- operation-style entry points ------------------------------------------


def start_supervisor(flags: SupervisorFlags, children, store: ConditionStore,
                     *, path: str = "root", module: str | None = None,
                     args: str | None = None, force_sequential: bool = False) -> Node:
    """Start a supervisor with the given children; returns after its ack."""
    runtime = Runtime(store, force_sequential=force_sequential)
    return runtime.start_supervisor(flags, tuple(children), path=path,
                                    module=module, args=args)


def run_worker_lifecycle(spec: ChildSpec, store: ConditionStore,
                         *, path: str | None = None) -> bool:
    """Run a single worker's start: wait, init, publish, ack.

    True on ack; False when the init failed (crash traced, no conditions
    published).  A watchdog abort raises :class:`DeadlockError`; a ``path``
    that is empty or holds whitespace raises ValueError before any event.
    """
    try:
        Runtime(store).start_tree(spec, path=path)
    except StartupError:
        return False
    return True


def check_quiescence_timeout(timeout_ms: float | None) -> None:
    """A quiescence timeout is None (no limit) or a finite number >= 0."""
    if timeout_ms is not None and not 0 <= timeout_ms < math.inf:
        raise ValueError(f"quiescence timeout must be >= 0 and finite, not {timeout_ms!r}")


def await_quiescence(root: Node, timeout_ms: float | None = None) -> StartupReport:
    return root._runtime.await_quiescence(timeout_ms)


def inject_crash(node: Node) -> CrashOutcome:
    return node._runtime.inject_crash(node)


def wrap_concurrent(parent: Node, spec: ChildSpec) -> Node:
    """Start a concurrent-tagged child of a running supervisor through a
    wrapper; returns the wrapper, which has already acked."""
    if spec.start_mode != "concurrent":
        raise ValueError(f"child {spec.id!r} is not tagged concurrent")
    return parent._runtime.wrap_concurrent(parent, spec)


# -- trace checking -----------------------------------------------------------


@dataclass(frozen=True)
class Violation:
    code: str
    message: str
    seqs: tuple[int, ...] = ()

    def render(self) -> str:
        refs = f" (events {', '.join(map(str, self.seqs))})" if self.seqs else ""
        return f"{self.code}: {self.message}{refs}"


_LIFECYCLE_ORDER = ("start_request", "wait_begin", "wait_end",
                    "init_begin", "init_end", "condition_set", "ack")
# the codes of the lifecycle pairs that have their own; any other is event-order
_ORDER_CODES = {("wait_end", "init_begin"): "wait-before-init",
                ("init_end", "condition_set"): "set-after-init"}
# every in-order selection of lifecycle kinds; check_trace's per-node dict
# holds its kinds in the seq order of their first events, so a node whose
# kinds come in one of these orders breaks no lifecycle order
_IN_ORDER = frozenset(chain for n in range(len(_LIFECYCLE_ORDER) + 1)
                      for chain in combinations(_LIFECYCLE_ORDER, n))


def check_trace(events: list[TraceEvent], graph: DependencyGraph, tree) -> list[Violation]:
    """Verify one run's trace against the declared tree and graph.

    Empty list means every checked rule holds: per-node lifecycle
    bracketing, precondition safety, sibling start ordering, wrapper
    non-blocking, structure preservation, and crash escalation through
    wrappers.  ``tree`` is a root ChildSpec or a list of (prefix, root)
    pairs.  One pass in seq order indexes the trace per node, as kind ->
    first event; one walk per root applies each rule at its node.
    """
    forest = [("", tree)] if isinstance(tree, ChildSpec) else tree
    # node -> {kind -> its first event}; first condition_set per
    # condition; last terminate per node
    by_node: dict[str, dict[str, TraceEvent]] = {}
    first_set: dict[str, TraceEvent] = {}
    last_terminate: dict[str, int] = {}
    for event in sorted(events, key=itemgetter(0)):  # stable: equal seqs keep input order
        seq, _, kind, node, _ = event
        firsts = by_node.get(node)
        if firsts is None:
            by_node[node] = {kind: event}
        elif kind not in firsts:
            firsts[kind] = event
        if kind == "condition_set":
            name = event.get("condition")
            if name is not None and name not in first_set:
                first_set[name] = event
        elif kind == "terminate":
            last_terminate[node] = seq

    if not events and forest:
        return [Violation("missing-events", "trace is empty but the tree declares nodes")]

    # every node the trace names; the walk removes the declared ones
    undeclared = set(by_node)
    undeclared.discard("-")
    wrappers_present = any(node.endswith(WRAPPER_SUFFIX) for node in undeclared)
    # a key needs a condition only when a precondition entry names its
    # module, the same test its start plan makes
    start_plan, waiting_modules = graph.start_plan, graph._precondition_modules
    no_events: dict[str, TraceEvent] = {}
    # (rule group, path, violation); the groups, in output order: 0 structure,
    # 1 lifecycle, 2 preconditions, 3 sibling order, 4 wrappers
    found: list[tuple[int, str, Violation]] = []

    def add(group: int, path: str, code: str, message: str, *seqs: int) -> None:
        found.append((group, path, Violation(code, message, seqs)))

    def check_lifecycle(path: str) -> dict[str, TraceEvent]:
        undeclared.discard(path)
        firsts = by_node.get(path, no_events)
        if tuple(firsts) not in _IN_ORDER:
            chain = [firsts[kind] for kind in _LIFECYCLE_ORDER if kind in firsts]
            for left, right in zip(chain, chain[1:]):
                if left.seq > right.seq:
                    add(1, path, _ORDER_CODES.get((left.kind, right.kind), "event-order"),
                        f"{path}: {right.kind} precedes {left.kind}", right.seq, left.seq)
        if "ack" not in firsts:
            add(1, path, "missing-events", f"{path} never acked")
        return firsts

    last_slot: dict[str, str] = {}  # parent path -> slot of its latest child walked
    for prefix, root in forest:
        for path, spec, parent, _ in root.walk(f"{prefix}/{root.id}" if prefix else None):
            firsts = check_lifecycle(path)

            # precondition safety: every needed condition set before init_begin
            init_begin = firsts.get("init_begin")
            if init_begin is not None and spec.module in waiting_modules:
                for name in sorted(start_plan(spec.module, spec.args).needs):
                    setter = first_set.get(name)
                    if setter is None:
                        add(2, path, "unsatisfied-precondition",
                            f"{path} ran init but condition {name} was never set",
                            init_begin.seq)
                    elif setter.seq > init_begin.seq:
                        add(2, path, "unsatisfied-precondition",
                            f"{path} ran init before condition {name} was set",
                            init_begin.seq, setter.seq)
            if parent is None:
                continue

            # wrapper rules: immediate ack, attach present, crash escalation
            slot, slot_firsts = path, firsts
            if wrappers_present and spec.start_mode == "concurrent":
                slot = path + WRAPPER_SUFFIX
                slot_firsts = check_lifecycle(slot)
                wrapper_ack = slot_firsts.get("ack")
                child_init_end = firsts.get("init_end")
                if (spec.init.duration_ms > 0 and wrapper_ack and child_init_end
                        and wrapper_ack.seq > child_init_end.seq):
                    add(4, path, "wrapper-blocked",
                        f"{slot} acked only after {path} finished init",
                        wrapper_ack.seq, child_init_end.seq)
                attach = slot_firsts.get("attach")
                child_crash = firsts.get("crash")
                if attach is None and child_crash is None:
                    add(4, path, "missing-attach", f"{slot} never attached {path}")
                if attach is not None and child_crash is not None \
                        and child_crash.seq > attach.seq \
                        and last_terminate.get(slot, -1) <= child_crash.seq:
                    add(4, path, "wrapper-survived-crash",
                        f"{slot} did not terminate after {path} crashed", child_crash.seq)

            # sibling order: the older slot's ack precedes this slot's start_request
            older = last_slot.get(parent)
            last_slot[parent] = slot
            left_ack = by_node.get(older, no_events).get("ack")
            right_req = slot_firsts.get("start_request")
            if left_ack and right_req and left_ack.seq > right_req.seq:
                add(3, parent, "sequential-order",
                    f"{slot} was requested before sibling {older} acked",
                    right_req.seq, left_ack.seq)

    for node in undeclared:
        add(0, node, "structure-mismatch", f"trace mentions undeclared node {node}")
    found.sort(key=lambda item: item[:2])  # stable: keeps each path's own order
    return [violation for _, _, violation in found]


# -- tree description files ---------------------------------------------------
#
# One node per line, two-space indentation per level::
#
#     sup root module=app1_rootsup restarts=3/5
#       worker server1 module=generic_server args=[app1_server1] init=sleep:50
#       worker server2 module=generic_server args=[app1_server2] mode=concurrent
#
# keys: module= args=([tok] or *), restart=permanent|temporary,
# init=none|sleep:<ms>|busy:<ms>|fail, mode=sequential|concurrent,
# restarts=<max>/<seconds> (supervisors only).  A root takes no restart=
# and no mode=: nothing restarts or forks it.  A number is what float()
# or int() reads from ASCII text without '_'.


def _number(text: str, convert):
    """``convert(text)`` for ASCII text without ``_``: ``float`` and ``int``
    also read ``1_0`` and other scripts' digits, which the format does not."""
    if not text.isascii() or "_" in text:
        raise ValueError(f"number {text!r} holds '_' or a non-ASCII character")
    return convert(text)


def _parse_init(token: str, line: int) -> InitModel:
    if token == "none":
        return _NO_INIT
    if token == "fail":
        return InitModel.failing()
    for prefix, maker in (("sleep:", InitModel.sleep), ("busy:", InitModel.busy)):
        if token.startswith(prefix):
            try:
                return maker(_number(token[len(prefix):], float))
            except ValueError:
                raise TreeError(f"bad init duration in {token!r}", line) from None
    raise TreeError(f"unknown init model {token!r}", line)


def parse_tree(text: str) -> ChildSpec:
    """Parse a tree description file into its root ChildSpec.

    One pass reads each line into a node's fields and its parent; the
    specs are then built bottom-up, so ``ChildSpec`` checks every node.
    """
    # Every node in file order, parents before children: its ChildSpec
    # fields other than children, its children's indexes and its line.
    nodes: list[tuple[tuple, list[int], int]] = []
    stack: list[tuple[int, str, str, list[int]]] = []  # open nodes: depth, id, kind, children
    inits: dict[str, InitModel] = {}  # init token -> its model, for this call

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.partition("#")[0]
        tokens = line.split()
        if not tokens:
            continue
        indent = len(line) - len(line.lstrip(" "))
        if line[indent].isspace():
            raise TreeError(f"indentation must be spaces, found {line[indent]!r}", lineno)
        if indent % 2 != 0:
            raise TreeError("indentation must be multiples of two spaces", lineno)
        depth = indent // 2
        kind_tok = tokens[0]
        if kind_tok not in ("sup", "worker") or len(tokens) < 2:
            raise TreeError(f"expected 'sup <id>' or 'worker <id>', got {line.strip()!r}",
                            lineno)
        node_id = module = tokens[1]
        kind = "supervisor" if kind_tok == "sup" else "worker"
        args, restart, start_mode, init, flags = (
            None, "permanent", "sequential", _NO_INIT, _DEFAULT_FLAGS)
        for token in tokens[2:]:
            key, eq, value = token.partition("=")
            if not eq:
                raise TreeError(f"expected key=value, got {token!r}", lineno)
            if key == "module":
                module = value
            elif key == "args":
                args = None if value == "*" else value
            elif key == "restart":
                if depth == 0:
                    raise TreeError("restart= is for children only", lineno)
                restart = value
            elif key == "init":
                init = inits.get(value)
                if init is None:
                    init = inits[value] = _parse_init(value, lineno)
            elif key == "mode":
                if value not in ("sequential", "concurrent"):
                    raise TreeError(f"bad mode {value!r}", lineno)
                if depth == 0:
                    raise TreeError("mode= is for children only", lineno)
                start_mode = value
            elif key == "restarts":
                if kind != "supervisor":
                    raise TreeError("restarts= is for supervisors only", lineno)
                try:
                    max_restarts, max_seconds = value.split("/", 1)
                    flags = SupervisorFlags(_number(max_restarts, int),
                                            _number(max_seconds, float))
                except ValueError:
                    raise TreeError(f"expected restarts=<max>/<seconds>, got {value!r}",
                                    lineno) from None
            else:
                raise TreeError(f"unknown key {key!r}", lineno)

        while stack and stack[-1][0] >= depth:
            stack.pop()
        if depth == 0:
            if nodes:
                raise TreeError("multiple top-level nodes; a tree has one root", lineno)
        else:
            if not stack:
                raise TreeError("indented node without a parent", lineno)
            _, parent_id, parent_kind, siblings = stack[-1]
            if parent_kind != "supervisor":
                raise TreeError(f"worker {parent_id!r} cannot have children", lineno)
            siblings.append(len(nodes))
        children: list[int] = []
        stack.append((depth, node_id, kind, children))
        nodes.append(((node_id, module, args, restart, kind, start_mode, init, flags),
                      children, lineno))

    if not nodes:
        raise TreeError("empty tree file")

    # Built in reverse file order, every child's spec is ready before its
    # parent's, with no recursion on deep trees.
    specs: list[ChildSpec | None] = [None] * len(nodes)
    for index in range(len(nodes) - 1, -1, -1):
        fields, children, line = nodes[index]
        try:
            specs[index] = ChildSpec(*fields, tuple([specs[c] for c in children]))
        except ValueError as exc:
            raise TreeError(str(exc), line) from None
    return specs[0]


def serialize_tree(spec: ChildSpec) -> str:
    """Render a ChildSpec tree back into the file format."""
    lines: list[str] = []
    for _, node, _, depth in spec.walk():
        parts = ["sup" if node.kind == "supervisor" else "worker", node.id]
        if node.module != node.id:
            parts.append(f"module={node.module}")
        if node.args is not None:
            parts.append(f"args={node.args}")
        if node.restart != "permanent":
            parts.append(f"restart={node.restart}")
        if node.init.kind in ("sleep", "busy"):
            parts.append(f"init={node.init.kind}:{node.init.duration_ms:g}")
        elif node.init.kind == "fail":
            parts.append("init=fail")
        if node.start_mode != "sequential":
            parts.append(f"mode={node.start_mode}")
        if node.flags != _DEFAULT_FLAGS:
            parts.append(f"restarts={node.flags.max_restarts}/{node.flags.max_seconds:g}")
        lines.append("  " * depth + " ".join(parts))
    return "\n".join(lines) + "\n"
