"""The condition store: runtime coordination for dependency-gated startup.

Holds the boolean truth value of every declared condition (all false at
the start of a run, monotonically flipped to true), blocks starting
modules until their preconditions hold, and watches for runs that stop
making progress (deadlock).

Threading contract: any number of tasks may call ``set_condition`` and
``wait_for_conditions`` concurrently.  All state is guarded by the clock's
coordination lock.  A blocked start parks on its own clock waiter, which
only its releaser wakes: the flip of its last missing condition, or the
watchdog scan that aborts it.  Release decisions (and their trace events)
are made atomically inside ``set_condition``, so the ``wait_end`` events of
one release come in registration order.  The seq order between threads that
are active at the same virtual instant follows OS scheduling.

Start plans: everything a start of one ``(module, args)`` key needs that
does not change during a run (its expanded preconditions, the conditions
it sets, its checked trace details) is worked out on the key's first start
and kept on the graph (:meth:`DependencyGraph.start_plan`), so every store
over one graph, the supervision runtime, the analytic model and the trace
checker read the same plan.  The supervision runtime, which already
holds the plan, calls the store only for what the plan holds: a start
that needs nothing is traced through :meth:`ConditionStore.emit_no_wait`,
and a key that sets nothing makes no ``set_condition`` call.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

from .clock import Clock, WallClock
from .depgraph import DependencyGraph, ModuleKey, StartPlan
from .errors import DeadlockError
from .tracing import TraceSink, prepare_detail

__all__ = ["WaitReport", "DeadlockReport", "StartPlan", "ConditionStore",
           "DEFAULT_DEADLOCK_TIMEOUT_MS"]

DEFAULT_DEADLOCK_TIMEOUT_MS = 30_000.0


@dataclass(frozen=True)
class WaitReport:
    """Outcome of one wait_for_conditions call."""

    key: ModuleKey
    waited_ms: float
    conditions_waited_on: frozenset[str]


@dataclass(frozen=True)
class DeadlockReport:
    """Snapshot of a run that stopped making progress.

    ``blocked`` lists every waiter alive at detection time with the
    conditions it was still missing (sorted by module key for determinism);
    ``unset_conditions`` is the union of those missing conditions; all of
    them were false when the report was taken.
    """

    blocked: tuple[tuple[ModuleKey, frozenset[str]], ...]
    unset_conditions: frozenset[str]
    elapsed_ms: float

    def summary(self) -> str:
        keys = ", ".join(str(key) for key, _ in self.blocked)
        conds = ", ".join(sorted(self.unset_conditions))
        return (
            f"{len(self.blocked)} waiter(s) blocked [{keys}] "
            f"on unset conditions [{conds}] after {self.elapsed_ms:g} ms"
        )


_NO_CONDITIONS = prepare_detail(conditions="")
_first_use = threading.Lock()


def _no_wait(plan: StartPlan) -> tuple:
    """The plan's ``wait_begin`` detail and ``WaitReport`` of a start that
    does not wait, made on the first such start of the key from any store
    and published in one assignment."""
    with _first_use:
        if plan.no_wait is None:
            plan.no_wait = (plan.detail + _NO_CONDITIONS,
                            WaitReport(plan.key, 0.0, frozenset()))
    return plan.no_wait


def _set_details(plan: StartPlan) -> tuple:
    """The plan's ``condition_set`` details, one per name in ``sets``: the
    condition, then the plan's checked ``module``/``args`` detail.  Made on
    the key's first flip from any store and published in one assignment."""
    with _first_use:
        if plan.set_details is None:
            plan.set_details = tuple(prepare_detail(condition=name) + plan.detail
                                     for name in plan.sets)
    return plan.set_details


class _Waiter:
    __slots__ = ("plan", "node", "unmet", "initial_unmet", "registered_ms",
                 "report", "abort", "wakeup")

    def __init__(self, plan, node, unmet, registered_ms, wakeup):
        self.plan = plan
        self.node = node
        self.unmet = unmet
        self.initial_unmet = frozenset(unmet)
        self.registered_ms = registered_ms
        self.report: WaitReport | None = None
        self.abort: DeadlockReport | None = None
        self.wakeup = wakeup  # the clock waiter this start parks on


class ConditionStore:
    """Truth values plus blocking waits over a validated dependency graph."""

    def __init__(
        self,
        graph: DependencyGraph,
        *,
        deadlock_timeout_ms: float = DEFAULT_DEADLOCK_TIMEOUT_MS,
        clock: Clock | None = None,
        trace: TraceSink | None = None,
    ):
        graph.require_valid()
        if not 0 < deadlock_timeout_ms < math.inf:
            raise ValueError("deadlock timeout must be > 0 and finite, "
                             f"not {deadlock_timeout_ms!r}")
        self.graph = graph
        self.clock = clock if clock is not None else WallClock()
        self.trace = trace if trace is not None else TraceSink()
        self.deadlock_timeout_ms = deadlock_timeout_ms
        self._truth: dict[str, bool] = {name: False for _, name in graph.conditions}
        self._waiters: list[_Waiter] = []
        self._last_progress_ms = self.clock.now()

    # -- observability ---------------------------------------------------

    def snapshot(self) -> dict[str, bool]:
        with self.clock.cond:
            return dict(self._truth)

    @property
    def blocked_count(self) -> int:
        with self.clock.cond:
            return len(self._waiters)

    def plan(self, module: str, args: str | None = None) -> StartPlan:
        """The graph's start plan of (module, args), made on its first use.

        Raises ValueError when ``module`` or ``args`` contains whitespace.
        """
        return self.graph.start_plan(module, args)

    # -- the two runtime entry points -------------------------------------

    def set_condition(self, module: str, args: str | None = None, *, node: str = "-") -> set[str]:
        """Flip every condition (module, args) satisfies; release waiters.

        Returns the set of conditions that transitioned false -> true.
        Idempotent; unknown modules are a no-op by design.
        """
        plan = self.graph.start_plan(module, args)
        details = plan.set_details or _set_details(plan)
        with self.clock.cond:
            now = self.clock.now()
            truth, emit = self._truth, self.trace.emit
            names = []
            for name, detail in zip(plan.sets, details):
                if not truth[name]:
                    truth[name] = True
                    emit(now, "condition_set", node, detail)
                    names.append(name)
            if not names:
                return set()
            flipped = set(names)
            self._last_progress_ms = now
            still_blocked: list[_Waiter] = []
            # _waiters is in registration order: appended under the
            # lock, and only ever filtered in order.
            for waiter in self._waiters:
                waiter.unmet -= flipped
                if waiter.unmet:
                    still_blocked.append(waiter)
                else:
                    self._release(waiter, now)
            self._waiters = still_blocked
            return flipped

    def wait_for_conditions(self, module: str, args: str | None = None, *, node: str = "-") -> WaitReport:
        """Block the calling task until all preconditions of (module, args)
        are true.  Immediate when there are none or all already hold.

        Raises :class:`DeadlockError` when the watchdog aborts the wait.
        """
        plan = self.graph.start_plan(module, args)
        with self.clock.cond:
            unmet = {name for name in plan.needs if not self._truth[name]}
            if not unmet:
                return self.emit_no_wait(plan, node)
            now = self.clock.now()
            self.trace.emit(now, "wait_begin", node, plan.detail,
                            conditions=",".join(sorted(unmet)))
            waiter = _Waiter(plan, node, unmet, now, self.clock.waiter())
            self._waiters.append(waiter)
            while waiter.report is None and waiter.abort is None:
                deadline = max(waiter.registered_ms, self._last_progress_ms) + self.deadlock_timeout_ms
                if not self.clock.wait(waiter.wakeup, deadline):
                    self._scan(self.clock.now())
            if waiter.abort is not None:
                raise DeadlockError(waiter.abort)
            return waiter.report

    # -- deadlock watchdog -------------------------------------------------

    def watchdog_scan(self) -> DeadlockReport | None:
        """Abort and report every blocked wait if some waiter has been
        stuck for a full timeout with no condition flip in that window."""
        with self.clock.cond:
            return self._scan(self.clock.now())

    def _scan(self, now: float) -> DeadlockReport | None:
        if not self._waiters:
            return None
        quiet_since = max(self._last_progress_ms,
                          min(w.registered_ms for w in self._waiters))
        if now - quiet_since < self.deadlock_timeout_ms:
            return None
        waiters = sorted(self._waiters,
                         key=lambda w: (w.plan.module, w.plan.args or ""))
        blocked = tuple((w.plan.key, frozenset(w.unmet)) for w in waiters)
        unset = frozenset().union(*(missing for _, missing in blocked))
        report = DeadlockReport(blocked, unset, now - self._last_progress_ms)
        self.trace.emit(now, "deadlock", "-",
                        blocked=",".join(str(key) for key, _ in blocked))
        for waiter in self._waiters:
            waiter.abort = report
            self.clock.wake(waiter.wakeup)
        self._waiters = []
        return report

    def emit_no_wait(self, plan: StartPlan, node: str) -> WaitReport:
        """Trace a start of ``plan``'s key that does not wait: its
        ``wait_begin``/``wait_end`` pair at the current time, and its report.
        What :meth:`wait_for_conditions` does for a key with no needs, for a
        caller that already holds the plan."""
        detail, report = plan.no_wait or _no_wait(plan)
        now = self.clock.now()
        self.trace.emit(now, "wait_begin", node, detail)
        self.trace.emit(now, "wait_end", node, plan.detail)
        return report

    # -- internals -----------------------------------------------------------

    def _release(self, waiter: _Waiter, now: float) -> None:
        # Emitted here, under the lock and in registration order, so the
        # trace position of wait_end never depends on thread wake-up order.
        waiter.report = WaitReport(
            waiter.plan.key,
            now - waiter.registered_ms,
            waiter.initial_unmet,
        )
        self.trace.emit(now, "wait_end", waiter.node, waiter.plan.detail)
        self.clock.wake(waiter.wakeup)
