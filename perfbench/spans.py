"""Spans around the calls into treeboot's layers, recorded from outside the package.

While :meth:`Tracer.patched` is active, the public methods named in
``Tracer._targets`` are replaced on their classes by timing wrappers, so
every call the runtime makes into the clock, the condition store and the
trace sink is recorded without any change to ``src/``.  A span holds its
name, parent, thread, wall bounds and the thread's CPU-clock bounds.  A
span opened on a thread started through ``clock.spawn`` has that
``clock.spawn`` span as its parent.

Self time is a span's time minus what its children on the same thread
cover, read on the thread's CPU clock: with the interpreter lock and two
cores, wall time double counts threads that are parked, while thread CPU
time is the host time the call really executed.  Time a clock call spends
parked is its wall time minus its CPU time.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import defaultdict
from contextlib import contextmanager

import treeboot as tb

_perf = time.perf_counter_ns
_cpu = time.thread_time_ns
_ident = threading.get_ident

BOOT_SPAN = "boot.boot_system"  # the benchmark's own call into the runtime
THREAD_SPAN = "suptree.starter"  # the runtime's body of a spawned thread
_PARKING = ("clock.sleep", "clock.wait")


class Tracer:
    """Spans and counts of one boot at a time; not reentrant."""

    def __init__(self):
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Condition()
        self._reset()

    def _reset(self) -> None:
        # (id, parent id, name, thread id, wall t0, wall t1, cpu c0, cpu c1)
        self.spans: list[tuple] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._live = 0
        self._peak = 0

    # -- span recording -----------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self) -> tuple:
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1] if stack else 0
        stack.append(sid)
        # Wall bounds enclose CPU bounds, so parked time never reads < 0.
        return sid, parent, _perf(), _cpu()

    def _close(self, name: str, sid: int, parent: int, t0: int, c0: int) -> None:
        c1 = _cpu()
        t1 = _perf()
        self._stack().pop()
        self.spans.append((sid, parent, name, _ident(), t0, t1, c0, c1))

    def _timed(self, name: str, fn):
        def traced(*args, **kwargs):
            span = self._open()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(name, *span)

        return traced

    def _count(self, **deltas: float) -> None:
        with self._lock:
            for key, delta in deltas.items():
                self.counts[key] += delta

    # -- wrappers with counts -----------------------------------------------

    def _wait_for_conditions(self, orig):
        timed = self._timed("condsrv.wait", orig)

        def wait_for_conditions(store, *args, **kwargs):
            report = timed(store, *args, **kwargs)
            self._count(**{"condsrv.wait.blocked": 1 if report.conditions_waited_on else 0,
                           "condsrv.wait.waited_ms": report.waited_ms})
            return report

        return wait_for_conditions

    def _set_condition(self, orig):
        timed = self._timed("condsrv.set", orig)

        def set_condition(store, *args, **kwargs):
            # Holding the store's lock across both reads makes the waiter
            # count the one set_condition sees.
            with store.clock.cond:
                blocked = store.blocked_count
                flipped = timed(store, *args, **kwargs)
            if flipped:
                self._count(**{"condsrv.set.flips": len(flipped),
                               "condsrv.waiter_scans": blocked})
            return flipped

        return set_condition

    def _spawn(self, orig):
        def spawn(clock, fn, name):
            span = self._open()

            def body():
                with self._lock:
                    self._live += 1
                    self._peak = max(self._peak, self._live)
                try:
                    self._local.stack = [span[0]]  # parent: this clock.spawn span
                    self._timed(THREAD_SPAN, fn)()
                finally:
                    with self._lock:
                        self._live -= 1
                        self._lock.notify_all()

            try:
                return orig(clock, body, name)
            finally:
                self._close("clock.spawn", *span)

        return spawn

    def _targets(self):
        for cls in (tb.VirtualClock, tb.WallClock):
            yield cls, "sleep", lambda f: self._timed("clock.sleep", f)
            yield cls, "wait", lambda f: self._timed("clock.wait", f)
            yield cls, "spawn", self._spawn
        yield tb.ConditionStore, "wait_for_conditions", self._wait_for_conditions
        yield tb.ConditionStore, "set_condition", self._set_condition
        yield tb.TraceSink, "emit", lambda f: self._timed("tracing.emit", f)

    @contextmanager
    def patched(self):
        """Trace every call into the layers while the block runs."""
        originals = []
        try:
            for cls, attr, wrap in self._targets():
                orig = cls.__dict__[attr]
                originals.append((cls, attr, orig))
                setattr(cls, attr, wrap(orig))
            yield
        finally:
            for cls, attr, orig in reversed(originals):
                setattr(cls, attr, orig)

    def boot(self, boot_system, *args, **kwargs):
        """Run one boot under tracing; returns (result, layer metrics, spans).

        Waits until every spawned thread has closed its spans, because the
        runtime reports quiescence before its starter threads return."""
        self._reset()
        self._local.stack = []
        with self.patched():
            try:
                result = self._timed(BOOT_SPAN, boot_system)(*args, **kwargs)
            finally:
                with self._lock:
                    self._lock.wait_for(lambda: self._live == 0, timeout=5.0)
        counts = dict(self.counts)
        counts["clock.threads_peak"] = self._peak
        return result, layer_metrics(self.spans, counts), self.spans


def layer_metrics(spans: list[tuple], counts: dict[str, float]) -> dict[str, float]:
    """Per-layer numbers of one traced boot."""
    thread_of = {span[0]: span[3] for span in spans}
    child_cpu: dict[int, int] = defaultdict(int)
    for _, parent, _, tid, _, _, c0, c1 in spans:
        if parent and thread_of.get(parent) == tid:
            child_cpu[parent] += c1 - c0

    calls: dict[str, int] = defaultdict(int)
    self_cpu: dict[str, int] = defaultdict(int)
    parked_ns = 0
    thread_cpu = 0
    for sid, _, name, _, t0, t1, c0, c1 in spans:
        calls[name] += 1
        cpu = c1 - c0 - child_cpu[sid]
        self_cpu[name] += cpu
        if name in _PARKING:  # no traced call runs inside these
            parked_ns += (t1 - t0) - cpu
        if name in (BOOT_SPAN, THREAD_SPAN):
            thread_cpu += c1 - c0

    out = {
        "tracing.emit.calls": calls["tracing.emit"],
        "tracing.emit.self_us": self_cpu["tracing.emit"] / 1e3,
        "tracing.emit.share": self_cpu["tracing.emit"] / thread_cpu if thread_cpu else 0.0,
        "clock.spawn.calls": calls["clock.spawn"],
        "clock.threads_peak": counts.get("clock.threads_peak", 0),
        "clock.parked_ms": parked_ns / 1e6,
        "suptree.self_ms": (self_cpu[BOOT_SPAN] + self_cpu[THREAD_SPAN]) / 1e6,
    }
    for layer in ("clock.sleep", "clock.wait", "condsrv.wait", "condsrv.set"):
        out[f"{layer}.calls"] = calls[layer]
        out[f"{layer}.self_us"] = self_cpu[layer] / 1e3
    for key in ("condsrv.wait.blocked", "condsrv.wait.waited_ms",
                "condsrv.set.flips", "condsrv.waiter_scans"):
        out[key] = counts.get(key, 0)
    return out
