"""One workload run: its steps, every boot's checks, and the metrics made from them."""

from __future__ import annotations

import gc
import resource
import statistics
import time
from collections import defaultdict

import treeboot as tb

SETUP_REPS = 5  # setup_s is the median of this many set-ups
MIN_BOOTS = 100  # boot_ms.p90 needs ten samples beyond it
MIN_TRACED_BOOTS = 4  # the deterministic counts must repeat across boots
BOOTS_PER_STEP = 2  # boots per load, so fewer of a run's seconds go to loading
SEQ_EVERY = 5  # wall-wide: one sequential boot per this many steps
REF_REPS = 3  # a step's reference time is the median of this many kernel runs
QUIESCENCE_MS = 10_000.0  # clock ms; a boot that hangs fails instead
APP = "app"  # application name every workload boots under

# Which end-to-end metric each per-layer metric should move, and on which
# workload (in brackets: where it should not move).
LAYER_MAP = (
    (("tracing.emit.",), "boot_ref.p50, event_mref", "seq-deep (wall-wide)"),
    (("tracing.format_ms", "tracing.parse_ms"), "verify_ref", "all"),
    (("clock.parked_ms",), "boot_ref.p50, boot_ms.p90, wall_overhead_ms",
     "deps-mesh, fork-deep; wall-wide under the wall clock"),
    (("clock.",), "boot_ref.p50, boot_ms.p90, peak_rss_mb", "deps-mesh, fork-deep (seq-deep: 0 spawns)"),
    (("condsrv.",), "boot_ref.p50", "deps-mesh (seq-deep, fork-deep: empty graph)"),
    (("depgraph.", "suptree.parse_tree_ms"), "load_ref", "deps-mesh"),
    (("suptree.check_trace_ms",), "verify_ref", "all, most on the most events"),
    (("bench.critical_path_ms",), "predict_ref", "all"),
    (("suptree.",), "node_mref", "all"),
    (("trace_overhead",), "(the cost of tracing itself)", "all"),
)

# The end-to-end metrics BENCHMARK.json gates.  Timings but the tail are CPU
# times in units of the reference kernel's CPU time ("ref"; "mref" is a
# thousandth), so that the shared machine's speed swings cancel; the same
# timings in ms, and virtual_ms, wall_overhead_ms, speedup_x and
# fail_ratio, are printed and recorded beside them.
E2E_UNITS = {
    "boot_ref.p50": "ref", "boot_ms.p90": "ms", "node_mref": "mref", "event_mref": "mref",
    "load_ref": "ref", "verify_ref": "ref", "predict_ref": "ref", "peak_rss_mb": "MB",
    "setup_s": "s",
}
LAYER_UNITS = {
    "tracing.emit.calls": "count", "tracing.emit.self_us": "us", "tracing.emit.share": "ratio",
    "tracing.format_ms": "ms", "tracing.parse_ms": "ms",
    "clock.spawn.calls": "count", "clock.threads_peak": "count",
    "clock.sleep.calls": "count", "clock.sleep.self_us": "us",
    "clock.wait.calls": "count", "clock.wait.self_us": "us", "clock.parked_ms": "ms",
    "condsrv.wait.calls": "count", "condsrv.wait.blocked": "count",
    "condsrv.wait.self_us": "us", "condsrv.wait.waited_ms": "ms",
    "condsrv.set.calls": "count", "condsrv.set.flips": "count", "condsrv.set.self_us": "us",
    "condsrv.waiter_scans": "count",
    "depgraph.parse_ms": "ms", "depgraph.validate_ms": "ms", "depgraph.cycle_check_ms": "ms",
    "suptree.parse_tree_ms": "ms", "suptree.check_trace_ms": "ms",
    "bench.critical_path_ms": "ms",
    "suptree.self_ms": "ms", "suptree.nodes": "count", "suptree.wrappers": "count",
    "trace_overhead": "x",
}


def _ms_since(t0_ns: int) -> float:
    return (time.perf_counter_ns() - t0_ns) / 1e6


def _cpu_ms_since(c0_ns: int) -> float:
    """CPU time of every thread of the process since ``c0_ns``."""
    return (time.process_time_ns() - c0_ns) / 1e6


def reference_kernel() -> int:
    """Fixed pure-Python work of the kinds the runtime does (string
    formatting and splitting, tuples, dict lookups, a sort), independent of
    treeboot.  Timed at the start of every step, it measures how fast the
    shared machine runs Python at that moment, which swung by a factor of
    1.7 within 90 s on a two-core host; most gated timings are CPU times in
    its units."""
    rows = []
    table = {}
    for i in range(3000):
        key = f"n{i}/k{i % 7}"
        parts = key.split("/")
        table[key] = (parts[0], len(parts[1]), i * 0.5)
        rows.append(" ".join((str(i), format(i * 0.25, ".6f"), parts[0])))
    rows.sort()
    return sum(len(table.get(line.split()[2] + "/k0", ())) for line in rows)


class Run:
    """Samples, failures and check results of one workload run."""

    def __init__(self, workload, inputs):
        self.inputs = inputs
        self.virtual = workload.clock == "virtual"
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []  # boots that raised
        self.problems: list[str] = []  # failed correctness checks
        self.times: dict[str, list[float]] = defaultdict(list)
        self.layers: dict[str, list[float]] = defaultdict(list)
        # CPU times, each over the reference kernel's CPU time of its step.
        self.relative: dict[str, list[float]] = defaultdict(list)
        self.ref_cpu_ms = 0.0
        self.last_spans: list[tuple] = []
        self._counts: dict[str, dict] = {}
        graph, tree = tb.parse_release_graph(inputs.graph_text), tb.parse_tree(inputs.tree_text)
        self.sequential_ms = tb.critical_path(tree, graph, force_sequential=True)
        self.predicted_ms = tb.critical_path(tree, graph)

    def reset_samples(self) -> None:
        self.times.clear()
        self.layers.clear()
        self.relative.clear()

    def _keep(self, name: str, ms: float, cpu_ms: float) -> None:
        self.times[name].append(ms)
        self.relative[name].append(cpu_ms / self.ref_cpu_ms)

    def step(self, *, sequential: bool = False, tracer=None) -> None:
        """One reference -> load -> predict -> boot -> verify round, every
        boot checked."""
        gc.collect()
        refs, ref_cpus = [], []
        for _ in range(REF_REPS):
            t0, c0 = time.perf_counter_ns(), time.process_time_ns()
            reference_kernel()
            refs.append(_ms_since(t0))
            ref_cpus.append(_cpu_ms_since(c0))
        self.ref_cpu_ms = statistics.median(ref_cpus)
        self.times["ref_ms"].append(statistics.median(refs))
        self.times["ref_cpu_ms"].append(self.ref_cpu_ms)
        graph, tree = self._load()
        t0, c0 = time.perf_counter_ns(), time.process_time_ns()
        try:
            predicted = tb.critical_path(tree, graph)
        except ValueError as exc:
            self.problems.append(f"critical_path refused the workload: {exc}")
            return
        self._keep("bench.critical_path_ms", _ms_since(t0), _cpu_ms_since(c0))
        for _ in range(BOOTS_PER_STEP):
            self._boot(graph, tree, predicted, "concurrent")
            if tracer is not None:
                self._boot(graph, tree, predicted, "traced", tracer)
        if sequential:
            self._boot(graph, tree, self.sequential_ms, "sequential")

    def _load(self):
        times = self.times
        c0 = time.process_time_ns()
        t0 = time.perf_counter_ns()
        graph = tb.parse_release_graph(self.inputs.graph_text)
        t1 = time.perf_counter_ns()
        errors = [d.render() for d in graph.validate() if d.severity == "error"]
        t2 = time.perf_counter_ns()
        cycle = graph.cycle_check()
        t3 = time.perf_counter_ns()
        tree = tb.parse_tree(self.inputs.tree_text)
        t4 = time.perf_counter_ns()
        times["depgraph.parse_ms"].append((t1 - t0) / 1e6)
        times["depgraph.validate_ms"].append((t2 - t1) / 1e6)
        times["depgraph.cycle_check_ms"].append((t3 - t2) / 1e6)
        times["suptree.parse_tree_ms"].append((t4 - t3) / 1e6)
        self._keep("load_ms", (t4 - t0) / 1e6, _cpu_ms_since(c0))
        if errors or cycle is not None:
            self.problems.append(f"load: graph errors {errors[:1]}, cycle {cycle}")
        return graph, tree

    def _boot(self, graph, tree, predicted, kind, tracer=None) -> None:
        clock = tb.VirtualClock() if self.virtual else tb.WallClock()
        args = (graph, [(APP, tree)])
        kwargs = dict(mode="sequential" if kind == "sequential" else "as-specified",
                      clock=clock, quiescence_timeout_ms=QUIESCENCE_MS)
        self.attempted += 1
        # Every boot starts from a collected heap, as in a fresh process; the
        # collector stays on inside the timed boot.
        gc.collect()
        t0, c0 = time.perf_counter_ns(), time.process_time_ns()
        try:
            if tracer is None:
                result = tb.boot_system(*args, **kwargs)
            else:
                result, layer, spans = tracer.boot(tb.boot_system, *args, **kwargs)
        except Exception as exc:  # every failed boot is counted, none dropped
            self.failed += 1
            self.errors.append(f"{kind} boot: {type(exc).__name__}: {exc}")
            return
        boot_ms, boot_cpu_ms = _ms_since(t0), _cpu_ms_since(c0)
        self.times[f"{kind}.boot_ms"].append(boot_ms)
        if kind == "concurrent":
            self.times["boot_cpu_ms"].append(boot_cpu_ms)
            self.relative["boot"].append(boot_cpu_ms / self.ref_cpu_ms)
        report = result.report
        self.times[f"{kind}.duration_ms"].append(report.duration_ms)

        t0, c0 = time.perf_counter_ns(), time.process_time_ns()
        lines = result.system.trace.to_lines()
        t1 = time.perf_counter_ns()
        events = tb.parse_trace(lines)
        t2 = time.perf_counter_ns()
        violations = tb.check_trace(events, graph, [(APP, tree)])
        t3 = time.perf_counter_ns()
        if kind == "concurrent":
            self.times["tracing.format_ms"].append((t1 - t0) / 1e6)
            self.times["tracing.parse_ms"].append((t2 - t1) / 1e6)
            self.times["suptree.check_trace_ms"].append((t3 - t2) / 1e6)
            self._keep("verify_ms", (t3 - t0) / 1e6, _cpu_ms_since(c0))

        problems = [f"check_trace: {v.render()}" for v in violations[:3]]
        wrappers = 0 if kind == "sequential" else self.inputs.forks
        if (report.node_count, report.wrapper_count) != (self.inputs.nodes, wrappers):
            problems.append(f"started {report.node_count} nodes + {report.wrapper_count} "
                            f"wrappers, declared {self.inputs.nodes} + {wrappers}")
        if self.virtual and report.duration_ms != predicted:
            problems.append(f"virtual_ms {report.duration_ms!r} != critical_path {predicted!r}")
        if not self.virtual and report.duration_ms < predicted:
            problems.append(f"duration_ms {report.duration_ms!r} < critical_path {predicted!r}")
        observed = {
            "tracing.emit.calls": len(events),
            "clock.spawn.calls": report.wrapper_count,
            "condsrv.set.flips": sum(e.kind == "condition_set" for e in events),
            "condsrv.wait.blocked": sum(e.kind == "wait_begin" and bool(e.get("conditions"))
                                        for e in events),
        }
        if tracer is not None:
            mismatch = {k: (v, layer[k]) for k, v in observed.items() if layer[k] != v}
            if mismatch:
                problems.append(f"traced counts disagree with the trace: {mismatch}")
            observed["condsrv.waiter_scans"] = layer["condsrv.waiter_scans"]
            for key, value in layer.items():
                self.layers[key].append(value)
            self.layers["suptree.nodes"].append(report.node_count)
            self.layers["suptree.wrappers"].append(report.wrapper_count)
            self.last_spans = spans
        expected = dict(self._counts.setdefault(kind, observed))
        if kind == "traced":  # tracing must not change what the runtime does
            expected.update(self._counts.get("concurrent", {}))
        if observed != expected:
            problems.append(f"{kind} counts changed between boots of one seed: "
                            f"{expected} then {observed}")
        self.problems.extend(f"{kind} boot: {p}" for p in problems)

    def counts(self, kind: str = "concurrent") -> dict:
        return self._counts.get(kind, {})


def measure(workload, seed: int, seconds: float, tracer=None,
            until: float = float("inf")) -> tuple[Run, float, int]:
    """Set up, then step until ``seconds`` have passed and enough boots were
    made, or the ``perf_counter`` reading ``until`` is reached.

    Returns the run, the median set-up time and the number of steps."""
    wall = workload.clock == "wall"
    setups, run = [], None
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        inputs = workload.build(seed)
        if run is None:
            run = Run(workload, inputs)
        elif inputs != run.inputs:
            run.problems.append("the same seed built different inputs")
        run.step(sequential=wall and not tracer, tracer=tracer)
        setups.append(time.perf_counter() - t0)
    run.reset_samples()

    start = time.perf_counter()
    min_steps = (MIN_TRACED_BOOTS if tracer else MIN_BOOTS) / BOOTS_PER_STEP
    steps = 0
    while True:
        now = time.perf_counter()
        if (now - start >= seconds and steps >= min_steps) or now >= until:
            return run, statistics.median(setups), steps
        run.step(sequential=wall and not tracer and steps % SEQ_EVERY == 0, tracer=tracer)
        steps += 1


def moves(name: str) -> str:
    """Which end-to-end metric a per-layer metric should move, and where."""
    for prefixes, target, on in LAYER_MAP:
        if name.startswith(prefixes):
            return f"-> {target} on {on}"
    return ""


def end_to_end(run: Run, setup_s: float) -> tuple[dict, dict]:
    """(metrics BENCHMARK.json gates, the other end-to-end metrics)."""
    boots = run.times["concurrent.boot_ms"]
    p50 = statistics.median(boots)
    events = run.counts()["tracing.emit.calls"]
    rel = {k: statistics.median(v) for k, v in run.relative.items()}
    gated = {
        "boot_ref.p50": rel["boot"],
        # The tail stays in host ms: it did not scale with the reference, and
        # in ms it spread less between runs than in reference units.
        "boot_ms.p90": statistics.quantiles(boots, n=10, method="inclusive")[-1],
        "node_mref": rel["boot"] * 1e3 / run.inputs.nodes,
        "event_mref": rel["boot"] * 1e3 / events,
        "load_ref": rel["load_ms"],
        "verify_ref": rel["verify_ms"],
        "predict_ref": rel["bench.critical_path_ms"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": setup_s,
    }
    extra = {
        "boot_ms.p50": (p50, "ms"),
        "us_per_node": (p50 * 1e3 / run.inputs.nodes, "us"),
        "us_per_event": (p50 * 1e3 / events, "us"),
        "load_ms": (statistics.median(run.times["load_ms"]), "ms"),
        "verify_ms": (statistics.median(run.times["verify_ms"]), "ms"),
        "predict_ms": (statistics.median(run.times["bench.critical_path_ms"]), "ms"),
        "boot_cpu_ms.p50": (statistics.median(run.times["boot_cpu_ms"]), "ms"),
        "ref_ms": (statistics.median(run.times["ref_ms"]), "ms"),
        "ref_cpu_ms": (statistics.median(run.times["ref_cpu_ms"]), "ms"),
    }
    concurrent_ms = statistics.median(run.times["concurrent.duration_ms"])
    if run.virtual:
        extra["virtual_ms"] = (concurrent_ms, "ms")
        extra["speedup_x"] = (run.sequential_ms / concurrent_ms, "x")
    else:
        extra["wall_overhead_ms"] = (concurrent_ms - run.predicted_ms, "ms")
        if run.times["sequential.boot_ms"]:
            extra["speedup_x"] = (statistics.median(run.times["sequential.boot_ms"]) / p50, "x")
    extra["fail_ratio"] = (run.failed / run.attempted, "ratio")
    return {k: (v, E2E_UNITS[k]) for k, v in gated.items()}, extra


def per_layer(run: Run) -> dict:
    """Medians over the traced boots, and over all steps for load, predict and verify."""
    metrics = {k: statistics.median(v) for k, v in run.layers.items()}
    for key in ("tracing.format_ms", "tracing.parse_ms", "depgraph.parse_ms",
                "depgraph.validate_ms", "depgraph.cycle_check_ms", "suptree.parse_tree_ms",
                "suptree.check_trace_ms", "bench.critical_path_ms"):
        metrics[key] = statistics.median(run.times[key])
    metrics["trace_overhead"] = (statistics.median(run.times["traced.boot_ms"])
                                 / statistics.median(run.times["concurrent.boot_ms"]))
    return {k: (metrics[k], unit) for k, unit in LAYER_UNITS.items()}
