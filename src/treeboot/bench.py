"""Startup benchmark harness: topologies, fork placement, timing, CSV.

Reproduces the measurement setup the runtime is built around: generate a
deep / wide / random supervision tree, give every node a simulated init
cost, tag selected nodes as fork points, start the system sequentially
and concurrently, and compare measured durations against an analytic
critical-path prediction (exact under the virtual clock with sleep
delays).
"""

from __future__ import annotations

import csv
import heapq
import random
from dataclasses import dataclass, replace

from .boot import boot_system
from .clock import VirtualClock, WallClock
from .condsrv import DEFAULT_DEADLOCK_TIMEOUT_MS
from .depgraph import DependencyGraph
from .errors import DeadlockError, QuiescenceTimeout, StartupError
from .suptree import ChildSpec, InitModel

__all__ = [
    "TopologySpec",
    "DelayModel",
    "ForkPlacement",
    "BenchConfig",
    "BenchReport",
    "gen_topology",
    "place_forks",
    "critical_path",
    "run_benchmark",
    "emit_csv",
    "read_csv",
]

CSV_COLUMNS = ("topology", "mode", "placement", "tagged_count", "fork_depth",
               "repetition", "duration_ms", "prediction_ms")


@dataclass(frozen=True)
class TopologySpec:
    """deep: 3-regular, depth 6 (1093 nodes).  wide: 10-regular, depth 2
    (111 nodes).  random: per-node child count uniform in [1, 5], leaves
    forced at level 5; fully determined by the seed."""

    kind: str  # deep | wide | random
    branching: int | None = None
    depth: int | None = None
    seed: int = 0

    def resolved(self) -> tuple[int | None, int]:
        if self.kind == "deep":
            return (self.branching or 3, self.depth if self.depth is not None else 6)
        if self.kind == "wide":
            return (self.branching or 10, self.depth if self.depth is not None else 2)
        if self.kind == "random":
            return (None, self.depth if self.depth is not None else 5)
        raise ValueError(f"unknown topology kind {self.kind!r}")


@dataclass(frozen=True)
class DelayModel:
    """Per-node simulated init cost.  ``spread_ms`` draws uniformly from
    [lo, hi] with its own seed instead of the constant."""

    kind: str = "sleep"  # sleep | busy
    per_node_ms: float = 50.0
    spread_ms: tuple[float, float] | None = None
    seed: int = 0

    def __post_init__(self):
        if self.kind not in ("sleep", "busy"):
            raise ValueError(f"unknown delay kind {self.kind!r}")
        if self.spread_ms is None:
            if self.per_node_ms <= 0:
                raise ValueError("per_node_ms must be > 0")
        else:
            lo, hi = self.spread_ms
            if not (0 < lo <= hi):
                raise ValueError("spread bounds must satisfy 0 < lo <= hi")

    def _sampler(self):
        make = InitModel.sleep if self.kind == "sleep" else InitModel.busy
        if self.spread_ms is None:
            value = self.per_node_ms
            return lambda: make(value)
        lo, hi = self.spread_ms
        rng = random.Random(self.seed)
        return lambda: make(rng.uniform(lo, hi))


@dataclass(frozen=True)
class ForkPlacement:
    strategy: str = "none"  # none | all_at_depth | first_n_breadth_first | explicit
    depth: int | None = None
    count: int | None = None
    paths: tuple[str, ...] = ()

    @staticmethod
    def none() -> "ForkPlacement":
        return ForkPlacement()

    @staticmethod
    def at_depth(depth: int) -> "ForkPlacement":
        return ForkPlacement("all_at_depth", depth=depth)

    @staticmethod
    def first_n(count: int) -> "ForkPlacement":
        return ForkPlacement("first_n_breadth_first", count=count)

    @staticmethod
    def explicit(paths) -> "ForkPlacement":
        return ForkPlacement("explicit", paths=tuple(paths))

    def label(self) -> str:
        if self.strategy == "all_at_depth":
            return f"depth:{self.depth}"
        if self.strategy == "first_n_breadth_first":
            return f"first:{self.count}"
        if self.strategy == "explicit":
            return f"explicit:{len(self.paths)}"
        return "none"


def gen_topology(spec: TopologySpec, delays: DelayModel | None = None) -> ChildSpec:
    """Build the tree: internal nodes are supervisors, level-``depth``
    nodes are leaf workers, every node carries the simulated init cost.
    Deterministic for a given spec (and delay seed)."""
    branching, max_depth = spec.resolved()
    if max_depth < 0 or (branching is not None and branching < 1):
        raise ValueError("branching must be >= 1 and depth >= 0")
    rng = random.Random(spec.seed)
    sample = delays._sampler() if delays is not None else InitModel
    # Draw each node's init and width in pre-order, then build bottom-up.
    drawn: list[tuple[InitModel, int]] = []
    pending = [0]  # depths of the nodes still to draw, the next one on top
    while pending:
        depth = pending.pop()
        init = sample()
        width = 0 if depth == max_depth else (
            branching if branching is not None else rng.randint(1, 5))
        drawn.append((init, width))
        pending.extend([depth + 1] * width)
    built: list[ChildSpec] = []  # finished subtrees, the first child on top
    for index in reversed(range(len(drawn))):
        init, width = drawn[index]
        node_id = f"n{index}"
        if width == 0:
            built.append(ChildSpec(id=node_id, module=node_id, kind="worker", init=init))
        else:
            children = tuple(built.pop() for _ in range(width))
            built.append(ChildSpec(id=node_id, module=node_id, kind="supervisor",
                                   init=init, children=children))
    return built[0]


def place_forks(root: ChildSpec, placement: ForkPlacement) -> tuple[ChildSpec, int]:
    """Return (retagged tree, number of concurrent-tagged nodes).

    Exactly the selected nodes are concurrent; everything else is reset to
    sequential.  The root cannot be a fork point (there is no supervisor
    above it to fork from)."""
    nodes = list(root.walk())
    depth_of = {path: depth for path, _, _, depth in nodes}

    if placement.strategy == "none":
        selected: set[str] = set()
    elif placement.strategy == "all_at_depth":
        if placement.depth is None or placement.depth < 1:
            raise ValueError("all_at_depth requires depth >= 1")
        selected = {path for path, _, _, depth in nodes if depth == placement.depth}
        if not selected:
            raise ValueError(f"no nodes at depth {placement.depth}")
    elif placement.strategy == "first_n_breadth_first":
        if placement.count is None or placement.count < 0:
            raise ValueError("first_n_breadth_first requires count >= 0")
        order = sorted(((depth, i) for i, (_, _, _, depth) in enumerate(nodes) if depth > 0))
        if placement.count > len(order):
            raise ValueError(f"only {len(order)} non-root nodes available")
        chosen = sorted(i for _, i in order[:placement.count])
        selected = {nodes[i][0] for i in chosen}
    elif placement.strategy == "explicit":
        selected = set(placement.paths)
        for path in selected:
            if path not in depth_of:
                raise ValueError(f"unknown node path {path!r}")
            if depth_of[path] == 0:
                raise ValueError("the root cannot be a fork point")
    else:
        raise ValueError(f"unknown placement strategy {placement.strategy!r}")

    # Rebuilt in reverse pre-order, every child is ready before its parent.
    built: dict[str, ChildSpec] = {}
    for path, spec, _, _ in reversed(nodes):
        children = tuple(built.pop(f"{path}/{c.id}") for c in spec.children)
        mode = "concurrent" if path in selected else "sequential"
        built[path] = replace(spec, start_mode=mode, children=children)
    return built[root.id], len(selected)


# -- analytic model -----------------------------------------------------------

_MAX, _MIN = 0, 1


class _Milestone:
    __slots__ = ("op", "offset", "deps", "value", "blocking",
                 "remaining", "acc", "queued")

    def __init__(self, op, offset=0.0):
        self.op = op
        self.offset = offset
        self.deps: list[str] = []
        self.value: float | None = None
        self.blocking: list[str] = []  # milestones depending on this one
        self.remaining = 0  # unfired deps (max nodes wait for all)
        self.acc = 0.0  # running max of fired dep values
        self.queued = False


def critical_path(root: ChildSpec, graph: DependencyGraph | None = None,
                  *, force_sequential: bool = False) -> float:
    """Predicted startup duration under sleep delays and unbounded
    parallelism: the longest path through the combined precedence DAG of
    sequential-sibling edges, parent-before-child edges, and condition
    wait edges.

    Raises ValueError when the combined ordering is cyclic or a needed
    condition has no setter in the tree.
    """
    graph = graph if graph is not None else DependencyGraph()
    graph.require_valid()
    table: dict[str, _Milestone] = {}

    def add(name: str, op: int, offset: float = 0.0) -> _Milestone:
        m = _Milestone(op, offset)
        table[name] = m
        return m

    def dep(name: str, on: str) -> None:
        table[name].deps.append(on)

    nodes = [(path, spec) for path, spec, _, _ in root.walk()]

    # tree milestones
    for path, spec in nodes:
        add(f"req:{path}", _MAX)
        add(f"wdone:{path}", _MAX)
        add(f"idone:{path}", _MAX, offset=spec.init.duration_ms)
        add(f"ack:{path}", _MAX)
        dep(f"wdone:{path}", f"req:{path}")
        dep(f"idone:{path}", f"wdone:{path}")

    # condition milestones (first setter wins, hence min)
    needed_conditions: set[str] = set()
    setters: dict[str, list[str]] = {}  # condition -> idone milestones of its setters
    for path, spec in nodes:
        needed_conditions.update(graph.expand_preconditions(spec.key()))
        for name in graph.conditions_set_by(spec.module, spec.args):
            setters.setdefault(name, []).append(f"idone:{path}")
    for name in sorted(needed_conditions):
        m = add(f"set:{name}", _MIN)
        m.deps.extend(setters.get(name, ()))
        if not m.deps:
            raise ValueError(f"condition {name!r} is never set by any tree node")

    # wire per-node edges
    for path, spec in nodes:
        for name in sorted(graph.expand_preconditions(spec.key())):
            dep(f"wdone:{path}", f"set:{name}")
        if spec.kind != "supervisor" or not spec.children:
            dep(f"ack:{path}", f"idone:{path}")
            continue
        cursor = f"idone:{path}"
        for child in spec.children:
            child_path = f"{path}/{child.id}"
            concurrent = child.start_mode == "concurrent" and not force_sequential
            dep(f"req:{child_path}", cursor)
            if not concurrent:
                cursor = f"ack:{child_path}"
        dep(f"ack:{path}", cursor)

    # Evaluate on a time-ordered frontier.  A max milestone fires once all
    # of its inputs fired (value = max + offset); a min milestone fires at
    # its first-arriving input — later setters of the same condition may
    # legitimately depend back on the waiter, so demanding all inputs
    # (plain topological evaluation) would see a cycle that the actual
    # first-flip semantics never executes.
    for name, m in table.items():
        m.remaining = len(m.deps)
        for d in m.deps:
            table[d].blocking.append(name)

    frontier: list[tuple[float, str]] = []
    for name, m in sorted(table.items()):
        if m.op == _MAX and m.remaining == 0:
            m.queued = True
            heapq.heappush(frontier, (m.offset, name))

    fired = 0
    while frontier:
        value, name = heapq.heappop(frontier)
        m = table[name]
        if m.value is not None:
            continue
        m.value = value
        fired += 1
        for follower_name in m.blocking:
            follower = table[follower_name]
            if follower.value is not None:
                continue
            if follower.op == _MAX:
                follower.remaining -= 1
                follower.acc = max(follower.acc, value)
                if follower.remaining == 0:
                    heapq.heappush(frontier,
                                   (follower.acc + follower.offset, follower_name))
            elif not follower.queued:
                follower.queued = True  # first input is the minimum
                heapq.heappush(frontier, (value + follower.offset, follower_name))

    if fired != len(table):
        stuck = sorted(name for name, m in table.items() if m.value is None)
        raise ValueError(f"cyclic combined ordering (stuck at {stuck[:4]}...)")

    return max(table[f"ack:{path}"].value for path, _ in nodes)


# -- running ----------------------------------------------------------------


@dataclass(frozen=True)
class BenchConfig:
    topology: TopologySpec
    delays: DelayModel = DelayModel()
    placement: ForkPlacement = ForkPlacement()
    mode: str = "concurrent"  # sequential | concurrent
    repetitions: int = 5
    virtual_clock: bool = False
    deadlock_timeout_ms: float = DEFAULT_DEADLOCK_TIMEOUT_MS
    graph: DependencyGraph = DependencyGraph()

    def __post_init__(self):
        if self.mode not in ("sequential", "concurrent"):
            raise ValueError(f"bad mode {self.mode!r}")
        if self.repetitions < 1:
            raise ValueError("repetitions must be >= 1")


@dataclass(frozen=True)
class BenchReport:
    config: BenchConfig
    results: tuple[float | None, ...]  # per repetition; None = failed
    failures: tuple[tuple[int, str], ...]
    node_count: int
    wrapper_count: int
    tagged_count: int
    prediction_ms: float | None

    @property
    def durations_ms(self) -> tuple[float, ...]:
        return tuple(d for d in self.results if d is not None)

    @property
    def mean_ms(self) -> float | None:
        ok = self.durations_ms
        return sum(ok) / len(ok) if ok else None

    @property
    def min_ms(self) -> float | None:
        ok = self.durations_ms
        return min(ok) if ok else None

    @property
    def max_ms(self) -> float | None:
        ok = self.durations_ms
        return max(ok) if ok else None


def run_benchmark(config: BenchConfig) -> BenchReport:
    """Boot the configured system ``repetitions`` times (strictly serially,
    fresh store and clock per run) and record startup durations.  Failed
    repetitions are reported, never dropped."""
    tree = gen_topology(config.topology, config.delays)
    tree, tagged = place_forks(tree, config.placement)

    prediction = None
    if config.delays.kind == "sleep":
        try:
            prediction = critical_path(tree, config.graph,
                                       force_sequential=(config.mode == "sequential"))
        except ValueError:
            prediction = None  # unsatisfiable or cyclic; the runs will tell

    results: list[float | None] = []
    failures: list[tuple[int, str]] = []
    node_count = 0
    wrapper_count = 0
    for rep in range(config.repetitions):
        clock = VirtualClock() if config.virtual_clock else WallClock()
        try:
            outcome = boot_system(
                config.graph, [(config.topology.kind, tree)],
                mode=("sequential" if config.mode == "sequential" else "as-specified"),
                clock=clock, deadlock_timeout_ms=config.deadlock_timeout_ms,
            )
        except (DeadlockError, StartupError, QuiescenceTimeout) as exc:
            results.append(None)
            failures.append((rep, f"{type(exc).__name__}: {exc}"))
            continue
        results.append(outcome.report.duration_ms)
        node_count = outcome.report.node_count
        wrapper_count = outcome.report.wrapper_count

    return BenchReport(config, tuple(results), tuple(failures),
                       node_count, wrapper_count, tagged, prediction)


def emit_csv(report: BenchReport, path, *, append: bool = False) -> None:
    """One row per repetition, stable column order; header unless appending
    to an existing file."""
    import os

    write_header = not (append and os.path.exists(path) and os.path.getsize(path) > 0)
    mode = "a" if append else "w"
    placement = report.config.placement
    fork_depth = placement.depth if placement.strategy == "all_at_depth" else ""
    prediction = "" if report.prediction_ms is None else format(report.prediction_ms, ".6f")
    with open(path, mode, encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        if write_header:
            writer.writerow(CSV_COLUMNS)
        for rep, duration in enumerate(report.results, start=1):
            writer.writerow([
                report.config.topology.kind,
                report.config.mode,
                placement.label(),
                report.tagged_count,
                fork_depth,
                rep,
                "" if duration is None else format(duration, ".6f"),
                prediction,
            ])


def read_csv(path) -> list[dict]:
    """Parse a benchmark CSV back into typed row dicts."""
    rows: list[dict] = []
    with open(path, encoding="utf-8", newline="") as fh:
        for record in csv.DictReader(fh):
            rows.append({
                "topology": record["topology"],
                "mode": record["mode"],
                "placement": record["placement"],
                "tagged_count": int(record["tagged_count"]),
                "fork_depth": int(record["fork_depth"]) if record["fork_depth"] else None,
                "repetition": int(record["repetition"]),
                "duration_ms": float(record["duration_ms"]) if record["duration_ms"] else None,
                "prediction_ms": float(record["prediction_ms"]) if record["prediction_ms"] else None,
            })
    return rows
