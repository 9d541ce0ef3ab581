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
    (111 nodes).  Both draw nothing, so they take no seed.  random:
    per-node child count uniform in [1, 5], leaves forced at level 5;
    fully determined by the seed, and takes no branching."""

    kind: str  # deep | wide | random
    branching: int | None = None
    depth: int | None = None
    seed: int = 0

    def resolved(self) -> tuple[int | None, int]:
        if self.kind in ("deep", "wide") and self.seed != 0:
            raise ValueError(f"the {self.kind} topology draws nothing; it takes no seed")
        if self.kind == "deep":
            return (self.branching if self.branching is not None else 3,
                    self.depth if self.depth is not None else 6)
        if self.kind == "wide":
            return (self.branching if self.branching is not None else 10,
                    self.depth if self.depth is not None else 2)
        if self.kind == "random":
            if self.branching is not None:
                raise ValueError("the random topology draws its branching; it takes none")
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


def critical_path(root: ChildSpec, graph: DependencyGraph | None = None,
                  *, force_sequential: bool = False) -> float:
    """Predicted startup duration under sleep delays and unbounded
    parallelism: the latest init end in the combined precedence order of
    parent-before-child, sequential-sibling and condition-wait edges.

    A node is requested at its cursor: its parent's init end, or the ack
    of its latest sequential older sibling.  It acks at its own init end,
    or at its last sequential child's ack.  So every ack is some init
    end, and the latest ack is the latest init end.  The model thus has
    one milestone per node, its init end (the latest of its cursor and its
    conditions, plus its init duration), and one per needed condition (the
    earliest init end of its setters).

    Raises ValueError when a needed condition has no setter in the tree,
    or when the combined ordering is cyclic (naming stuck node paths and
    conditions).
    """
    graph = graph if graph is not None else DependencyGraph()
    graph.require_valid()

    # Node milestones 0..count-1 in pre-order; condition milestones follow.
    # Each node reads its key's needs and sets from the graph's start plan.
    start_plan = graph.start_plan
    paths: list[str] = []
    offsets: list[float] = []
    waits: list[frozenset[str]] = []
    children: list[list[int]] = []
    sequential: list[bool] = []
    setters: dict[str, list[int]] = {}
    index_of: dict[str, int] = {}
    for index, (path, spec, parent, _) in enumerate(root.walk()):
        plan = start_plan(spec.module, spec.args)
        paths.append(path)
        offsets.append(spec.init.duration_ms)
        waits.append(plan.needs)
        children.append([])
        sequential.append(force_sequential or spec.start_mode != "concurrent")
        for name in plan.sets:
            setters.setdefault(name, []).append(index)
        index_of[path] = index
        if parent is not None:
            children[index_of[parent]].append(index)

    # followers[m] lists the milestones that m is an input of; remaining[m]
    # counts the inputs m still waits for: its cursor (all but the root)
    # and its conditions, or, for a condition, its first setter.
    count = len(paths)
    followers: list[list[int]] = [[] for _ in range(count)]
    remaining = [len(names) + 1 for names in waits]
    remaining[0] -= 1
    ack = list(range(count))
    for index in reversed(range(count)):  # every child's ack is known
        cursor = index
        for child in children[index]:
            followers[cursor].append(child)
            if sequential[child]:
                cursor = ack[child]
        ack[index] = cursor

    conditions = sorted(set().union(*waits))
    milestone: dict[str, int] = {}
    for name in conditions:
        if name not in setters:
            raise ValueError(f"condition {name!r} is never set by any tree node")
        milestone[name] = len(followers)
        for setter in setters[name]:
            followers[setter].append(len(followers))
        followers.append([])
        offsets.append(0.0)
        remaining.append(1)
    for index, names in enumerate(waits):
        for name in names:
            followers[milestone[name]].append(index)

    # Evaluate on a time-ordered frontier.  A node fires once all of its
    # inputs fired, a condition at its first-arriving input: later setters
    # of the same condition may legitimately depend back on the waiter, so
    # demanding all inputs (plain topological evaluation) would see a
    # cycle that the actual first-flip semantics never executes.  Pops
    # never go back in time, so the input that completes a milestone is
    # its latest (for a condition, its earliest).
    ends: list[float | None] = [None] * len(followers)
    frontier = [] if remaining[0] else [(offsets[0], 0)]
    while frontier:
        time, index = heapq.heappop(frontier)
        ends[index] = time
        for follower in followers[index]:
            remaining[follower] -= 1
            if remaining[follower] == 0:
                heapq.heappush(frontier, (time + offsets[follower], follower))

    if None in ends:
        stuck = [paths[index] for index in range(count) if ends[index] is None]
        stuck += [name for name in conditions if ends[milestone[name]] is None]
        raise ValueError(f"cyclic combined ordering (stuck at {', '.join(stuck[:4])}"
                         f"{', ...' if len(stuck) > 4 else ''})")
    return max(ends[:count])


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
