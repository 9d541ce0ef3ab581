"""The benchmark's four workloads, generated from a seed with treeboot's public API.

Every workload is handed to the program as the text a user gives
``treeboot run``: an ``.rgraph`` and a ``.tree``.  Loading that text is
part of what the benchmark measures, and the program never sees the seed.
The sizes model the traffic each workload stands for; they are not tuned
to make a run pass.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

import treeboot as tb


@dataclass(frozen=True)
class Inputs:
    graph_text: str
    tree_text: str
    nodes: int  # declared nodes
    forks: int  # concurrent-tagged nodes, i.e. wrappers in a concurrent boot


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    clock: str  # virtual | wall
    build: Callable[[int], Inputs]


def _topology(kind: str, delays: tb.DelayModel, placement: tb.ForkPlacement) -> Inputs:
    tree = tb.gen_topology(tb.TopologySpec(kind), delays)
    tree, forks = tb.place_forks(tree, placement)
    return Inputs(tb.serialize_release_graph(tb.DependencyGraph()), tb.serialize_tree(tree),
                  sum(1 for _ in tree.iter_nodes()), forks)


def seq_deep(seed: int) -> Inputs:
    # Constant inits and no forks: the seed changes nothing, by design.
    return _topology("deep", tb.DelayModel("sleep", 1.0), tb.ForkPlacement.none())


def fork_deep(seed: int) -> Inputs:
    return _topology("deep", tb.DelayModel("sleep", spread_ms=(0.5, 1.5), seed=seed),
                     tb.ForkPlacement.at_depth(4))


def wall_wide(seed: int) -> Inputs:
    return _topology("wide", tb.DelayModel("sleep", 2.0), tb.ForkPlacement.at_depth(1))


MESH_LANES = 16
MESH_WORKERS = 40


def deps_mesh(seed: int) -> Inputs:
    """16 concurrent lanes of 40 sequential workers.  Worker j of lane i>0
    waits on the conditions of workers j and j+1 of lane i-1, so waits
    really block.  Half of those entries name a group instead of the two
    conditions, each lane i>0 also has a wildcard entry (unioned with the
    exact one), and lane supervisors set their condition through a
    wildcard key: every ``expand_preconditions`` and ``conditions_set_by``
    path runs."""
    rng = random.Random(seed)

    def init() -> tb.InitModel:
        return tb.InitModel.sleep(rng.uniform(1.0, 4.0))

    conditions, groups, preconditions = [], [], []
    root_init = init()
    lanes = []
    for i in range(MESH_LANES):
        lane_module = f"lanesup{i}"
        conditions.append((tb.ModuleKey(lane_module), f"up{i}"))
        lane_init = init()
        workers = []
        for j in range(MESH_WORKERS):
            key = tb.ModuleKey(f"lane{i}", f"[w{j}]")
            conditions.append((key, f"c{i}_{j}"))
            workers.append(tb.ChildSpec(id=f"w{j}", module=key.module, args=key.args,
                                        init=init()))
            if i == 0:
                continue
            needed = tuple(f"c{i - 1}_{k}" for k in (j, j + 1) if k < MESH_WORKERS)
            if len(needed) == 2 and j % 2 == 0:
                groups.append(tb.ConditionGroup(f"g{i - 1}_{j}", needed))
                needed = (f"g{i - 1}_{j}",)
            preconditions.append((key, needed))
        if i > 0:
            preconditions.append((tb.ModuleKey(f"lane{i}"), (f"c{i - 1}_0",)))
        lanes.append(tb.ChildSpec(id=f"lane{i}", module=lane_module, kind="supervisor",
                                  start_mode="concurrent", init=lane_init,
                                  children=tuple(workers)))
    root = tb.ChildSpec(id="mesh", module="mesh", kind="supervisor", init=root_init,
                        children=tuple(lanes))
    graph = tb.DependencyGraph(tuple(conditions), tuple(groups), tuple(preconditions))
    return Inputs(tb.serialize_release_graph(graph), tb.serialize_tree(root),
                  1 + MESH_LANES * (1 + MESH_WORKERS), MESH_LANES)


WORKLOADS = {w.name: w for w in (
    Workload("seq-deep", "1093-node deep tree, all sequential, virtual clock: per-node "
             "lifecycle and the trace emit path, with no threads and no blocked waits",
             "virtual", seq_deep),
    Workload("fork-deep", "deep tree forked at every depth-4 node, virtual clock: 81 "
             "thread-per-fork starts park and wake on the discrete-event clock",
             "virtual", fork_deep),
    Workload("deps-mesh", "16 lanes x 40 workers with cross-lane preconditions, virtual "
             "clock: the only workload whose waits block, so condsrv and depgraph carry it",
             "virtual", deps_mesh),
    Workload("wall-wide", "10x10 wide tree forked at depth 1 with real 2 ms sleeps, wall "
             "clock: real threads and sleeps, concurrent against sequential",
             "wall", wall_wide),
)}
