"""Seeded random system generator for property-style suites.

Generates (dependency graph, supervision tree, fork placement) triples
that are live by construction in every start mode: condition wait edges
only ever point from a node to conditions whose (earliest possible)
setter comes strictly before it in depth-first start order, so the
combined precedence DAG is acyclic and a sequential run satisfies every
wait the moment it is checked.
"""

from __future__ import annotations

import bisect
import random
from dataclasses import replace

from treeboot import ChildSpec, ConditionGroup, DependencyGraph, InitModel, ModuleKey


class GeneratedSystem:
    def __init__(self, seed, graph, root, concurrent_paths):
        self.seed = seed
        self.graph = graph
        self.root = root  # all-sequential tags
        self.concurrent_paths = concurrent_paths  # the random placement

    def tagged_root(self, *, all_concurrent: bool = False) -> ChildSpec:
        selected = self.concurrent_paths

        def rebuild(spec: ChildSpec, path: str, depth: int) -> ChildSpec:
            concurrent = all_concurrent and depth > 0 or path in selected
            children = tuple(rebuild(c, f"{path}/{c.id}", depth + 1)
                             for c in spec.children)
            return replace(spec,
                           start_mode="concurrent" if concurrent else "sequential",
                           children=children)

        return rebuild(self.root, self.root.id, 0)


def random_system(seed: int, *, max_depth: int = 5, min_modules: int = 10,
                  max_modules: int = 50) -> GeneratedSystem:
    rng = random.Random(seed)
    pool = [f"mod{i:02d}" for i in range(rng.randint(min_modules, max_modules))]

    counter = [0]

    def build(depth: int) -> ChildSpec:
        node_id = f"n{counter[0]}"
        counter[0] += 1
        module = rng.choice(pool)
        init = InitModel.sleep(float(rng.randint(1, 5)))
        if depth == max_depth:
            return ChildSpec(id=node_id, module=module, args=f"[{node_id}]",
                             kind="worker", init=init)
        width = rng.randint(1, 5)
        children = tuple(build(depth + 1) for _ in range(width))
        return ChildSpec(id=node_id, module=module, args=f"[{node_id}]",
                         kind="supervisor", init=init, children=children)

    root = build(0)

    # DFS preorder = sequential start order; a node's position is its index
    order = [(path, spec) for path, spec, _, _ in root.walk()]
    first_of_module: dict[str, int] = {}
    for i, (_, spec) in enumerate(order):
        first_of_module.setdefault(spec.module, i)

    # conditions: exact per chosen node, occasional wildcard per module
    conditions: list[tuple[ModuleKey, str]] = []
    effective_pos: dict[str, int] = {}  # condition -> earliest setter position
    for i, (_, spec) in enumerate(order):
        if rng.random() < 0.4:
            name = f"c_{spec.id}"
            conditions.append((ModuleKey(spec.module, spec.args), name))
            effective_pos[name] = i
    for module in pool:
        if module in first_of_module and rng.random() < 0.15:
            name = f"cw_{module}"
            conditions.append((ModuleKey(module), name))
            effective_pos[name] = first_of_module[module]

    # groups over declared conditions
    groups: list[ConditionGroup] = []
    declared = [name for _, name in conditions]
    for i in range(rng.randint(0, 3)):
        if not declared:
            break
        members = tuple(rng.sample(declared, rng.randint(1, min(4, len(declared)))))
        name = f"g_{i}"
        groups.append(ConditionGroup(name, members))
        effective_pos[name] = max(effective_pos[m] for m in members)

    # wait edges: only to names whose effective setter is strictly earlier.
    # ``earlier`` keeps those names in declaration order (the order drawn
    # from), and grows as the walk passes each name's setter position.
    rank = {name: r for r, name in enumerate(effective_pos)}
    unpassed = sorted(effective_pos, key=effective_pos.get, reverse=True)
    earlier: list[str] = []
    earlier_ranks: list[int] = []
    preconditions: list[tuple[ModuleKey, tuple[str, ...]]] = []
    used_keys: set[ModuleKey] = set()
    for i, (_, spec) in enumerate(order):
        while unpassed and effective_pos[unpassed[-1]] < i:
            name = unpassed.pop()
            at = bisect.bisect(earlier_ranks, rank[name])
            earlier.insert(at, name)
            earlier_ranks.insert(at, rank[name])
        if rng.random() >= 0.35:
            continue
        if not earlier:
            continue
        names = tuple(rng.sample(earlier, rng.randint(1, min(3, len(earlier)))))
        key = ModuleKey(spec.module, spec.args)
        if rng.random() < 0.1:
            # wildcard waiter is only safe if every instance of the module
            # starts after every chosen setter
            latest = max(effective_pos[n] for n in names)
            if first_of_module[spec.module] > latest:
                key = ModuleKey(spec.module)
        if key in used_keys:
            continue
        used_keys.add(key)
        preconditions.append((key, names))

    graph = DependencyGraph(tuple(conditions), tuple(groups), tuple(preconditions))
    assert graph.validate() == []

    # The DFS-order rule guarantees liveness, but the module-level cycle
    # check is deliberately conservative about wildcards and may still see
    # a cycle; prune wait edges until it is satisfied too.
    while (witness := graph.cycle_check()) is not None:
        cyclic_modules = {key.module for key in witness}
        pruned = tuple(
            entry for entry in graph.preconditions
            if entry[0].module not in cyclic_modules
        )
        assert len(pruned) < len(graph.preconditions)
        graph = DependencyGraph(graph.conditions, graph.groups, pruned)

    concurrent_paths = {
        path for path, _ in order[1:] if rng.random() < 0.3
    }
    return GeneratedSystem(seed, graph, root, frozenset(concurrent_paths))


def unconstrained_system(seed: int) -> tuple[ChildSpec, DependencyGraph]:
    """A small seeded tree, start modes drawn, and a valid graph over its
    modules with no liveness guarantee: a wait may point at a later
    setter, at a condition no tree node sets, or round in a cycle."""
    rng = random.Random(seed)
    pool = [f"m{i}" for i in range(rng.randint(2, 6))]
    counter = [0]

    def build(depth: int) -> ChildSpec:
        node_id = f"n{counter[0]}"
        counter[0] += 1
        mode = "concurrent" if depth > 0 and rng.random() < 0.4 else "sequential"
        init = InitModel.sleep(float(rng.randint(1, 5)))
        width = 0 if depth == 3 else rng.randint(0, 3)
        children = tuple(build(depth + 1) for _ in range(width))
        return ChildSpec(id=node_id, module=rng.choice(pool),
                         args=rng.choice((None, "[1]", "[2]")),
                         kind="supervisor" if children else "worker",
                         start_mode=mode, init=init, children=children)

    root = build(0)
    setters = pool + ["ghost"]

    def key() -> ModuleKey:
        return ModuleKey(rng.choice(setters), rng.choice((None, "[1]", "[2]")))

    conditions = [(k, f"c{i}") for i, k in
                  enumerate(dict.fromkeys(key() for _ in range(rng.randint(1, 6))))]
    names = [name for _, name in conditions]
    groups = tuple(
        ConditionGroup(f"g{g}", tuple(rng.sample(names, rng.randint(1, min(3, len(names))))))
        for g in range(rng.randint(0, 2)))
    usable = names + [g.name for g in groups]
    preconditions = tuple(
        (k, tuple(rng.sample(usable, rng.randint(1, min(2, len(usable))))))
        for k in dict.fromkeys(key() for _ in range(rng.randint(1, 5))))
    return root, DependencyGraph(tuple(conditions), groups, preconditions)
