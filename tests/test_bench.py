"""Benchmark harness: topologies, placements, predictions, CSV."""

from __future__ import annotations

from functools import lru_cache
from pathlib import Path

import pytest

from treeboot import (
    BenchConfig,
    ChildSpec,
    DelayModel,
    DependencyGraph,
    ForkPlacement,
    InitModel,
    TopologySpec,
    critical_path,
    emit_csv,
    gen_topology,
    parse_release_graph,
    place_forks,
    read_csv,
    run_benchmark,
)

from gensys import random_system, unconstrained_system
from sched_oracle import compositional_duration, simulate_schedule

PATHS_GOLDEN = Path(__file__).parent / "golden" / "critical_paths.txt"
SYSTEM_SEEDS = range(400)
UNCONSTRAINED_SEEDS = range(500)
PLACEMENTS = ("root", "tagged", "all")


def node_count(spec: ChildSpec) -> int:
    return 1 + sum(node_count(c) for c in spec.children)


def unit_delays() -> DelayModel:
    return DelayModel("sleep", 1.0)


# -- topology generation ----------------------------------------------------------


def test_deep_topology_node_count():
    tree = gen_topology(TopologySpec("deep"), unit_delays())
    assert node_count(tree) == (3 ** 7 - 1) // 2  # 1093, closed form


def test_wide_topology_node_count():
    tree = gen_topology(TopologySpec("wide"), unit_delays())
    assert node_count(tree) == 1 + 10 + 100  # 111


def test_random_topology_deterministic_and_bounded():
    a = gen_topology(TopologySpec("random", seed=99), unit_delays())
    b = gen_topology(TopologySpec("random", seed=99), unit_delays())
    assert a == b

    def check(spec, depth):
        if depth == 5:
            assert spec.children == ()
        else:
            assert 1 <= len(spec.children) <= 5
        for c in spec.children:
            check(c, depth + 1)

    check(a, 0)


def test_random_topology_refuses_branching():
    with pytest.raises(ValueError, match="branching"):
        gen_topology(TopologySpec("random", branching=7), unit_delays())


@pytest.mark.parametrize("kind", ["deep", "wide"])
def test_regular_topology_refuses_seed(kind):
    with pytest.raises(ValueError, match="seed"):
        gen_topology(TopologySpec(kind, seed=5), unit_delays())


def test_random_topology_different_seeds_differ():
    assert gen_topology(TopologySpec("random", seed=1), unit_delays()) != \
        gen_topology(TopologySpec("random", seed=2), unit_delays())


def test_spread_delays_within_bounds_and_seeded():
    model = DelayModel("sleep", spread_ms=(2.0, 9.0), seed=4)
    a = gen_topology(TopologySpec("wide"), model)
    b = gen_topology(TopologySpec("wide"), model)
    assert a == b

    def walk(s):
        yield s.init.duration_ms
        for c in s.children:
            yield from walk(c)

    values = list(walk(a))
    assert all(2.0 <= v <= 9.0 for v in values)
    assert len(set(values)) > 1


# -- fork placement ------------------------------------------------------------


def test_all_at_depth_counts_are_powers_of_branching():
    tree = gen_topology(TopologySpec("deep"), unit_delays())
    for depth in (1, 2, 3):
        _, tagged = place_forks(tree, ForkPlacement.at_depth(depth))
        assert tagged == 3 ** depth


def test_placement_none_equals_sequential_run():
    tree = gen_topology(TopologySpec("wide"), unit_delays())
    tagged_tree, tagged = place_forks(tree, ForkPlacement.none())
    assert tagged == 0
    assert critical_path(tagged_tree) == critical_path(tree, force_sequential=True)


def test_first_n_breadth_first_picks_nearest_root():
    tree = gen_topology(TopologySpec("deep"), unit_delays())
    tagged_tree, tagged = place_forks(tree, ForkPlacement.first_n(4))
    assert tagged == 4

    # independent BFS oracle over the declared tree
    from collections import deque
    queue = deque([(tree, tree.id, 0)])
    bfs_paths = []
    while queue:
        spec, path, depth = queue.popleft()
        if depth > 0:
            bfs_paths.append(path)
        for child in spec.children:
            queue.append((child, f"{path}/{child.id}", depth + 1))
    expected = set(bfs_paths[:4])

    def collect(spec, path, acc):
        if spec.start_mode == "concurrent":
            acc.add(path)
        for c in spec.children:
            collect(c, f"{path}/{c.id}", acc)
        return acc

    assert collect(tagged_tree, tagged_tree.id, set()) == expected


def test_placement_depth_out_of_range():
    tree = gen_topology(TopologySpec("wide"), unit_delays())
    with pytest.raises(ValueError):
        place_forks(tree, ForkPlacement.at_depth(7))
    with pytest.raises(ValueError):
        place_forks(tree, ForkPlacement.at_depth(0))


def test_placement_explicit_unknown_path():
    tree = gen_topology(TopologySpec("wide"), unit_delays())
    with pytest.raises(ValueError):
        place_forks(tree, ForkPlacement.explicit(["n0/ghost"]))


# -- critical path ----------------------------------------------------------------


def test_critical_path_chain_and_max():
    root = ChildSpec(id="r", module="r", kind="supervisor", children=(
        ChildSpec(id="a", module="a", init=InitModel.sleep(100)),
        ChildSpec(id="b", module="b", init=InitModel.sleep(10)),
    ))
    assert critical_path(root) == 110.0
    forked, _ = place_forks(root, ForkPlacement.explicit(["r/a"]))
    assert critical_path(forked) == 100.0


@pytest.mark.parametrize("placement", [
    ForkPlacement.none(),
    ForkPlacement.at_depth(1),
    ForkPlacement.at_depth(3),
    ForkPlacement.first_n(7),
])
def test_critical_path_matches_independent_oracles_deep(placement):
    tree = gen_topology(TopologySpec("deep"), unit_delays())
    tagged, _ = place_forks(tree, placement)
    got = critical_path(tagged)
    assert got == compositional_duration(tagged)
    assert got == simulate_schedule(tagged)


@pytest.mark.parametrize("seed", [3, 11, 27])
def test_critical_path_matches_oracles_random_topology(seed):
    tree = gen_topology(TopologySpec("random", seed=seed),
                        DelayModel("sleep", spread_ms=(1.0, 7.0), seed=seed))
    tagged, _ = place_forks(tree, ForkPlacement.first_n(5))
    # the event-driven oracle shares the absolute-time formulation: exact;
    # the compositional oracle sums deltas in a different order: ulp-close
    assert critical_path(tagged) == simulate_schedule(tagged)
    assert critical_path(tagged) == pytest.approx(compositional_duration(tagged),
                                                  rel=1e-12)


def test_critical_path_with_condition_wait():
    graph = parse_release_graph(
        "[conditions]\nmb * -> c_b\n[preconditions]\nma * <- c_b\n")
    root = ChildSpec(id="r", module="r", kind="supervisor", children=(
        ChildSpec(id="a", module="ma", init=InitModel.sleep(5),
                  start_mode="concurrent"),
        ChildSpec(id="b", module="mb", init=InitModel.sleep(30)),
    ))
    # lane a waits for b's init: 30 + 5
    assert critical_path(root, graph) == 35.0
    assert simulate_schedule(root, graph) == 35.0


def test_critical_path_cycle_detected():
    graph = parse_release_graph(
        "[conditions]\nma * -> c_a\nmb * -> c_b\n"
        "[preconditions]\nma * <- c_b\nmb * <- c_a\n")
    root = ChildSpec(id="r", module="r", kind="supervisor", children=(
        ChildSpec(id="a", module="ma", start_mode="concurrent"),
        ChildSpec(id="b", module="mb"),
    ))
    with pytest.raises(ValueError, match="cyclic"):
        critical_path(root, graph)


def test_critical_path_cycle_names_stuck_nodes_and_conditions():
    graph = parse_release_graph(
        "[conditions]\nma * -> c_a\nmb * -> c_b\n"
        "[preconditions]\nma * <- c_b\nmb * <- c_a\n")
    root = ChildSpec(id="r", module="r", kind="supervisor", children=(
        ChildSpec(id="a", module="ma", start_mode="concurrent"),
        ChildSpec(id="b", module="mb"),
    ))
    with pytest.raises(ValueError) as exc:
        critical_path(root, graph)
    assert str(exc.value) == "cyclic combined ordering (stuck at r/a, r/b, c_a, c_b)"


def test_critical_path_unset_condition_detected():
    graph = parse_release_graph(
        "[conditions]\nghost * -> c_g\n[preconditions]\nma * <- c_g\n")
    root = ChildSpec(id="a", module="ma")
    with pytest.raises(ValueError, match="never set"):
        critical_path(root, graph)


def placed_systems(seed: int) -> dict:
    """``gensys.random_system(seed)`` as {placement: (tree, graph)}: every
    node sequential (root), the seeded random placement (tagged), or every
    non-root node concurrent (all)."""
    system = random_system(seed)
    trees = (system.root, system.tagged_root(), system.tagged_root(all_concurrent=True))
    return {placement: (tree, system.graph) for placement, tree in zip(PLACEMENTS, trees)}


def prediction_text(tree, graph, force_sequential: bool) -> str:
    """``repr`` of the prediction, or the kind of its ValueError."""
    try:
        return repr(critical_path(tree, graph, force_sequential=force_sequential))
    except ValueError as exc:
        return "cyclic" if "cyclic" in str(exc) else "never-set"


@lru_cache(maxsize=None)
def system_predictions(seed: int) -> dict:
    """{(placement, force_sequential): prediction_text} of one live system;
    kept, so that the oracle test does not predict again."""
    return {(placement, fs): prediction_text(tree, graph, fs)
            for placement, (tree, graph) in placed_systems(seed).items()
            for fs in (False, True)}


def critical_path_lines() -> list[str]:
    lines = [f"{seed} {placement} {fs}: {text}"
             for seed in SYSTEM_SEEDS
             for (placement, fs), text in system_predictions(seed).items()]
    for seed in UNCONSTRAINED_SEEDS:
        tree, graph = unconstrained_system(seed)
        lines += [f"u{seed} {fs}: {prediction_text(tree, graph, fs)}" for fs in (False, True)]
    return lines


def test_critical_path_golden():
    """Predictions and error kinds of 2400 live and 1000 unconstrained
    cases, written with the string-keyed four-milestones-per-node model
    that the per-node one replaced."""
    lines = PATHS_GOLDEN.read_text(encoding="utf-8").splitlines()
    assert critical_path_lines() == lines


def test_critical_path_matches_simulation_with_conditions():
    """The model and the event-driven oracle agree exactly on live systems
    with condition waits, wildcards and groups, in every placement."""
    for seed in SYSTEM_SEEDS:
        predictions = system_predictions(seed)
        for placement, (tree, graph) in placed_systems(seed).items():
            for fs in (False, True):
                simulated = simulate_schedule(tree, graph, force_sequential=fs)
                assert predictions[placement, fs] == repr(simulated), (seed, placement, fs)


# -- run_benchmark ----------------------------------------------------------------


def test_virtual_clock_measurement_equals_prediction():
    config = BenchConfig(TopologySpec("wide"), unit_delays(),
                         ForkPlacement.at_depth(1), repetitions=3,
                         virtual_clock=True)
    report = run_benchmark(config)
    assert report.prediction_ms is not None
    assert all(d == report.prediction_ms for d in report.durations_ms)
    assert report.wrapper_count == 10


def test_benchmark_deterministic():
    config = BenchConfig(TopologySpec("random", seed=12),
                         DelayModel("sleep", spread_ms=(1.0, 4.0), seed=12),
                         ForkPlacement.first_n(3), repetitions=2,
                         virtual_clock=True)
    assert run_benchmark(config).results == run_benchmark(config).results


def test_sequential_vs_concurrent_means():
    base = dict(topology=TopologySpec("wide"), delays=unit_delays(),
                repetitions=2, virtual_clock=True)
    seq = run_benchmark(BenchConfig(placement=ForkPlacement.none(),
                                    mode="sequential", **base))
    conc = run_benchmark(BenchConfig(placement=ForkPlacement.at_depth(1),
                                     mode="concurrent", **base))
    assert conc.mean_ms <= seq.mean_ms
    assert seq.mean_ms == 111.0  # sum of unit delays


def test_wall_clock_durations_bounded_below_by_model():
    # real sleeps only ever overshoot: measured >= prediction, and a
    # sequential run takes at least the sum of all delays
    tree = gen_topology(TopologySpec("wide", branching=4, depth=1),
                        DelayModel("sleep", 5.0))
    total = 5.0 * node_count(tree)
    seq = run_benchmark(BenchConfig(TopologySpec("wide", branching=4, depth=1),
                                    DelayModel("sleep", 5.0),
                                    ForkPlacement.none(), mode="sequential",
                                    repetitions=2))
    assert all(d >= seq.prediction_ms == total for d in seq.durations_ms)
    conc = run_benchmark(BenchConfig(TopologySpec("wide", branching=4, depth=1),
                                     DelayModel("sleep", 5.0),
                                     ForkPlacement.at_depth(1),
                                     mode="concurrent", repetitions=2))
    assert all(d >= conc.prediction_ms for d in conc.durations_ms)


def test_failed_repetitions_reported():
    graph = parse_release_graph(
        "[conditions]\nghost * -> c_g\n[preconditions]\nn0 * <- c_g\n")
    config = BenchConfig(TopologySpec("wide"), DelayModel("sleep", 1.0),
                         ForkPlacement.none(), repetitions=2,
                         virtual_clock=True, deadlock_timeout_ms=50.0,
                         graph=graph)
    report = run_benchmark(config)
    assert report.results == (None, None)
    assert len(report.failures) == 2
    assert report.mean_ms is None


# -- CSV -----------------------------------------------------------------------------


def test_csv_five_repetitions_six_lines(tmp_path):
    config = BenchConfig(TopologySpec("wide"), unit_delays(),
                         ForkPlacement.at_depth(1), repetitions=5,
                         virtual_clock=True)
    report = run_benchmark(config)
    out = tmp_path / "bench.csv"
    emit_csv(report, out)
    assert len(out.read_text().strip().splitlines()) == 6


def test_csv_round_trip_and_append(tmp_path):
    out = tmp_path / "bench.csv"
    config1 = BenchConfig(TopologySpec("wide"), unit_delays(),
                          ForkPlacement.at_depth(1), repetitions=2,
                          virtual_clock=True)
    config2 = BenchConfig(TopologySpec("deep"), unit_delays(),
                          ForkPlacement.at_depth(2), repetitions=2,
                          virtual_clock=True)
    report1 = run_benchmark(config1)
    report2 = run_benchmark(config2)
    emit_csv(report1, out)
    emit_csv(report2, out, append=True)
    rows = read_csv(out)
    assert len(rows) == 4
    assert [r["topology"] for r in rows] == ["wide", "wide", "deep", "deep"]
    assert tuple(r["duration_ms"] for r in rows[:2]) == report1.results
    assert tuple(r["duration_ms"] for r in rows[2:]) == report2.results
    assert rows[2]["fork_depth"] == 2
    assert rows[0]["prediction_ms"] == report1.prediction_ms


if __name__ == "__main__":
    # Regenerate the prediction golden (only for an intended change of model):
    #     PYTHONPATH=src python tests/test_bench.py
    PATHS_GOLDEN.write_text("".join(line + "\n" for line in critical_path_lines()),
                            encoding="utf-8")
