"""Sequential vs concurrent startup on the standard tree topologies.

Runs the deep (3-regular, depth 6), wide (10-regular, depth 2), and random
trees under a virtual clock with per-node sleep inits, sweeping fork-point
placements, and compares measured durations with the analytic critical
path (they agree exactly under virtual time).  Writes a CSV next to this
script.

Run:
    python demos/demo_benchmark.py
"""

from pathlib import Path

from treeboot import (
    BenchConfig,
    DelayModel,
    ForkPlacement,
    TopologySpec,
    emit_csv,
    run_benchmark,
)

OUT = Path(__file__).parent / "benchmark.csv"


def main():
    delays = DelayModel("sleep", 10.0)
    configs = []
    for kind in ("deep", "wide", "random"):
        topology = TopologySpec(kind, seed=7 if kind == "random" else 0)
        configs.append(("sequential", BenchConfig(
            topology, delays, ForkPlacement.none(), mode="sequential",
            repetitions=3, virtual_clock=True)))
        for placement in (ForkPlacement.at_depth(1), ForkPlacement.at_depth(2),
                          ForkPlacement.first_n(4)):
            configs.append(("concurrent", BenchConfig(
                topology, delays, placement, mode="concurrent",
                repetitions=3, virtual_clock=True)))

    if OUT.exists():
        OUT.unlink()
    print(f"{'topology':<8} {'mode':<11} {'placement':<9} "
          f"{'forks':>5} {'mean ms':>9} {'predicted':>9}")
    for label, config in configs:
        report = run_benchmark(config)
        emit_csv(report, OUT, append=True)
        print(f"{config.topology.kind:<8} {label:<11} "
              f"{config.placement.label():<9} {report.tagged_count:>5} "
              f"{report.mean_ms:>9.1f} {report.prediction_ms:>9.1f}")
    print(f"\nwrote {OUT}")


if __name__ == "__main__":
    main()
