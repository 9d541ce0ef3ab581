"""Print what one virtual-clock boot costs in parks and thread switches.

Builds the deps-mesh and fork-deep benchmark workloads (seed 1) through
``perfbench/workloads.py``, boots each 20 times under ``VirtualClock`` and
prints, per workload, the median per boot of three counts: parks (calls of
``VirtualClock._park``, counted by wrapping it from outside the package),
and the process's voluntary and involuntary context switches
(``resource.getrusage``, ``ru_nvcsw`` and ``ru_nivcsw``) around
``boot_system``.  Parks are fixed by the workload; the switch counts move
with the host.  Standard library only; it takes no options.

    python tools/handoffs.py
"""

from __future__ import annotations

import gc
import resource
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import treeboot as tb  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

BOOTS = 20
NAMES = ("deps-mesh", "fork-deep")


def boot_counts(graph, tree) -> tuple[int, int, int]:
    """Parks, voluntary and involuntary switches of one boot."""
    parks = 0
    park = tb.VirtualClock._park

    def counted(self, waiter, deadline):
        nonlocal parks
        parks += 1
        return park(self, waiter, deadline)

    gc.collect()
    tb.VirtualClock._park = counted
    try:
        before = resource.getrusage(resource.RUSAGE_SELF)
        tb.boot_system(graph, [("app", tree)], clock=tb.VirtualClock())
        after = resource.getrusage(resource.RUSAGE_SELF)
    finally:
        tb.VirtualClock._park = park
    return parks, after.ru_nvcsw - before.ru_nvcsw, after.ru_nivcsw - before.ru_nivcsw


def main() -> int:
    print(f"median per VirtualClock boot of {BOOTS} (seed 1)")
    print(f"{'workload':<10} {'parks':>6} {'voluntary':>10} {'involuntary':>12}")
    for name in NAMES:
        inputs = WORKLOADS[name].build(1)
        graph = tb.parse_release_graph(inputs.graph_text)
        tree = tb.parse_tree(inputs.tree_text)
        rows = [boot_counts(graph, tree) for _ in range(BOOTS)]
        parks, voluntary, involuntary = (statistics.median(column) for column in zip(*rows))
        print(f"{name:<10} {parks:>6g} {voluntary:>10g} {involuntary:>12g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
