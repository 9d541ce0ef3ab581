"""The benchmark's gated workloads run end to end and stay correct.

One traced step of each workload, with no timed repetitions: the run must
exit 0, check every boot, and print the same deterministic counts as
before (events, threads spawned, condition flips, blocked waits, waiter
scans).  Timings are not asserted.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent

COUNTS = {
    "seq-deep": {"tracing.emit.calls": 6558, "clock.spawn.calls": 0, "condsrv.set.flips": 0,
                 "condsrv.wait.blocked": 0, "condsrv.waiter_scans": 0},
    "deps-mesh": {"tracing.emit.calls": 4646, "clock.spawn.calls": 16, "condsrv.set.flips": 656,
                  "condsrv.wait.blocked": 192, "condsrv.waiter_scans": 2424},
}


@pytest.mark.parametrize("workload", sorted(COUNTS))
def test_perfbench_workload_runs_correctly(workload):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "0", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    lines = proc.stdout.splitlines()
    record = json.loads(lines[-1])
    assert record["correct"] is True and record["failed"] == 0 and record["attempted"] > 0
    counts_line = next(line for line in lines if line.startswith("# counts"))
    counts = dict(item.split("=") for item in counts_line.split(": ", 1)[1].split())
    assert {name: int(value) for name, value in counts.items()} == COUNTS[workload]
