"""tools/handoffs.py runs and prints one row of counts per workload.

Only the output's shape and the park count are checked: the context
switch counts move with the host.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).parent.parent


def test_handoffs_prints_parks_and_switches_per_workload():
    proc = subprocess.run([sys.executable, "tools/handoffs.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    lines = proc.stdout.splitlines()
    assert lines[1].split() == ["workload", "parks", "voluntary", "involuntary"]
    rows = {line.split()[0]: line.split()[1:] for line in lines[2:]}
    assert sorted(rows) == ["deps-mesh", "fork-deep"]
    for counts in rows.values():
        assert len(counts) == 3 and all(float(c) >= 0 for c in counts)
    assert rows["deps-mesh"][0] == "840"
