"""The demos run end to end: each exits 0, and the benchmark demo's
measured means equal its predictions on every row."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent
DEMOS = ROOT / "demos"
CSV = DEMOS / "benchmark.csv"


def run_demo(name: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, str(DEMOS / name)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    return proc


@pytest.mark.parametrize("name", ["demo_deadlock.py", "demo_two_apps.py",
                                  "demo_wrapper_restarts.py"])
def test_demo_exits_0(name):
    run_demo(name)


def test_demo_benchmark_measures_its_predictions():
    existed = CSV.exists()
    try:
        out = run_demo("demo_benchmark.py").stdout
    finally:
        if not existed:
            CSV.unlink(missing_ok=True)
    header, *rows = out.split("\n\n")[0].splitlines()
    assert header.split()[-2:] == ["ms", "predicted"]
    assert len(rows) == 12  # three topologies x (sequential + three placements)
    for row in rows:
        mean_ms, predicted = row.split()[-2:]
        assert mean_ms == predicted, row
