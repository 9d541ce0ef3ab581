#!/usr/bin/env python3
"""Layered boot benchmark for treeboot.

    python3 perfbench/run.py --workload seq-deep --seed 1 --seconds 40 --trace 0

Builds one workload from the seed (see workloads.py), then loads, predicts,
boots and verifies it over and over for ``--seconds``, checking every boot.
It prints every metric by name and unit, and as its last line one JSON
object: the end-to-end metrics with ``--trace 0``, the per-layer metrics
of a traced run with ``--trace 1``.  ``--workload all`` runs every
workload in turn.  perfbench/README.md explains how to read the numbers.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

WALL_LIMIT_S = 150.0  # stop adding boots past this, whatever the counts


def _git_sha() -> str:
    """HEAD of the checkout, read without running git; 'unknown' outside one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _meta(args) -> dict:
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace,
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "nproc": len(os.sched_getaffinity(0)), "git": _git_sha(),
        "gc": {"enabled": gc.isenabled(), "thresholds": list(gc.get_threshold())},
    }


def _run_all(args, names) -> int:
    """Every workload in turn, each in its own process."""
    worst = 0
    for name in names:
        done = subprocess.run([sys.executable, __file__, "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)], check=False)
        worst = max(worst, done.returncode)
    return worst


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="a workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    started = time.perf_counter()
    sys.path.insert(0, str(SRC))
    try:
        import treeboot as tb
    except ImportError as exc:
        print(f"error: cannot import treeboot from {SRC}: {exc}", file=sys.stderr)
        return 2
    if SRC not in Path(tb.__file__).resolve().parents:
        print(f"error: treeboot came from {tb.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    from measure import end_to_end, measure, moves, per_layer
    from spans import Tracer
    from workloads import WORKLOADS

    import_s = time.perf_counter() - started
    if args.workload == "all":
        return _run_all(args, WORKLOADS)
    workload = WORKLOADS.get(args.workload)
    if workload is None:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    tracer = Tracer() if args.trace else None
    run, setup_s, steps = measure(workload, args.seed, args.seconds, tracer,
                                  until=started + WALL_LIMIT_S)
    setup_s += import_s

    meta = _meta(args)
    print(f"# workload={meta['workload']} seed={meta['seed']} seconds={meta['seconds']:g} "
          f"trace={meta['trace']} steps={steps}")
    print(f"# python={meta['python']} nproc={meta['nproc']} git={meta['git']} "
          f"gc={'on' if meta['gc']['enabled'] else 'off'} "
          f"thresholds={','.join(map(str, meta['gc']['thresholds']))}")
    boots = len(run.times["concurrent.boot_ms"])
    correct = not run.problems and boots > 0 and (not tracer or bool(run.layers))
    if not correct:
        result, extra = {}, {}
    elif tracer:
        result, extra = per_layer(run), {}
        for name, (value, unit) in result.items():
            print(f"{name:26s} {value:14.4f} {unit:6s} {moves(name)}")
    else:
        result, extra = end_to_end(run, setup_s)
        for name, (value, unit) in {**result, **extra}.items():
            note = ""
            if name == "boot_ms.p90":
                beyond = sum(b > value for b in run.times["concurrent.boot_ms"])
                note = f"(n={boots} boots, {beyond} beyond)"
            elif name == "virtual_ms":
                note = "(== critical_path() on every boot)"
            print(f"{name:26s} {value:14.4f} {unit:6s} {note}")
    counts = run.counts("traced" if tracer else "concurrent")
    print("# counts, identical on every boot: "
          + " ".join(f"{k}={v:g}" for k, v in counts.items()))
    for line in run.errors[:5] + run.problems[:10]:
        print(f"# FAIL {line}", file=sys.stderr)

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {"meta": meta, "metrics": {k: v for k, (v, _) in {**result, **extra}.items()},
              "counts": counts, "attempted": run.attempted, "failed": run.failed,
              "errors": run.errors[:20], "problems": run.problems[:20]}
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if tracer:  # the spans of the last traced boot
        with open(OUT / f"{stem}-spans.jsonl", "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"boot": len(run.layers["suptree.nodes"]), "fields": [
                "id", "parent", "name", "thread", "wall_t0_ns", "wall_t1_ns",
                "cpu_t0_ns", "cpu_t1_ns"]}) + "\n")
            for span in run.last_spans:
                fh.write(json.dumps(span) + "\n")

    print(json.dumps({
        "correct": bool(correct), "attempted": run.attempted, "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
