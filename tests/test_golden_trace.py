"""Golden traces: the trace wire format and event order must not drift.

Two systems boot under the virtual clock: the two-application demo release
(``demos/data/two_apps.rel``) and ``gensys.random_system(7)``.

* Booted with ``mode="sequential"`` one thread emits every event, so the
  whole of ``TraceSink.to_lines()``, seq and ts included, is fixed.
* Booted as specified (concurrent), threads that are active at the same
  virtual instant emit in whatever order the OS schedules them, so the seq
  order is not fixed: with ``sys.setswitchinterval(1e-6)`` the random
  system gave ten different orders in fifteen boots.  What is fixed is every
  event's timestamp, kind, node and detail, so the golden file holds the
  lines without their seq field, sorted.

Regenerate the files (only for an intended format change) with::

    PYTHONPATH=src python tests/test_golden_trace.py
"""

from __future__ import annotations

from pathlib import Path

import pytest

from treeboot import VirtualClock, boot, boot_system, parse_release

from gensys import random_system

GOLDEN = Path(__file__).parent / "golden"
DEMO_DATA = Path(__file__).parent.parent / "demos" / "data"
SYSTEMS = ("two_apps", "random7")


def boot_lines(system: str, mode: str) -> list[str]:
    if system == "two_apps":
        release = parse_release((DEMO_DATA / "two_apps.rel").read_text(), base_dir=DEMO_DATA)
        result = boot(release, base_dir=DEMO_DATA, mode=mode, clock=VirtualClock())
    else:
        gen = random_system(7)
        result = boot_system(gen.graph, [("app", gen.tagged_root())], mode=mode,
                             clock=VirtualClock())
    return result.system.trace.to_lines()


def without_seq(lines: list[str]) -> list[str]:
    return sorted(line.split(" ", 1)[1] for line in lines)


def golden(name: str) -> list[str]:
    return (GOLDEN / name).read_text(encoding="utf-8").splitlines()


@pytest.mark.parametrize("system", SYSTEMS)
def test_sequential_trace_is_byte_identical(system):
    assert boot_lines(system, "sequential") == golden(f"{system}.sequential.trace")


@pytest.mark.parametrize("system", SYSTEMS)
def test_concurrent_trace_has_the_golden_events(system):
    lines = boot_lines(system, "as-specified")
    fields = [line.split(" ", 2) for line in lines]
    assert [int(seq) for seq, _, _ in fields] == list(range(len(lines)))
    stamps = [float(ts) for _, ts, _ in fields]
    assert stamps == sorted(stamps)
    assert without_seq(lines) == golden(f"{system}.concurrent.events")


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for system in SYSTEMS:
        (GOLDEN / f"{system}.sequential.trace").write_text(
            "".join(line + "\n" for line in boot_lines(system, "sequential")),
            encoding="utf-8")
        (GOLDEN / f"{system}.concurrent.events").write_text(
            "".join(line + "\n" for line in without_seq(boot_lines(system, "as-specified"))),
            encoding="utf-8")
