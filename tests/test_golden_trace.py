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

The failure paths have goldens of their own, one section per
configuration in ``failures.sequential.trace``,
``failures.concurrent.events`` and ``cascade.concurrent.events``: a
three-level tree whose leaf init fails its first k calls (k = 1, 2 or
always) under restart budgets 0, 1 and 3, booted in both modes, and a crash
injected under a wrapper that escalates through two supervisors.  Each
section starts with the boot outcome (for the crash also its hops and its
terminate events in order), so the terminate order, the terminate
reasons and the escalation decisions are all pinned.

Regenerate the files (only for an intended format change) with::

    PYTHONPATH=src python tests/test_golden_trace.py
"""

from __future__ import annotations

from pathlib import Path

import pytest

from treeboot import (
    ChildSpec,
    InitModel,
    StartupError,
    SupervisorFlags,
    TraceSink,
    VirtualClock,
    boot,
    boot_system,
    parse_release,
    parse_release_graph,
)

from gensys import random_system

GOLDEN = Path(__file__).parent / "golden"
DEMO_DATA = Path(__file__).parent.parent / "demos" / "data"
SYSTEMS = ("two_apps", "random7")
BUDGETS = (0, 1, 3)
FAILS = (1, 2, None)  # None: the leaf init always fails
FAILURE_CONFIGS = [(budget, fails) for budget in BUDGETS for fails in FAILS]
FAILURE_GRAPH = parse_release_graph(
    "[conditions]\nleaf * -> cond_leaf\n[preconditions]\ne * <- cond_leaf\n")


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


def failure_tree(budget: int, flaky) -> ChildSpec:
    """root > mid > inner > leaf, every supervisor with ``budget`` restarts.

    The concurrent slots finish before any leaf init fails, so no starter
    thread is still running when a failed boot raises."""
    flags = SupervisorFlags(budget, 5.0)

    def sup(node_id, *children, init=InitModel()):
        return ChildSpec(id=node_id, module=node_id, kind="supervisor", init=init,
                         flags=flags, children=children)

    def worker(node_id, init=InitModel.sleep(1), mode="sequential"):
        return ChildSpec(id=node_id, module=node_id, init=init, start_mode=mode)

    return sup(
        "root",
        worker("a", mode="concurrent"),
        sup("mid",
            worker("b", mode="concurrent"),
            sup("inner", worker("c"), worker("leaf", InitModel.call(flaky)), worker("d"),
                init=InitModel.sleep(2)),
            init=InitModel.sleep(2)),
        worker("e"),
    )


def failure_lines(budget: int, fails: int | None, mode: str) -> list[str]:
    calls = 0

    def flaky(args):
        nonlocal calls
        calls += 1
        if fails is None or calls <= fails:
            raise RuntimeError("flaky init")

    trace = TraceSink()
    try:
        boot_system(FAILURE_GRAPH, [("app", failure_tree(budget, flaky))], mode=mode,
                    clock=VirtualClock(), trace=trace)
        outcome = "ok"
    except StartupError as exc:
        outcome = f"StartupError {exc.node_path}"
    lines = trace.to_lines()
    return [f"outcome {outcome} leaf-calls {calls}",
            *(lines if mode == "sequential" else without_seq(lines))]


def cascade_lines(top_budget: int) -> list[str]:
    """Crash the child of a wrapper under two zero-budget supervisors."""
    top = ChildSpec(
        id="top", module="top", kind="supervisor", flags=SupervisorFlags(top_budget, 5.0),
        children=(ChildSpec(
            id="s2", module="s2", kind="supervisor", flags=SupervisorFlags(0, 1.0),
            children=(
                ChildSpec(id="x", module="x", init=InitModel.sleep(1)),
                ChildSpec(
                    id="s1", module="s1", kind="supervisor", flags=SupervisorFlags(0, 1.0),
                    children=(
                        ChildSpec(id="y", module="y", init=InitModel.sleep(1)),
                        ChildSpec(id="c", module="c", init=InitModel.sleep(2),
                                  start_mode="concurrent"),
                        ChildSpec(id="z", module="z", init=InitModel.sleep(1)),
                    )),
            )),))
    result = boot_system(FAILURE_GRAPH, [("app", top)], clock=VirtualClock())
    runtime = result.system.runtime
    crash = runtime.inject_crash(result.system.find("app/top/s2/s1/c"))
    try:
        runtime.await_quiescence()
        outcome = "ok"
    except StartupError as exc:
        outcome = f"StartupError {exc.node_path}"
    hops = " ".join(f"{path}={decision}" for path, decision in crash.hops)
    # One thread handles the crash, so the terminate events keep their order.
    events = result.system.trace.events
    terminates = " ".join(f"{e.node}={e.get('reason')}" for e in events
                          if e.kind == "terminate")
    return [f"hops {hops}", f"terminates {terminates}", f"outcome {outcome}",
            *without_seq(result.system.trace.to_lines())]


def section_name(budget: int, fails: int | None) -> str:
    return f"budget={budget} fails={'always' if fails is None else fails}"


def write_sections(name: str, sections: dict[str, list[str]]) -> None:
    (GOLDEN / name).write_text(
        "".join(f"== {title}\n" + "".join(line + "\n" for line in lines)
                for title, lines in sections.items()),
        encoding="utf-8")


def golden_section(name: str, title: str) -> list[str]:
    sections: dict[str, list[str]] = {}
    for line in golden(name):
        if line.startswith("== "):
            current = sections.setdefault(line[3:], [])
        else:
            current.append(line)
    return sections[title]


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


@pytest.mark.parametrize("budget, fails", FAILURE_CONFIGS)
def test_sequential_failure_trace_is_byte_identical(budget, fails):
    assert failure_lines(budget, fails, "sequential") == golden_section(
        "failures.sequential.trace", section_name(budget, fails))


@pytest.mark.parametrize("budget, fails", FAILURE_CONFIGS)
def test_concurrent_failure_trace_has_the_golden_events(budget, fails):
    assert failure_lines(budget, fails, "as-specified") == golden_section(
        "failures.concurrent.events", section_name(budget, fails))


@pytest.mark.parametrize("top_budget", (0, 1))
def test_crash_cascade_has_the_golden_hops_and_events(top_budget):
    assert cascade_lines(top_budget) == golden_section(
        "cascade.concurrent.events", f"top-budget={top_budget}")


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for system in SYSTEMS:
        (GOLDEN / f"{system}.sequential.trace").write_text(
            "".join(line + "\n" for line in boot_lines(system, "sequential")),
            encoding="utf-8")
        (GOLDEN / f"{system}.concurrent.events").write_text(
            "".join(line + "\n" for line in without_seq(boot_lines(system, "as-specified"))),
            encoding="utf-8")
    for mode, name in (("sequential", "failures.sequential.trace"),
                       ("as-specified", "failures.concurrent.events")):
        write_sections(name, {section_name(budget, fails): failure_lines(budget, fails, mode)
                              for budget, fails in FAILURE_CONFIGS})
    write_sections("cascade.concurrent.events",
                   {f"top-budget={b}": cascade_lines(b) for b in (0, 1)})
