"""Golden violation lists: ``check_trace`` must keep its rules, messages and order.

Each case checks one booted trace, clean or mutated, against its tree and
graph, and the golden file holds the violations it must return, in order.

* **Sequential-mode boots** of ``gensys.random_system`` seeds 0-19, checked
  against the tagged tree.  One thread emits every event, so the trace is
  fixed and so are the mutations, which are drawn by position from a
  seeded ``random.Random``: drop an event, swap two seqs, move or repeat an
  event, drop every event of one kind or of one node, add a stray node or
  a stray wrapper, or shuffle the list without changing a seq.  The
  golden pins the whole ``render()`` line, seqs included.
* **Concurrent boots** of seeds 0-9, wrappers included.  Threads active at
  the same virtual instant emit in OS scheduling order, so the seqs are
  not fixed.  The mutations therefore pick their events by node path, not
  by position: drop a wrapper's ``attach``, move a wrapper's ``ack`` after
  its child's ``init_end``, drop a node's ``ack``, remove every
  ``condition_set``, swap a node's ``wait_end`` and ``init_begin``, request
  a slot before its older sibling acks, add a stray node, and, after a
  crash injected under a wrapper, drop the wrapper's ``terminate``.  The
  golden pins ``code: message`` only.

Regenerate the file (only for an intended change of the rules) with::

    PYTHONPATH=src python tests/test_check_trace_golden.py
"""

from __future__ import annotations

import random
from functools import cache
from pathlib import Path

import pytest

from treeboot import VirtualClock, boot_system, check_trace

from gensys import random_system

GOLDEN = Path(__file__).parent / "golden" / "check_trace.txt"
SEQUENTIAL_SEEDS = range(20)
CONCURRENT_SEEDS = range(10)
APP = "sys"
WRAP = "#wrap"


def boot_events(system, tree, mode: str):
    result = boot_system(system.graph, [(APP, tree)], mode=mode, clock=VirtualClock(),
                         deadlock_timeout_ms=60_000)
    return result, result.system.trace.events


def renumbered(events):
    return [event._replace(seq=seq) for seq, event in enumerate(events)]


def positional_mutations(events, rng: random.Random):
    """(name, mutated events) pairs, each drawn by position from ``rng``."""
    n = len(events)
    nodes = sorted({e.node for e in events} - {"-"})
    kinds = sorted({e.kind for e in events})

    k = rng.randrange(n)
    yield f"drop {k}", events[:k] + events[k + 1:]

    a, b = rng.sample(range(n), 2)
    swapped = list(events)
    swapped[a], swapped[b] = events[a]._replace(seq=b), events[b]._replace(seq=a)
    yield f"swap {a} {b}", swapped

    k, to = rng.randrange(n), rng.randrange(n)
    moved = list(events)
    moved.insert(to, moved.pop(k))
    yield f"move {k} to {to}", renumbered(moved)

    k = rng.randrange(1, n)
    to = rng.randrange(k)
    yield f"repeat {k} at {to}", renumbered(events[:to] + [events[k]] + events[to:])

    kind = rng.choice(kinds)
    yield f"drop kind {kind}", [e for e in events if e.kind != kind]

    node = rng.choice(nodes)
    yield f"drop node {node}", [e for e in events if e.node != node]

    k = rng.randrange(n + 1)
    stray = events[0]._replace(kind="ack", node=f"{rng.choice(nodes)}/ghost", detail=())
    yield f"stray node at {k}", renumbered(events[:k] + [stray] + events[k:])

    k = rng.randrange(n + 1)
    stray = events[0]._replace(kind="start_request", node=rng.choice(nodes) + WRAP,
                               detail=())
    yield f"stray wrapper at {k}", renumbered(events[:k] + [stray] + events[k:])

    shuffled = list(events)
    rng.shuffle(shuffled)
    yield "shuffled", shuffled


def sequential_cases(seed: int) -> dict[str, list[str]]:
    system = random_system(seed)
    tree = system.tagged_root()
    _, events = boot_events(system, tree, "sequential")
    cases = {"clean": events, **dict(positional_mutations(events, random.Random(seed)))}
    return {f"seq seed={seed} {name}": [v.render() for v in
                                        check_trace(mutated, system.graph, [(APP, tree)])]
            for name, mutated in cases.items()}


def moved(events, moving, anchor, *, after=False):
    """``events`` in seq order, renumbered, with ``moving`` placed right
    before (or ``after``) ``anchor``."""
    rest = [e for e in sorted(events, key=lambda e: e.seq) if e is not moving]
    at = rest.index(anchor) + after
    return renumbered(rest[:at] + [moving] + rest[at:])


def path_mutations(tree, events, rng: random.Random):
    """(name, mutated events) pairs that pick their events by node path."""
    def find(node, kind):
        return next(e for e in events if e.node == node and e.kind == kind)

    walk = list(tree.walk(f"{APP}/{tree.id}"))
    paths = [path for path, _, _, _ in walk]
    wrapped = [path for path, spec, parent, _ in walk
               if parent is not None and spec.start_mode == "concurrent"]

    def slot(path):
        return path + WRAP if path in wrapped else path

    if wrapped:
        child = rng.choice(wrapped)
        wrapper = child + WRAP
        yield f"drop attach {wrapper}", [e for e in events
                                          if not (e.node == wrapper and e.kind == "attach")]
        yield f"late ack {wrapper}", moved(events, find(wrapper, "ack"),
                                            find(child, "init_end"), after=True)

    node = rng.choice(paths)
    yield f"drop ack {node}", [e for e in events if not (e.node == node and e.kind == "ack")]

    yield "drop condition_set", [e for e in events if e.kind != "condition_set"]

    node = rng.choice(paths)
    wait_end, init_begin = find(node, "wait_end"), find(node, "init_begin")
    swapped = [e for e in events if e is not wait_end and e is not init_begin]
    swapped += [wait_end._replace(seq=init_begin.seq), init_begin._replace(seq=wait_end.seq)]
    yield f"swap wait_end init_begin {node}", swapped

    pairs = [(f"{path}/{a.id}", f"{path}/{b.id}") for path, spec, _, _ in walk
             for a, b in zip(spec.children, spec.children[1:])]
    if pairs:
        older, younger = rng.choice(pairs)
        yield (f"early request {slot(younger)}",
               moved(events, find(slot(younger), "start_request"),
                     find(slot(older), "ack")))

    stray = events[0]._replace(kind="start_request", node=f"{paths[0]}/ghost", detail=())
    yield "stray node", events + [stray._replace(seq=len(events))]


def concurrent_cases(seed: int) -> dict[str, list[str]]:
    system = random_system(seed)
    tree = system.tagged_root()
    rng = random.Random(seed)
    _, events = boot_events(system, tree, "as-specified")
    cases = {"clean": events, **dict(path_mutations(tree, events, rng))}

    wrapped = sorted(path for path, spec, parent, _ in tree.walk(f"{APP}/{tree.id}")
                     if parent is not None and spec.start_mode == "concurrent")
    if wrapped:
        child = rng.choice(wrapped)
        result, _ = boot_events(system, tree, "as-specified")
        runtime = result.system.runtime
        runtime.inject_crash(result.system.find(child))
        runtime.await_quiescence()
        crashed = result.system.trace.events
        cases[f"crash {child}"] = crashed
        cases[f"crash {child} drop terminate"] = [
            e for e in crashed if not (e.node == child + WRAP and e.kind == "terminate")]
    return {f"conc seed={seed} {name}": [f"{v.code}: {v.message}" for v in
                                         check_trace(mutated, system.graph, [(APP, tree)])]
            for name, mutated in cases.items()}


@cache
def golden() -> dict[str, list[str]]:
    sections: dict[str, list[str]] = {}
    for line in GOLDEN.read_text(encoding="utf-8").splitlines():
        if line.startswith("== "):
            current = sections.setdefault(line[3:], [])
        else:
            current.append(line)
    return sections


def golden_for(prefix: str) -> dict[str, list[str]]:
    return {title: lines for title, lines in golden().items() if title.startswith(prefix)}


@pytest.mark.parametrize("seed", SEQUENTIAL_SEEDS)
def test_sequential_check_trace_golden(seed):
    assert sequential_cases(seed) == golden_for(f"seq seed={seed} ")


@pytest.mark.parametrize("seed", CONCURRENT_SEEDS)
def test_concurrent_check_trace_golden(seed):
    assert concurrent_cases(seed) == golden_for(f"conc seed={seed} ")


if __name__ == "__main__":
    sections = {}
    for seed in SEQUENTIAL_SEEDS:
        sections.update(sequential_cases(seed))
    for seed in CONCURRENT_SEEDS:
        sections.update(concurrent_cases(seed))
    GOLDEN.write_text("".join(f"== {title}\n" + "".join(line + "\n" for line in lines)
                              for title, lines in sections.items()), encoding="utf-8")
