"""Golden load outcomes: what loading a release's graph and tree gives,
for clean and structurally mutated inputs.

Each case serializes the graph and the tree of one ``gensys.random_system``
seed, applies at most one mutation to one of the two texts, and loads
both: ``parse_release_graph`` and then ``cycle_check`` for the graph,
``parse_tree`` for the tree.  A golden line records

* for the graph, every rendered diagnostic of the ``GraphError``, or a
  digest of the re-serialized graph and its cycle witness;
* for the tree, the ``TreeError`` message and line, or a digest of the
  re-serialized tree.

The mutations are drawn from a seeded ``random.Random`` per system: drop a
token, duplicate a line, put in a bad identifier, put in a bad or wildcard
args token, add an unknown key or section, indent a line oddly, put in a
tab, and put in a bad or changed value.  Each one picks its text (graph
or tree) and its line from the same generator.

Regenerate the file (only for an intended change of a parser) with::

    PYTHONPATH=src:tests python tests/test_load_outcomes_golden.py
"""

from __future__ import annotations

import hashlib
import random
from pathlib import Path

from treeboot import (GraphError, TreeError, parse_release_graph, parse_tree,
                      serialize_release_graph, serialize_tree)

from gensys import random_system

GOLDEN = Path(__file__).parent / "golden" / "load_outcomes.txt"
SEEDS = range(300)

_BAD_IDENTS = ("9x", "a-b", "x/y", "été", "a#b", ".x", "x.y", "")
_GRAPH_ARGS = ("n1", "[n1", "n1]", "[]", "*", "[a]]", "[é]")
_TREE_ARGS = ("", "*", "[x", "[]", "[n1]", "a b")
_GRAPH_VALUES = ("->", "<-", "=", ",", "x,", ", x", "[conditions]", "[groups]")
_TREE_VALUES = ("init=sleep:x", "init=sleep:-1", "init=nap:1", "init=busy:2",
                "init=fail", "init=none", "mode=parallel", "mode=concurrent",
                "restart=temporary", "restart=never", "restarts=1/5", "restarts=x/5",
                "restarts=2", "module=", "=", "init=sleep:1e3")


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def _pick_line(lines: list[str], rng: random.Random) -> int:
    candidates = [i for i, line in enumerate(lines) if line.strip()]
    return rng.choice(candidates)


def mutate(kind: str, target: str, text: str, rng: random.Random) -> tuple[str, str]:
    """One mutation of ``text`` (the graph's or the tree's): (where, new text)."""
    lines = text.split("\n")
    i = _pick_line(lines, rng)
    line = lines[i]
    indent = line[:len(line) - len(line.lstrip(" "))]
    tokens = line.split()
    graph = target == "graph"
    if kind == "drop":
        k = rng.randrange(len(tokens))
        lines[i] = indent + " ".join(tokens[:k] + tokens[k + 1:])
    elif kind == "dup":
        lines.insert(rng.randrange(len(lines)), line)
    elif kind == "ident":
        bad = rng.choice(_BAD_IDENTS)
        if graph:
            k = rng.choice([j for j, t in enumerate(tokens) if t not in ("->", "<-", "=")])
            tokens[k] = bad + ("," if tokens[k].endswith(",") else "")
        else:
            tokens[1 if len(tokens) > 1 else 0] = bad
        lines[i] = indent + " ".join(tokens)
    elif kind == "args":
        if graph and len(tokens) > 2 and tokens[2] in ("->", "<-"):
            tokens[1] = rng.choice(_GRAPH_ARGS)
        elif graph:
            tokens.insert(1, rng.choice(_GRAPH_ARGS))
        else:
            tokens = [t for t in tokens if not t.startswith("args=")]
            tokens.append("args=" + rng.choice(_TREE_ARGS))
        lines[i] = indent + " ".join(tokens)
    elif kind == "unknown":
        if graph and rng.random() < 0.5:
            lines.insert(i, rng.choice(("[widgets]", "[ conditions ]", "[]", "[Groups]")))
        elif graph:
            lines[i] = indent + " ".join(tokens + [rng.choice(("extra", "-> x", "<- y"))])
        else:
            lines[i] = indent + " ".join(tokens + [rng.choice(("colour=red", "junk",
                                                                "shutdown=brutal"))])
    elif kind == "indent":
        lines[i] = rng.choice((" ", "   ", "  ", "")) + line[rng.choice((0, 1, 2)):]
    elif kind == "tab":
        spaces = [j for j, c in enumerate(line) if c == " "]
        j = rng.choice(spaces) if spaces else 0
        lines[i] = line[:j] + "\t" + line[j + 1:]
    elif kind == "value":
        if graph:
            k = rng.randrange(len(tokens))
            tokens[k] = rng.choice(_GRAPH_VALUES)
        else:
            tokens.append(rng.choice(_TREE_VALUES))
        lines[i] = indent + " ".join(tokens)
    else:
        raise ValueError(kind)
    return f"{target}:{i + 1}", "\n".join(lines)


MUTATIONS = ("drop", "dup", "ident", "args", "unknown", "indent", "tab", "value")


def graph_outcome(text: str) -> str:
    try:
        graph = parse_release_graph(text)
    except GraphError as exc:
        return "; ".join(d.render() for d in exc.diagnostics)
    witness = graph.cycle_check()
    shown = "-" if witness is None else " ".join(str(k) for k in witness)
    return f"ok {_digest(serialize_release_graph(graph))} cycle {shown}"


def tree_outcome(text: str) -> str:
    try:
        root = parse_tree(text)
    except TreeError as exc:
        return f"TreeError line {exc.line}: {exc}"
    return f"ok {_digest(serialize_tree(root))}"


def case_lines(seed: int) -> tuple[str, ...]:
    system = random_system(seed, max_depth=3)
    texts = {"graph": serialize_release_graph(system.graph),
             "tree": serialize_tree(system.tagged_root())}
    rng = random.Random(f"load-{seed}")
    out = [f"{seed} clean: graph {graph_outcome(texts['graph'])}"
           f" | tree {tree_outcome(texts['tree'])}"]
    for kind in MUTATIONS:
        target = rng.choice(("graph", "tree")) if texts["graph"] else "tree"
        where, text = mutate(kind, target, texts[target], rng)
        mutated = dict(texts, **{target: text})
        out.append(f"{seed} {kind} {where}: graph {graph_outcome(mutated['graph'])}"
                   f" | tree {tree_outcome(mutated['tree'])}")
    return tuple(out)


def all_lines() -> list[str]:
    return [line for seed in SEEDS for line in case_lines(seed)]


def test_load_outcomes_golden():
    """Diagnostics, tree errors, re-serialized digests and witnesses of 2700
    loads, written with the parsers that the one-pass parsers replaced."""
    expected = GOLDEN.read_text(encoding="utf-8").splitlines()
    actual = all_lines()
    assert len(actual) == len(expected)
    for want, got in zip(expected, actual):
        assert got == want


if __name__ == "__main__":
    GOLDEN.write_text("\n".join(all_lines()) + "\n", encoding="utf-8")
