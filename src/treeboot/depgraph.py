"""Startup dependency graphs: conditions, condition groups, preconditions.

A graph declares which named boolean *conditions* each module startup sets
and which conditions (or groups of them) a module startup must observe
before running its init.  Graphs are loaded from ``.rgraph`` files or built
programmatically, validated once, and treated as read-only afterwards:
each graph object keeps its diagnostics and its cycle witness in
``cached_property`` slots beside its lookup tables, and one start plan per
``(module, args)`` key that has started (:meth:`DependencyGraph.start_plan`).

File format (line oriented, UTF-8, ``#`` comments)::

    [conditions]
    <module> <args|*> -> <condition_name>
    [groups]
    <group_name> = <name> (, <name>)*
    [preconditions]
    <module> <args|*> <- <name> (, <name>)*

``<args>`` is an opaque bracketed token such as ``[app1_server1]``; ``*``
declares the entry for *any* arguments.  Names in group members and
precondition lists may be condition names or group names; the two share a
single namespace.  Sections may appear in any order, each at most once.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from itertools import chain

from .errors import GraphError
from .tracing import _has_whitespace, prepare_key_detail

__all__ = [
    "ModuleKey",
    "ConditionGroup",
    "Diagnostic",
    "DependencyGraph",
    "StartPlan",
    "parse_release_graph",
    "serialize_release_graph",
]

_is_ident = re.compile(r"[A-Za-z_][A-Za-z0-9_.]*\Z").match


@dataclass(frozen=True)
class ModuleKey:
    """A module name plus optional opaque argument token.

    ``args=None`` is the wildcard: the entry applies to the module started
    with *any* arguments.  Argument tokens are compared for exact equality
    only, never inspected.
    """

    module: str
    args: str | None = None

    def __str__(self) -> str:
        return self.module if self.args is None else f"{self.module}{self.args}"


@dataclass(frozen=True)
class ConditionGroup:
    name: str
    members: tuple[str, ...]


@dataclass(frozen=True)
class Diagnostic:
    severity: str  # "error" | "warning"
    code: str
    message: str
    line: int | None = None

    def render(self) -> str:
        where = f"line {self.line}: " if self.line is not None else ""
        return f"{where}{self.severity}[{self.code}] {self.message}"


_NO_NEEDS: frozenset[str] = frozenset()


class StartPlan:
    """What every start of one ``(module, args)`` key reads from the graph
    and the trace format, made once per graph by
    :meth:`DependencyGraph.start_plan`.

    ``needs`` are the expanded preconditions and ``sets`` the conditions
    the key sets, in name order; the analytic model, the condition store
    and the trace checker read them.  ``detail`` is the checked
    ``module``/``args`` trace detail of the key's start events.  ``no_wait``
    is None until the condition store's first start of the key that does
    not wait sets it to that start's ``wait_begin`` detail and
    ``WaitReport``.

    A plan is complete before any thread sees it; a key with no entry for
    its module shares one empty ``needs`` and one empty ``sets``.
    """

    __slots__ = ("module", "args", "needs", "sets", "detail", "no_wait", "set_details")

    def __init__(self, graph: "DependencyGraph", module: str, args: str | None):
        self.detail = prepare_key_detail(module, args)  # first: raises on whitespace
        self.module = module
        self.args = args
        self.needs = (frozenset(graph._expand(module, args))
                      if module in graph._precondition_modules else _NO_NEEDS)
        self.sets = graph._sets(module, args) if module in graph._setter_modules else ()
        self.no_wait = None  # (wait_begin detail, WaitReport), set by the store
        self.set_details = None  # condition_set details, one per name in sets, set by the store

    @property
    def key(self) -> ModuleKey:
        return ModuleKey(self.module, self.args)


@dataclass(frozen=True)
class DependencyGraph:
    """Vertices (conditions), groups, and edges (preconditions).

    Declaration order is preserved; equality is structural.  Instances are
    immutable, so a validated graph can be shared freely across threads.
    """

    conditions: tuple[tuple[ModuleKey, str], ...] = ()
    groups: tuple[ConditionGroup, ...] = ()
    preconditions: tuple[tuple[ModuleKey, tuple[str, ...]], ...] = ()

    def __post_init__(self):
        # (module, args) -> its start plan.  Made here, not on first use, so
        # that threads racing to the graph's first start share one table.
        object.__setattr__(self, "_plans", {})

    # -- validation (run once per graph, then read from the cache) ------

    @cached_property
    def _diagnostics(self) -> tuple[Diagnostic, ...]:
        return tuple(_validate(self.conditions, self.groups, self.preconditions))

    def validate(self) -> list[Diagnostic]:
        """Return every problem found; an empty list means usable."""
        return list(self._diagnostics)

    def require_valid(self) -> None:
        errors = [d for d in self._diagnostics if d.severity == "error"]
        if errors:
            raise GraphError(errors)

    # -- lookup tables (built lazily, graph assumed validated) ---------

    @cached_property
    def condition_names(self) -> frozenset[str]:
        return frozenset(name for _, name in self.conditions)

    @cached_property
    def _group_members(self) -> dict[str, tuple[str, ...]]:
        return {g.name: g.members for g in self.groups}

    @cached_property
    def _setter_by_condition(self) -> dict[str, ModuleKey]:
        return {name: key for key, name in self.conditions}

    @cached_property
    def _setter_modules(self) -> frozenset[str]:
        return frozenset(key.module for key, _ in self.conditions)

    @cached_property
    def _precondition_modules(self) -> frozenset[str]:
        return frozenset(key.module for key, _ in self.preconditions)

    @cached_property
    def _conditions_by_key(self) -> dict[tuple[str, str | None], list[str]]:
        """(module, args) -> the conditions its entries set; args None is
        the module's wildcard entries."""
        table: dict[tuple[str, str | None], list[str]] = {}
        for key, name in self.conditions:
            table.setdefault((key.module, key.args), []).append(name)
        return table

    @cached_property
    def _precondition_by_key(self) -> dict[tuple[str, str | None], tuple[str, ...]]:
        """(module, args) -> its precondition entry's names; args None is
        the module's wildcard entry."""
        return {(key.module, key.args): names for key, names in self.preconditions}

    # -- queries --------------------------------------------------------

    def expand_names(self, names) -> set[str]:
        """Replace group names with their member conditions."""
        out: set[str] = set()
        groups = self._group_members
        for name in names:
            members = groups.get(name)
            if members is None:
                out.add(name)
            else:
                out.update(members)
        return out

    def expand_preconditions(self, key: ModuleKey) -> set[str]:
        """All conditions the start of ``key`` must wait for.

        The exact entry for the key and the wildcard entry for the same
        module are unioned; group names are fully expanded.  Empty set when
        no entry applies.
        """
        return self._expand(key.module, key.args)

    def _expand(self, module: str, args: str | None) -> set[str]:
        table = self._precondition_by_key
        names = table.get((module, args), ())
        if args is not None:
            names += table.get((module, None), ())
        return self.expand_names(names)

    def conditions_set_by(self, module: str, args: str | None = None) -> set[str]:
        """Conditions satisfied when (module, args) finishes its init: the
        module's wildcard entries and, for exact args, that key's entries."""
        return set(self._sets(module, args))

    def _sets(self, module: str, args: str | None) -> tuple[str, ...]:
        # conditions_set_by in name order; in a valid graph a condition has
        # one entry, so the wildcard's and the exact key's names never repeat.
        table = self._conditions_by_key
        names = table.get((module, None), [])
        if args is not None:
            names = names + table.get((module, args), [])
        return tuple(sorted(names))

    def start_plan(self, module: str, args: str | None = None) -> StartPlan:
        """The start plan of (module, args), made on its first use and kept
        for every later use, from any store or thread.

        Raises ValueError when ``module`` or ``args`` contains whitespace.
        """
        key = (module, args)
        plan = self._plans.get(key)
        if plan is None:
            # Racing first uses may each make a plan; all of them read the one kept.
            plan = self._plans.setdefault(key, StartPlan(self, module, args))
        return plan

    def setter_of(self, condition: str) -> ModuleKey | None:
        """The module key whose startup sets this condition."""
        return self._setter_by_condition.get(condition)

    def cycle_check(self) -> list[ModuleKey] | None:
        """Return None when the module-level wait graph is acyclic,
        otherwise one witness cycle as a module-key sequence.

        Edge direction: setter -> waiter (the waiter's start must come
        after the setter's init).  A wildcard key is conservatively
        treated as matching every exact key with the same module name.
        The witness is the first cycle a depth-first search finds when it
        takes keys and out-edges in declaration order; the search is
        linear in the keys and edges.
        """
        return None if self._cycle is None else list(self._cycle)

    @cached_property
    def _cycle(self) -> tuple[ModuleKey, ...] | None:
        return self._find_cycle()

    def _find_cycle(self) -> tuple[ModuleKey, ...] | None:
        # Vertices are numbered in first-declaration order of their
        # (module, args) pairs; the edges and colours live in lists indexed
        # by that number.
        number: dict[tuple[str, str | None], int] = {}
        keys: list[ModuleKey] = []
        members: dict[str, list[int]] = {}  # module -> its vertices, in order
        wildcard: dict[str, int] = {}  # module -> its wildcard's vertex
        for key, _ in chain(self.conditions, self.preconditions):
            pair = (key.module, key.args)
            if pair not in number:
                v = number[pair] = len(keys)
                keys.append(key)
                members.setdefault(key.module, []).append(v)
                if key.args is None:
                    wildcard[key.module] = v
        setter = {name: number[key.module, key.args] for key, name in self.conditions}

        # A wildcard key touches every key of its module, an exact key
        # itself and its module's wildcard, both in declaration order.
        closure: list = [None] * len(keys)
        for module, vs in members.items():
            w = wildcard.get(module)
            for v in vs:
                if w is None:
                    closure[v] = (v,)
                elif v == w:
                    closure[v] = vs
                else:
                    closure[v] = (w, v) if w < v else (v, w)

        # Out-edges in insertion order; a repeated edge keeps its first place.
        edges: list[dict[int, None]] = [{} for _ in keys]
        for waiter_key, names in self.preconditions:
            waiters = dict.fromkeys(closure[number[waiter_key.module, waiter_key.args]])
            for cond in sorted(self.expand_names(names)):
                src = setter.get(cond)
                if src is not None:
                    for v in closure[src]:
                        edges[v].update(waiters)

        # Depth-first search with an explicit stack, so long chains cannot
        # exhaust the interpreter's recursion limit.  ``path`` holds the
        # vertices on the current DFS path (colour 1), ``pending`` the
        # unvisited out-edges of each; finished vertices get colour 2.
        color = [0] * len(keys)
        for root in range(len(keys)):
            if color[root]:
                continue
            color[root] = 1
            path = [root]
            pending = [iter(edges[root])]
            while pending:
                for w in pending[-1]:
                    state = color[w]
                    if state == 0:
                        color[w] = 1
                        path.append(w)
                        pending.append(iter(edges[w]))
                        break
                    if state == 1:
                        return tuple(keys[v] for v in path[path.index(w):])
                else:
                    pending.pop()
                    color[path.pop()] = 2
        return None


# -- shared validation core (the parser passes source lines) -------------


def _validate(conditions, groups, preconditions, lines=None) -> list[Diagnostic]:
    """Every error in the three entry lists, in entry order.

    ``lines`` comes from the parser: the source line of each conditions,
    groups and preconditions entry.  The parser has already checked each
    entry's module name and args token, so those checks run here only for
    a graph built in code (``lines`` None).
    """
    diags: list[Diagnostic] = []

    def err(code, message, section, idx):
        line = None if lines is None else lines[section][idx]
        diags.append(Diagnostic("error", code, message, line))

    def check_key(key, section, idx):
        if not _is_ident(key.module):
            err("malformed-key", f"bad module name {key.module!r}", section, idx)
        if key.args is not None and (not key.args or _has_whitespace(key.args)):
            err("malformed-key", f"bad argument token {key.args!r}", section, idx)

    declared: set[str] = set()
    seen_keys: set[tuple[str, str | None]] = set()
    for idx, (key, name) in enumerate(conditions):
        if lines is None:
            check_key(key, 0, idx)
        if not _is_ident(name):
            err("malformed-key", f"bad condition name {name!r}", 0, idx)
        if name in declared:
            err("duplicate-condition", f"condition {name!r} declared twice", 0, idx)
        declared.add(name)
        pair = (key.module, key.args)
        if pair in seen_keys:
            err("duplicate-module-key", f"module key {key} declared twice", 0, idx)
        seen_keys.add(pair)

    # Every group name first, so a group that names a later group is
    # reported as nesting, not as an unknown condition.
    group_names = {group.name for group in groups}
    seen_groups: set[str] = set()
    for idx, group in enumerate(groups):
        if not _is_ident(group.name):
            err("malformed-key", f"bad group name {group.name!r}", 1, idx)
        if group.name in seen_groups:
            err("duplicate-group", f"group {group.name!r} declared twice", 1, idx)
        seen_groups.add(group.name)
        if group.name in declared:
            err("name-collision",
                f"{group.name!r} is both a condition and a group", 1, idx)
        if not group.members:
            err("empty-group", f"group {group.name!r} has no members", 1, idx)
        for member in group.members:
            if member in group_names:
                # flat groups only, a group naming itself included; a
                # member must be a condition
                err("unknown-name",
                    f"group {group.name!r} may not contain group {member!r}", 1, idx)
            elif member not in declared:
                err("unknown-name",
                    f"group {group.name!r} references unknown condition {member!r}", 1, idx)

    known = declared | group_names
    precond_keys: set[tuple[str, str | None]] = set()
    for idx, (key, names) in enumerate(preconditions):
        if lines is None:
            check_key(key, 2, idx)
        pair = (key.module, key.args)
        if pair in precond_keys:
            err("duplicate-module-key", f"precondition key {key} declared twice", 2, idx)
        precond_keys.add(pair)
        if not names:
            err("empty-preconditions", f"empty precondition list for {key}", 2, idx)
        for name in names:
            if name not in known:
                err("unknown-name", f"unknown condition or group {name!r}", 2, idx)
    return diags


# -- file format ----------------------------------------------------------

_condition_line = re.compile(r"(\S+)\s+(\S+)\s*->\s*(\S+)").fullmatch
_group_line = re.compile(r"(\S+)\s*=\s*(.*)").fullmatch
_precondition_line = re.compile(r"(\S+)\s+(\S+)\s*<-\s*(.*)").fullmatch
_split_names = re.compile(r"\s*,\s*").split


def parse_release_graph(source: str) -> DependencyGraph:
    """Parse ``.rgraph`` text into a validated graph.

    One pass over the lines checks each entry's syntax, its key's module
    name and args token, and the names of its lists; the validation that
    follows checks every other token once.  Raises :class:`GraphError`
    carrying one diagnostic (with line number) per problem found, covering
    both syntax and semantic checks.
    """
    diags: list[Diagnostic] = []
    conditions: list[tuple[ModuleKey, str]] = []
    groups: list[ConditionGroup] = []
    preconditions: list[tuple[ModuleKey, tuple[str, ...]]] = []
    lines: tuple[list[int], list[int], list[int]] = ([], [], [])  # per section, per entry
    keys: dict[tuple[str, str], ModuleKey] = {}  # (module, args token) -> its checked key

    def syntax(code, message, lineno):
        diags.append(Diagnostic("error", code, message, lineno))

    def parse_key(module_tok: str, args_tok: str, lineno: int) -> ModuleKey | None:
        key = keys.get((module_tok, args_tok))
        if key is not None:
            return key
        if not _is_ident(module_tok):
            syntax("malformed-key", f"bad module name {module_tok!r}", lineno)
            return None
        if args_tok == "*":
            key = ModuleKey(module_tok)
        elif args_tok.startswith("[") and args_tok.endswith("]"):
            key = ModuleKey(module_tok, args_tok)
        else:
            syntax("malformed-key",
                   f"argument token must be bracketed or '*', got {args_tok!r}", lineno)
            return None
        keys[module_tok, args_tok] = key
        return key

    def parse_name_list(text: str, lineno: int) -> tuple[str, ...] | None:
        if not text:  # the line grammar leaves no surrounding whitespace
            return ()
        names = _split_names(text)
        for name in names:
            if not _is_ident(name):
                syntax("malformed-key", f"bad name {name!r}", lineno)
                return None
        return tuple(names)

    def condition(m, lineno):
        module_tok, args_tok, name = m.groups()
        key = parse_key(module_tok, args_tok, lineno)
        return None if key is None else (key, name)

    def group(m, lineno):
        name, text = m.groups()
        members = parse_name_list(text, lineno)
        return None if members is None else ConditionGroup(name, members)

    def precondition(m, lineno):
        module_tok, args_tok, text = m.groups()
        key = parse_key(module_tok, args_tok, lineno)
        names = parse_name_list(text, lineno)
        return None if key is None or names is None else (key, names)

    # Per section: its line grammar, the shape a syntax error names, the
    # builder of one entry, and the lists the entry and its line go to.
    sections = {
        "conditions": (_condition_line, "<module> <args|*> -> <condition>", condition,
                       conditions, lines[0]),
        "groups": (_group_line, "<group> = <name>, ...", group, groups, lines[1]),
        "preconditions": (_precondition_line, "<module> <args|*> <- <name>, ...",
                          precondition, preconditions, lines[2]),
    }
    section = None
    seen_sections: set[str] = set()
    for lineno, raw in enumerate(source.splitlines(), start=1):
        line = raw.partition("#")[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip()
            section = sections.get(name)
            if section is None:
                syntax("syntax-error", f"unknown section {name!r}", lineno)
                continue
            if name in seen_sections:
                syntax("duplicate-section", f"section [{name}] appears twice", lineno)
            seen_sections.add(name)
            match, shape, build, entries, entry_lines = section
            continue
        if section is None:
            syntax("syntax-error", f"entry outside any section: {line!r}", lineno)
            continue
        m = match(line)
        if not m:
            syntax("syntax-error", f"expected '{shape}', got {line!r}", lineno)
            continue
        entry = build(m, lineno)
        if entry is not None:
            entry_lines.append(lineno)
            entries.append(entry)

    diags.extend(_validate(conditions, groups, preconditions, lines))
    if diags:  # every diagnostic is an error
        raise GraphError(diags)
    graph = DependencyGraph(tuple(conditions), tuple(groups), tuple(preconditions))
    # Seed the validation cache with this parse's own result, which is
    # empty: _validate reports only errors, and any error raised above.
    graph.__dict__["_diagnostics"] = ()
    return graph


def serialize_release_graph(graph: DependencyGraph) -> str:
    """Render a graph back to ``.rgraph`` text (declaration order kept)."""
    out: list[str] = []
    if graph.conditions:
        out.append("[conditions]")
        for key, name in graph.conditions:
            args = key.args if key.args is not None else "*"
            out.append(f"{key.module} {args} -> {name}")
    if graph.groups:
        out.append("[groups]")
        for group in graph.groups:
            out.append(f"{group.name} = {', '.join(group.members)}")
    if graph.preconditions:
        out.append("[preconditions]")
        for key, names in graph.preconditions:
            args = key.args if key.args is not None else "*"
            out.append(f"{key.module} {args} <- {', '.join(names)}")
    return "\n".join(out) + ("\n" if out else "")
