"""Command-line front end.

Subcommands: ``validate`` (graph checks + cycle detection), ``run`` (boot a
release with tracing), ``check`` (verify a trace against graph + tree),
``bench`` (benchmark sweeps with CSV output).

Exit codes are a stable contract: 0 success, 1 semantic failure
(diagnostics, cycle, deadlock, trace violations), 2 usage or I/O error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import bench as bench_mod
from .boot import boot, parse_release
from .clock import VirtualClock, WallClock
from .condsrv import DEFAULT_DEADLOCK_TIMEOUT_MS
from .depgraph import parse_release_graph
from .errors import (
    BootRefusedError,
    DeadlockError,
    GraphError,
    QuiescenceTimeout,
    ReleaseError,
    StartupError,
    TraceFormatError,
    TreeError,
)
from .suptree import check_trace, parse_tree
from .tracing import parse_trace

OK, FAIL, USAGE = 0, 1, 2


def _read(path: str) -> str:
    file = Path(path)
    if not file.is_file():
        print(f"error: file not found: {path}", file=sys.stderr)
        raise SystemExit(USAGE)
    try:
        return file.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        print(f"error: {path} is not UTF-8 text: byte {exc.start}", file=sys.stderr)
        raise SystemExit(USAGE) from None


def cmd_validate(args) -> int:
    try:
        graph = parse_release_graph(_read(args.graph))
    except GraphError as exc:
        for diag in exc.diagnostics:
            print(diag.render(), file=sys.stderr)
        return FAIL
    cycle = graph.cycle_check()
    if cycle is not None:
        witness = " -> ".join(str(k) for k in cycle + cycle[:1])
        print(f"error[dependency-cycle] {witness}", file=sys.stderr)
        return FAIL
    print(f"ok: {len(graph.conditions)} condition(s), {len(graph.groups)} group(s), "
          f"{len(graph.preconditions)} precondition(s), acyclic")
    return OK


def cmd_run(args) -> int:
    release_path = Path(args.release)
    try:
        release = parse_release(_read(args.release), base_dir=release_path.parent)
    except (ReleaseError, TreeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE
    clock = VirtualClock() if args.virtual_clock else WallClock()
    try:
        result = boot(
            release,
            base_dir=release_path.parent,
            mode=("sequential" if args.mode == "seq" else "as-specified"),
            clock=clock,
            deadlock_timeout_ms=args.deadlock_timeout,
            allow_cycles=args.allow_cycles,
            quiescence_timeout_ms=args.quiescence_timeout,
        )
    except GraphError as exc:
        for diag in exc.diagnostics:
            print(diag.render(), file=sys.stderr)
        return FAIL
    except BootRefusedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return FAIL
    except ReleaseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE
    except DeadlockError as exc:
        print(f"deadlock: {exc.report.summary()}", file=sys.stderr)
        for key, unmet in exc.report.blocked:
            print(f"  blocked {key} on {', '.join(sorted(unmet))}", file=sys.stderr)
        return FAIL
    except (StartupError, QuiescenceTimeout) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return FAIL
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE

    if args.trace:
        result.system.trace.write(args.trace)
    for app_name, duration in result.per_app_ms:
        print(f"app {app_name}: {duration:.3f} ms")
    report = result.report
    print(f"started {report.node_count} node(s) (+{report.wrapper_count} wrapper(s)) "
          f"in {report.duration_ms:.3f} ms")
    return OK


def _is_release(text: str) -> bool:
    """A release file's first line that is neither blank nor a comment is a
    ``release``, ``graph`` or ``app`` line; a tree file's is a node."""
    for raw in text.splitlines():
        tokens = raw.split("#", 1)[0].split()
        if tokens:
            return tokens[0] in ("release", "graph", "app")
    return False


def cmd_check(args) -> int:
    try:
        events = parse_trace(_read(args.trace).splitlines())
    except TraceFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE
    try:
        graph = parse_release_graph(_read(args.graph))
    except GraphError as exc:
        for diag in exc.diagnostics:
            print(diag.render(), file=sys.stderr)
        return USAGE
    tree_text = _read(args.tree)
    try:
        if _is_release(tree_text):
            release = parse_release(tree_text, base_dir=Path(args.tree).parent)
            forest = [(name, root) for name, root, _ in release.applications]
            violations = check_trace(events, graph, forest)
        else:
            violations = check_trace(events, graph, parse_tree(tree_text))
    except (TreeError, ReleaseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE
    for violation in violations:
        print(violation.render(), file=sys.stderr)
    if violations:
        print(f"{len(violations)} violation(s)", file=sys.stderr)
        return FAIL
    print(f"ok: {len(events)} event(s), no violations")
    return OK


def cmd_bench(args) -> int:
    if args.fork_depth is not None and args.fork_count is not None:
        print("error: --fork-depth and --fork-count are mutually exclusive",
              file=sys.stderr)
        return USAGE
    if args.append and not args.out:
        print("error: --append needs --out", file=sys.stderr)
        return USAGE
    if args.fork_depth is not None:
        placement = bench_mod.ForkPlacement.at_depth(args.fork_depth)
    elif args.fork_count is not None:
        placement = bench_mod.ForkPlacement.first_n(args.fork_count)
    else:
        placement = bench_mod.ForkPlacement.none()
    try:
        config = bench_mod.BenchConfig(
            topology=bench_mod.TopologySpec(args.topology, args.branching, args.depth,
                                            args.seed),
            delays=bench_mod.DelayModel(args.delay_kind, args.delay_ms),
            placement=placement,
            mode=("sequential" if args.mode == "seq" else "concurrent"),
            repetitions=args.repeat,
            virtual_clock=args.virtual_clock,
            deadlock_timeout_ms=args.deadlock_timeout,
        )
        report = bench_mod.run_benchmark(config)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE

    if args.out:
        bench_mod.emit_csv(report, args.out, append=args.append)
    label = placement.label()
    print(f"topology={args.topology} mode={config.mode} placement={label} "
          f"tagged={report.tagged_count} nodes={report.node_count} "
          f"wrappers={report.wrapper_count}")
    if report.durations_ms:
        print(f"durations_ms: mean={report.mean_ms:.3f} min={report.min_ms:.3f} "
              f"max={report.max_ms:.3f} over {len(report.durations_ms)} run(s)")
    if report.prediction_ms is not None:
        print(f"critical_path_prediction_ms: {report.prediction_ms:.3f}")
    for rep, message in report.failures:
        print(f"repetition {rep + 1} failed: {message}", file=sys.stderr)
    return FAIL if report.failures else OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="treeboot",
        description="Supervision-tree runtime with dependency-gated concurrent startup.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_validate = sub.add_parser("validate", help="validate a dependency graph file")
    p_validate.add_argument("graph")
    p_validate.set_defaults(fn=cmd_validate)

    p_run = sub.add_parser("run", help="boot a release and report timings")
    p_run.add_argument("release")
    p_run.add_argument("--mode", choices=("seq", "conc"), default="conc")
    p_run.add_argument("--trace", help="write the event trace to this file")
    p_run.add_argument("--deadlock-timeout", type=float,
                       default=DEFAULT_DEADLOCK_TIMEOUT_MS, metavar="MS")
    p_run.add_argument("--quiescence-timeout", type=float, default=None, metavar="MS")
    p_run.add_argument("--virtual-clock", action="store_true")
    p_run.add_argument("--allow-cycles", action="store_true")
    p_run.set_defaults(fn=cmd_run)

    p_check = sub.add_parser("check", help="verify a trace against graph and tree")
    p_check.add_argument("trace")
    p_check.add_argument("graph")
    p_check.add_argument("tree", help="tree file, or a release file for multi-app traces")
    p_check.set_defaults(fn=cmd_check)

    p_bench = sub.add_parser("bench", help="run startup benchmarks")
    p_bench.add_argument("--topology", choices=("deep", "wide", "random"),
                         required=True)
    p_bench.add_argument("--branching", type=int, default=None)
    p_bench.add_argument("--depth", type=int, default=None)
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.add_argument("--delay-ms", type=float, default=50.0)
    p_bench.add_argument("--delay-kind", choices=("sleep", "busy"), default="sleep")
    p_bench.add_argument("--fork-depth", type=int, default=None)
    p_bench.add_argument("--fork-count", type=int, default=None)
    p_bench.add_argument("--mode", choices=("seq", "conc"), default="conc")
    p_bench.add_argument("--repeat", type=int, default=5)
    p_bench.add_argument("--virtual-clock", action="store_true")
    p_bench.add_argument("--out", help="CSV output path")
    p_bench.add_argument("--append", action="store_true",
                         help="append to the CSV instead of overwriting")
    p_bench.add_argument("--deadlock-timeout", type=float,
                         default=DEFAULT_DEADLOCK_TIMEOUT_MS, metavar="MS")
    p_bench.add_argument("--config",
                         help="file of '<flag-name> = <value>' lines "
                              "(same names as the bench flags)")
    p_bench.set_defaults(fn=cmd_bench)
    return parser


def _expand_bench_config(argv: list[str]) -> list[str]:
    """Splice a bench --config file into the argument list.

    File lines use the flag names without dashes (``topology = deep``,
    ``fork-depth = 1``); explicit flags on the command line win because
    they come later.
    """
    if "--config" not in argv:
        return argv
    index = argv.index("--config")
    if index + 1 >= len(argv):
        return argv
    path = argv[index + 1]
    expanded: list[str] = []
    for raw in _read(path).splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" in line:
            key, value = (part.strip() for part in line.split("=", 1))
        else:
            key, _, value = line.partition(" ")
            value = value.strip()
        expanded.append(f"--{key}")
        if value:
            expanded.append(value)
    head = argv[:index]
    tail = argv[index + 2:]
    return head[:1] + expanded + head[1:] + tail


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    if argv and argv[0] == "bench":
        argv = _expand_bench_config(argv)
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
