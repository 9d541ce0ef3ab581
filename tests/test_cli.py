"""Exit-code contracts and end-to-end command flows."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from treeboot.cli import EXIT_CODES, main
from treeboot.errors import ClockStalledError, StartupError, TreebootError

from conftest import TWO_APP_GRAPH, CYCLE_GRAPH, chain_graph_text

APP1_TREE = """\
sup rootsup module=app1_rootsup
  worker server1 module=generic_server args=[app1_server1] init=sleep:5 mode=concurrent
  worker server2 module=generic_server args=[app1_server2] init=sleep:3 mode=concurrent
  worker server3 module=generic_server args=[app1_server3] init=sleep:2 mode=concurrent
"""

APP2_TREE = """\
sup rootsup2 module=app2_rootsup
  worker server1 module=generic_server args=[app2_server1] init=sleep:2 mode=concurrent
"""

CYCLE_TREE = """\
sup root
  sup lane_a mode=concurrent
    worker a module=worker_a args=[x]
  sup lane_b
    worker b module=worker_b args=[y]
"""


@pytest.fixture
def workdir(tmp_path):
    (tmp_path / "sys.rgraph").write_text(TWO_APP_GRAPH)
    (tmp_path / "cycle.rgraph").write_text(CYCLE_GRAPH)
    (tmp_path / "app1.tree").write_text(APP1_TREE)
    (tmp_path / "app2.tree").write_text(APP2_TREE)
    (tmp_path / "cycle.tree").write_text(CYCLE_TREE)
    (tmp_path / "demo.rel").write_text(
        "release demo\ngraph sys.rgraph\napp app1 app1.tree\napp app2 app2.tree\n")
    (tmp_path / "cycle.rel").write_text(
        "release cyc\ngraph cycle.rgraph\napp demo cycle.tree\n")
    return tmp_path


def test_validate_ok(workdir, capsys):
    assert main(["validate", str(workdir / "sys.rgraph")]) == 0
    assert "acyclic" in capsys.readouterr().out


def test_validate_cycle_exit_1(workdir, capsys):
    assert main(["validate", str(workdir / "cycle.rgraph")]) == 1
    err = capsys.readouterr().err
    assert "dependency-cycle" in err and "worker_a" in err


def test_validate_long_chain_ok(tmp_path, capsys):
    graph = tmp_path / "chain.rgraph"
    graph.write_text(chain_graph_text(10_000))
    assert main(["validate", str(graph)]) == 0
    assert "10000 condition(s)" in capsys.readouterr().out


def test_validate_missing_file_exit_2(workdir):
    with pytest.raises(SystemExit) as exc:
        main(["validate", str(workdir / "nope.rgraph")])
    assert exc.value.code == 2


def test_validate_bad_graph_exit_1(workdir, capsys):
    bad = workdir / "bad.rgraph"
    bad.write_text("[preconditions]\nm * <- ghost\n")
    assert main(["validate", str(bad)]) == 1
    assert "unknown-name" in capsys.readouterr().err


def test_run_writes_trace_and_check_accepts_it(workdir, capsys):
    trace_path = workdir / "run.trace"
    code = main(["run", str(workdir / "demo.rel"), "--virtual-clock",
                 "--trace", str(trace_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "app app1" in out and "wrapper" in out
    assert trace_path.is_file()

    code = main(["check", str(trace_path), str(workdir / "sys.rgraph"),
                 str(workdir / "demo.rel")])
    assert code == 0
    assert "no violations" in capsys.readouterr().out


def test_run_single_tree_check(workdir, capsys):
    single = workdir / "single.rel"
    single.write_text("release one\ngraph sys.rgraph\napp app1 app1.tree\n")
    trace_path = workdir / "single.trace"
    assert main(["run", str(single), "--virtual-clock",
                 "--trace", str(trace_path)]) == 0
    # node paths carry the app-name prefix, so checking goes through the
    # release form even for a single tree
    assert main(["check", str(trace_path), str(workdir / "sys.rgraph"),
                 str(single)]) == 0


def test_run_cyclic_refused_exit_1(workdir, capsys):
    assert main(["run", str(workdir / "cycle.rel"), "--virtual-clock"]) == 1
    assert "refusing to boot" in capsys.readouterr().err


def test_run_allow_cycles_deadlock_exit_1(workdir, capsys):
    code = main(["run", str(workdir / "cycle.rel"), "--virtual-clock",
                 "--allow-cycles", "--deadlock-timeout", "300"])
    assert code == 1
    err = capsys.readouterr().err
    assert "deadlock" in err
    assert "worker_a[x]" in err and "worker_b[y]" in err


def test_run_sequential_mode(workdir, capsys):
    assert main(["run", str(workdir / "demo.rel"), "--virtual-clock",
                 "--mode", "seq"]) == 0
    assert "+0 wrapper(s)" in capsys.readouterr().out


@pytest.mark.parametrize("line, fragment", [
    ("  worker w module=generic_server shutdown=abc", "unknown key"),
    ("  worker w module=generic_server modules=generic_server", "unknown key"),
    ("  worker w module=generic_server restarts=1/5", "supervisors only"),
    ("  sup s restarts=1/nan", "expected restarts="),
    ("  worker w module=generic_server init=sleep:nan", "bad init duration"),
    ("  worker w module=generic_server init=sleep:-1", "bad init duration"),
    ("  worker w module=generic_server init=sleep:1_0", "bad init duration"),
    ("  sup s restarts=1_0/2_0", "expected restarts="),
])
def test_run_bad_tree_exit_2(workdir, capsys, line, fragment):
    (workdir / "bad.tree").write_text(f"sup rootsup module=app1_rootsup\n{line}\n")
    (workdir / "bad.rel").write_text("release bad\ngraph sys.rgraph\napp a bad.tree\n")
    assert main(["run", str(workdir / "bad.rel"), "--virtual-clock"]) == 2
    assert fragment in capsys.readouterr().err


def write_deep_release(base, depth=2000):
    (base / "chain.tree").write_text(
        "".join(f"{'  ' * level}sup n{level} init=sleep:1\n" for level in range(depth)))
    (base / "empty.rgraph").write_text("[conditions]\n")
    (base / "deep.rel").write_text("release deep\ngraph empty.rgraph\napp a chain.tree\n")
    return base / "deep.rel"


def test_run_deep_release_exit_0(tmp_path, capsys):
    release = write_deep_release(tmp_path)
    assert main(["run", str(release), "--virtual-clock",
                 "--trace", str(tmp_path / "deep.trace")]) == 0
    assert "started 2000 node(s) (+0 wrapper(s)) in 2000.000 ms" in capsys.readouterr().out


def test_check_deep_trace_exit_0(tmp_path, capsys):
    release = write_deep_release(tmp_path)
    trace_path = tmp_path / "deep.trace"
    assert main(["run", str(release), "--virtual-clock", "--trace", str(trace_path)]) == 0
    assert main(["check", str(trace_path), str(tmp_path / "empty.rgraph"), str(release)]) == 0
    assert "no violations" in capsys.readouterr().out


def test_check_forged_trace_exit_1(workdir, capsys):
    trace_path = workdir / "forged.trace"
    trace_path.write_text(
        "0 0.000000 start_request app1/rootsup\n"
        "1 0.000000 ack app1/rootsup\n")
    single = workdir / "single.rel"
    single.write_text("release one\ngraph sys.rgraph\napp app1 app1.tree\n")
    code = main(["check", str(trace_path), str(workdir / "sys.rgraph"),
                 str(single)])
    assert code == 1
    assert "missing-events" in capsys.readouterr().err


def test_check_release_with_leading_comment(workdir, capsys):
    # a release used to be told from a tree by its first character, so a
    # leading comment sent it to the tree parser and exit 2
    commented = workdir / "commented.rel"
    commented.write_text("# two applications\n\n" + (workdir / "demo.rel").read_text())
    trace_path = workdir / "commented.trace"
    assert main(["run", str(commented), "--virtual-clock", "--trace", str(trace_path)]) == 0
    assert main(["check", str(trace_path), str(workdir / "sys.rgraph"), str(commented)]) == 0
    assert "no violations" in capsys.readouterr().out


@pytest.mark.parametrize("init", ["sleep:1_0", "sleep:\u0661\u0662"])
def test_check_tree_with_a_non_ascii_or_underscored_number_exit_2(workdir, capsys, init):
    (workdir / "empty.trace").write_text("")
    (workdir / "bad.tree").write_text(f"sup r\n  worker w init={init}\n")
    assert main(["check", str(workdir / "empty.trace"), str(workdir / "sys.rgraph"),
                 str(workdir / "bad.tree")]) == 2
    assert "bad init duration" in capsys.readouterr().err


def test_check_malformed_trace_exit_2(workdir, capsys):
    bad = workdir / "bad.trace"
    bad.write_text("this is not a trace\n")
    code = main(["check", str(bad), str(workdir / "sys.rgraph"),
                 str(workdir / "demo.rel")])
    assert code == 2


# -- input that is not UTF-8 ------------------------------------------------------


def test_validate_non_utf8_graph_exit_2(workdir, capsys):
    bad = workdir / "bad.rgraph"
    bad.write_bytes(TWO_APP_GRAPH.encode() + b"# \xff\n")
    with pytest.raises(SystemExit) as exc:
        main(["validate", str(bad)])
    assert exc.value.code == 2
    assert capsys.readouterr().err.startswith(f"error: {bad} is not UTF-8 text")


def test_check_non_utf8_trace_exit_2(workdir, capsys):
    bad = workdir / "bad.trace"
    bad.write_bytes(b"0 0.000000 ack app1/rootsup\n1 0.000000 ack \xff\n")
    with pytest.raises(SystemExit) as exc:
        main(["check", str(bad), str(workdir / "sys.rgraph"), str(workdir / "demo.rel")])
    assert exc.value.code == 2
    assert capsys.readouterr().err.startswith(f"error: {bad} is not UTF-8 text")


@pytest.mark.parametrize("name", ["app1.tree", "sys.rgraph"])
def test_run_release_naming_a_non_utf8_file_exit_2(workdir, capsys, name):
    path = workdir / name
    path.write_bytes(path.read_bytes() + b"# \xff\n")
    assert main(["run", str(workdir / "demo.rel"), "--virtual-clock"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"{name} is not UTF-8 text" in err


def test_bench_exact_prediction(workdir, capsys):
    code = main(["bench", "--topology", "deep", "--mode", "seq", "--repeat", "2",
                 "--virtual-clock", "--delay-ms", "1"])
    assert code == 0
    out = capsys.readouterr().out
    assert "mean=1093.000" in out
    assert "critical_path_prediction_ms: 1093.000" in out


def test_bench_deep_chain_exit_0(capsys):
    assert main(["bench", "--topology", "deep", "--branching", "1", "--depth", "1500",
                 "--virtual-clock", "--repeat", "1"]) == 0
    out = capsys.readouterr().out
    assert "nodes=1501" in out and "critical_path_prediction_ms: 75050.000" in out


def test_bench_writes_csv(workdir, tmp_path):
    out = tmp_path / "b.csv"
    code = main(["bench", "--topology", "wide", "--fork-depth", "1",
                 "--mode", "conc", "--virtual-clock", "--delay-ms", "1",
                 "--repeat", "3", "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 4
    assert lines[0].startswith("topology,mode,placement")


CYCLE2 = ["demos/data/cycle2.rel", "--allow-cycles"]
TWO_APPS = ["demos/data/two_apps.rel"]


@pytest.mark.parametrize("args", [
    CYCLE2 + ["--virtual-clock", "--deadlock-timeout", "nan"],
    CYCLE2 + ["--virtual-clock", "--deadlock-timeout", "0"],
    CYCLE2 + ["--virtual-clock", "--deadlock-timeout", "-1"],
    CYCLE2 + ["--deadlock-timeout", "inf"],
    TWO_APPS + ["--virtual-clock", "--quiescence-timeout", "nan"],
    TWO_APPS + ["--virtual-clock", "--quiescence-timeout", "-1"],
    TWO_APPS + ["--quiescence-timeout", "inf"],
])
def test_run_bad_timeout_exit_2(args):
    # In a subprocess with a time limit: a NaN timeout used to hang the run.
    root = Path(__file__).parent.parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "treeboot.cli", "run", *args],
        cwd=root, env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error:") and "Traceback" not in proc.stderr


def test_bench_conflicting_fork_flags_exit_2(workdir):
    assert main(["bench", "--topology", "deep", "--fork-depth", "1",
                 "--fork-count", "2", "--virtual-clock"]) == 2


@pytest.mark.parametrize("topology, branching", [("random", "7"), ("deep", "0")])
def test_bench_branching_it_would_ignore_exit_2(capsys, topology, branching):
    # both used to boot the default tree: random dropped the flag, and
    # deep read a zero branching as unset
    assert main(["bench", "--topology", topology, "--branching", branching,
                 "--virtual-clock", "--repeat", "1"]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("topology", ["deep", "wide"])
def test_bench_seed_it_would_ignore_exit_2(capsys, topology):
    # deep and wide draw nothing, so --seed 5 used to print the --seed 0 tree
    assert main(["bench", "--topology", topology, "--depth", "2", "--seed", "5",
                 "--virtual-clock", "--repeat", "1"]) == 2
    assert "takes no seed" in capsys.readouterr().err


def test_bench_append_without_out_exit_2(capsys):
    assert main(["bench", "--topology", "wide", "--virtual-clock", "--append"]) == 2
    assert "--append needs --out" in capsys.readouterr().err


@pytest.mark.parametrize("flag, value", [("--delay-ms", "0"), ("--repeat", "0")])
def test_bench_bad_config_value_exit_2(workdir, capsys, flag, value):
    assert main(["bench", "--topology", "wide", "--virtual-clock", flag, value]) == 2
    assert "error:" in capsys.readouterr().err


def test_bench_default_repeat_is_five(workdir, tmp_path):
    out = tmp_path / "five.csv"
    assert main(["bench", "--topology", "wide", "--virtual-clock",
                 "--delay-ms", "1", "--out", str(out)]) == 0
    assert len(out.read_text().strip().splitlines()) == 6  # header + 5 reps


def test_bench_config_file_equals_flags(workdir, tmp_path):
    config = tmp_path / "bench.cfg"
    config.write_text(
        "# same names as the flags\n"
        "topology = wide\n"
        "fork-depth = 1\n"
        "mode = conc\n"
        "delay-ms = 1\n"
        "repeat = 2\n"
        "virtual-clock\n")
    out_cfg = tmp_path / "from_config.csv"
    out_flags = tmp_path / "from_flags.csv"
    assert main(["bench", "--config", str(config), "--out", str(out_cfg)]) == 0
    assert main(["bench", "--topology", "wide", "--fork-depth", "1",
                 "--mode", "conc", "--delay-ms", "1", "--repeat", "2",
                 "--virtual-clock", "--out", str(out_flags)]) == 0
    assert out_cfg.read_text() == out_flags.read_text()


def test_bench_config_file_overridden_by_explicit_flag(workdir, tmp_path):
    config = tmp_path / "bench.cfg"
    config.write_text("topology = wide\ndelay-ms = 1\nvirtual-clock\nrepeat = 4\n")
    out = tmp_path / "override.csv"
    assert main(["bench", "--config", str(config), "--repeat", "2",
                 "--out", str(out)]) == 0
    assert len(out.read_text().strip().splitlines()) == 3  # header + 2 reps


def test_run_quiescence_timeout_exit_1_counts_declared_nodes(workdir, capsys):
    (workdir / "slow.tree").write_text("sup root\n"
                                       "  worker slow init=sleep:100 mode=concurrent\n"
                                       "  worker quick init=sleep:1\n")
    (workdir / "slow.rel").write_text("release slow\ngraph sys.rgraph\napp a slow.tree\n")
    assert main(["run", str(workdir / "slow.rel"), "--virtual-clock",
                 "--quiescence-timeout", "5"]) == 1
    err = capsys.readouterr().err
    assert "startup incomplete after 5 ms: 2 node(s) acked" in err


# -- the exit-code contract: each error is one message and one code ----------------


def test_run_bad_application_name_exit_2(workdir, capsys):
    (workdir / "slash.rel").write_text("release r\ngraph sys.rgraph\napp a/b app1.tree\n")
    assert main(["run", str(workdir / "slash.rel"), "--virtual-clock"]) == 2
    assert capsys.readouterr().err == ("error: application name 'a/b' must be non-empty, "
                                       "without whitespace or '/'\n")


def test_run_missing_graph_file_exit_2(workdir, capsys):
    (workdir / "nograph.rel").write_text("release r\ngraph gone.rgraph\napp a app1.tree\n")
    assert main(["run", str(workdir / "nograph.rel"), "--virtual-clock"]) == 2
    assert capsys.readouterr().err == f"error: graph file not found: {workdir / 'gone.rgraph'}\n"


def test_check_empty_tree_exit_2(workdir, capsys):
    (workdir / "empty.trace").write_text("")
    (workdir / "empty.tree").write_text("# nothing here\n")
    assert main(["check", str(workdir / "empty.trace"), str(workdir / "sys.rgraph"),
                 str(workdir / "empty.tree")]) == 2
    assert capsys.readouterr().err == "error: empty tree file\n"


def test_check_invalid_graph_exit_2_with_its_diagnostics(workdir, capsys):
    # the graph is an input of the check, not its subject: exit 2, not 1
    (workdir / "empty.trace").write_text("")
    bad = workdir / "bad.rgraph"
    bad.write_text("[preconditions]\nm * <- ghost\n")
    assert main(["validate", str(bad)]) == 1
    diagnostics = capsys.readouterr().err
    assert "unknown-name" in diagnostics
    assert main(["check", str(workdir / "empty.trace"), str(bad),
                 str(workdir / "app1.tree")]) == 2
    assert capsys.readouterr().err == diagnostics


def test_bench_fork_count_exit_0(capsys):
    assert main(["bench", "--topology", "deep", "--fork-count", "2", "--virtual-clock",
                 "--delay-ms", "1", "--repeat", "1"]) == 0
    assert "placement=first:2 tagged=2 nodes=1093 wrappers=2" in capsys.readouterr().out


@pytest.mark.parametrize("target, reason", [
    ("missing/run.trace", "[Errno 2] No such file or directory"),
    (".", "[Errno 21] Is a directory"),
])
def test_run_trace_that_cannot_be_written_exit_2(workdir, capsys, target, reason):
    path = workdir / target
    assert main(["run", str(workdir / "demo.rel"), "--virtual-clock",
                 "--trace", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {reason}: '{path}'\n"


def test_bench_out_into_a_missing_directory_exit_2(tmp_path, capsys):
    target = tmp_path / "missing" / "b.csv"
    assert main(["bench", "--topology", "wide", "--virtual-clock", "--delay-ms", "1",
                 "--repeat", "1", "--out", str(target)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: [Errno 2] No such file or directory: '{target}'\n"
    assert captured.out == ""


def test_inputs_that_are_directories_exit_2_with_the_os_error(workdir, capsys):
    (workdir / "treedir").mkdir()
    (workdir / "dir.rel").write_text("release r\ngraph sys.rgraph\napp a treedir\n")
    for argv, path in [
        (["validate", str(workdir)], workdir),
        (["run", str(workdir / "dir.rel"), "--virtual-clock"], workdir / "treedir"),
        (["bench", "--config", str(workdir), "--topology", "wide"], workdir),
    ]:
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: [Errno 21] Is a directory: '{path}'\n"


def test_bench_config_as_the_last_argument_exit_2(capsys):
    # no path follows --config, so nothing is spliced and argparse refuses it
    with pytest.raises(SystemExit) as exc:
        main(["bench", "--topology", "wide", "--config"])
    assert exc.value.code == 2
    assert "--config: expected one argument" in capsys.readouterr().err


def test_bench_failed_repetition_exit_1_names_it(monkeypatch, capsys):
    import treeboot.bench

    real_boot, boots = treeboot.bench.boot_system, []

    def boot_failing_the_second(*args, **kwargs):
        boots.append(None)
        if len(boots) == 2:
            raise StartupError("root wide/n0 terminated", "wide/n0")
        return real_boot(*args, **kwargs)

    monkeypatch.setattr(treeboot.bench, "boot_system", boot_failing_the_second)
    assert main(["bench", "--topology", "wide", "--depth", "1", "--virtual-clock",
                 "--delay-ms", "1", "--repeat", "3"]) == 1
    out, err = capsys.readouterr()
    assert "over 2 run(s)" in out
    assert err == "repetition 2 failed: StartupError: root wide/n0 terminated\n"


def test_bench_config_missing_file_exit_2_with_its_message(workdir, capsys):
    missing = str(workdir / "nope.cfg")
    with pytest.raises(SystemExit) as exc:
        main(["bench", "--config", missing, "--topology", "wide"])
    assert exc.value.code == 2
    assert capsys.readouterr().err == f"error: file not found: {missing}\n"


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_every_package_error_has_an_exit_code():
    # a package error missing from the table would reach a user as a traceback
    covered = [error for error, _ in EXIT_CODES]
    for error in _subclasses(TreebootError):
        reported = any(issubclass(error, entry) for entry in covered)
        assert reported == (error is not ClockStalledError), error.__name__
    # each entry is reachable: none is a subclass of an entry before it
    for i, entry in enumerate(covered):
        assert not issubclass(entry, tuple(covered[:i])), entry.__name__
