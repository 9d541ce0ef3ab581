"""Print every line of src/treeboot that a run of the test suite never executes.

Standard library only, so it works where no coverage package is installed.
The suite runs in this process under ``sys.settrace`` (and
``threading.settrace`` for the threads it starts).  Every line inside a
function or method of ``src/treeboot`` that no test reached is printed as
``path:line: source``, then a count.  Module and class bodies are left
out, since importing the package runs them.

    python tools/untested_lines.py [pytest args...]

The arguments go to pytest; without any, it runs ``tests`` quietly.  The
traced suite is several times slower than a plain run.  Code that runs
only in a subprocess a test starts (a ``treeboot`` command, a perfbench
run) is not seen, so its lines are printed too.  The exit code is
pytest's.
"""

from __future__ import annotations

import inspect
import os
import sys
import threading
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "treeboot"


def function_lines(path: Path) -> set[int]:
    """The line numbers of every instruction inside a function of ``path``."""
    module = compile(path.read_text(encoding="utf-8"), str(path), "exec")
    lines: set[int] = set()
    pending = [module]
    while pending:
        code = pending.pop()
        pending.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
        if code.co_flags & inspect.CO_NEWLOCALS:  # a function, not a module or class body
            lines.update(line for _, _, line in code.co_lines() if line is not None)
    return lines


def run_traced(pytest_args: list[str]) -> tuple[int, set[tuple[str, int]]]:
    """Run pytest under a line tracer; return its exit code and the
    (real path, line) pairs executed in the package."""
    import pytest

    prefix = str(PACKAGE.resolve()) + os.sep
    executed: set[tuple[str, int]] = set()
    real: dict[str, str | None] = {}  # co_filename -> real path, None outside the package

    def trace_lines(frame, event, arg):
        if event == "line":
            executed.add((real[frame.f_code.co_filename], frame.f_lineno))
        return trace_lines

    def trace_calls(frame, event, arg):
        filename = frame.f_code.co_filename
        if filename not in real:
            resolved = os.path.realpath(filename)
            real[filename] = resolved if resolved.startswith(prefix) else None
        path = real[filename]
        if path is None:
            return None
        executed.add((path, frame.f_lineno))  # the def line: the function was called
        return trace_lines

    sys.path.insert(0, str(ROOT / "src"))
    threading.settrace(trace_calls)
    sys.settrace(trace_calls)
    try:
        code = pytest.main(pytest_args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(code), executed


def main(argv: list[str]) -> int:
    os.chdir(ROOT)
    code, executed = run_traced(argv or ["-q", "-p", "no:cacheprovider", "tests"])
    missed = 0
    for path in sorted(PACKAGE.glob("*.py")):
        real = str(path.resolve())
        source = path.read_text(encoding="utf-8").splitlines()
        for line in sorted(function_lines(path)):
            if (real, line) not in executed:
                missed += 1
                print(f"{path.relative_to(ROOT)}:{line}: {source[line - 1].strip()}")
    print(f"{missed} line(s) inside functions that no test executed", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
