"""Print every statement of `src/bundleforms` that no known caller executes.

Three sources of calls run under a `sys.settrace` line tracer that records
only frames whose code lives in `src/bundleforms`:

- every `demos/*.py`, in this process;
- one operation of each benchmark workload (`perfbench/workloads.py`) at
  seed 0, in this process;
- each `tests/test_*.py`, in its own pytest process.  The tracer is armed
  again before every test's setup, call and teardown, because a trace
  function that hits `RecursionError` (the deep-expression tests do) is
  switched off by the interpreter.

A statement counts by its first line, and only if that line starts a
bytecode instruction.  The output lists, per module, the first lines of
the statements no run reached, then one total.  A test file whose pytest
run fails is named on stderr; its lines still count.

The tool reads `perfbench/` and writes nothing inside the repository (no
byte-code caches, no pytest cache; the child processes report through a
temporary file).

    python3 tools/traffic.py
"""

from __future__ import annotations

import ast
import contextlib
import dis
import io
import json
import os
import runpy
import subprocess
import sys
import tempfile
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "bundleforms"
PREFIX = str(SRC) + os.sep


class LineTracer:
    """Collects (file, line) for every line event in `src/bundleforms`."""

    def __init__(self):
        self.hits: set[tuple[str, int]] = set()

    def _local(self, frame, event, arg):
        if event == "line":
            self.hits.add((frame.f_code.co_filename, frame.f_lineno))
        return self._local

    def _global(self, frame, event, arg):
        if frame.f_code.co_filename.startswith(PREFIX):
            # the first line of a frame is reported as a "call" event
            self.hits.add((frame.f_code.co_filename, frame.f_lineno))
            return self._local
        return None

    def arm(self):
        sys.settrace(self._global)

    @contextlib.contextmanager
    def armed(self):
        self.arm()
        try:
            yield
        finally:
            sys.settrace(None)


def statements(path: Path) -> set[int]:
    """First lines of the module's statements that compile to instructions
    (a function's docstring, say, compiles to none)."""
    source = path.read_text(encoding="utf-8")
    lines: set[int] = set()
    todo = [compile(source, str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, line in dis.findlinestarts(code)
                     if line is not None)
        todo.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines & {node.lineno for node in ast.walk(ast.parse(source))
                    if isinstance(node, ast.stmt)}


def run_demos(tracer: LineTracer) -> None:
    for demo in sorted((ROOT / "demos").glob("*.py")):
        with contextlib.redirect_stdout(io.StringIO()), tracer.armed():
            runpy.run_path(str(demo), run_name="__main__")


def run_workloads(tracer: LineTracer) -> None:
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    for name in workloads.WORKLOADS:
        with tracer.armed():
            workloads.run_operation(name, 0)


def run_test_files(hits: set) -> None:
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=os.pathsep.join(
                   filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    for test in sorted((ROOT / "tests").glob("test_*.py")):
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp) / "hits.json"
            proc = subprocess.run([sys.executable, __file__, "--pytest-child",
                                   str(test), str(out)], cwd=ROOT, env=env,
                                  stdout=subprocess.DEVNULL, check=False)
            if proc.returncode:
                print(f"warning: {test.name} exited {proc.returncode}",
                      file=sys.stderr)
            if not out.exists():
                print(f"warning: {test.name} reported no lines", file=sys.stderr)
                continue
            hits.update(map(tuple, json.loads(out.read_text())))


def pytest_child(test: str, out: str) -> int:
    """Run one test file under the tracer, re-armed around every test phase."""
    import pytest

    tracer = LineTracer()

    class Rearm:
        @pytest.hookimpl(tryfirst=True)
        def pytest_runtest_setup(self, item):
            tracer.arm()

        @pytest.hookimpl(tryfirst=True)
        def pytest_runtest_call(self, item):
            tracer.arm()

        @pytest.hookimpl(tryfirst=True)
        def pytest_runtest_teardown(self, item):
            tracer.arm()

    tracer.arm()        # module-level code runs at collection
    code = pytest.main(["-q", "-p", "no:cacheprovider", test], plugins=[Rearm()])
    sys.settrace(None)
    Path(out).write_text(json.dumps(sorted(tracer.hits)))
    return int(code)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    sys.dont_write_bytecode = True
    if argv[:1] == ["--pytest-child"]:
        return pytest_child(*argv[1:3])
    sys.path.insert(0, str(ROOT / "src"))
    tracer = LineTracer()
    run_demos(tracer)
    run_workloads(tracer)
    run_test_files(tracer.hits)
    total = 0
    for path in sorted(SRC.glob("*.py")):
        missed = sorted(statements(path)
                        - {line for f, line in tracer.hits if f == str(path)})
        total += len(missed)
        if missed:
            print(f"{path.relative_to(ROOT)}: {len(missed)} unexecuted: "
                  + " ".join(map(str, missed)))
    print(f"total unexecuted statements: {total}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
