#!/usr/bin/env python3
"""List the lines of ``src/ewbench`` functions that no command line runs.

    python3 tools/argv_lines.py ['lift --case heisenberg ...' ...]

The argvs are those of ``tools/report_diff.py`` (its runner and its argv
sets, imported, not copied), and any extra command lines given.  They run
through ``ewbench.cli.main`` in this process, from this checkout's ``src``,
with a ``sys.settrace`` tracer that records each line executed in a frame of
an ``src/ewbench`` file.  A function's lines are the line starts of its code
object and of the lambdas and comprehensions inside it (an inner function
is listed on its own); a class body and a module's top level run at import
and are left out, and a function's first line counts as run when it is
called.
The tool prints, per module, the lines that no argv executes, grouped into
ranges under the qualified name of their function, then the totals; a
function that is never called shows all of its lines.  It exits 0, whatever
it finds.  It takes about 7 seconds and uses only the standard library.
"""
from __future__ import annotations

import contextlib
import dis
import inspect
import io
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "ewbench"

sys.path.insert(0, str(Path(__file__).resolve().parent))
import report_diff  # noqa: E402


def function_lines(path):
    """{(qualified name, first line): set of line starts} of every function
    compiled from ``path``; a lambda or comprehension inside a function
    adds its lines to that function's."""
    out = {}
    stack = [(compile(path.read_text(encoding="utf-8"), str(path), "exec"), None)]
    while stack:
        code, owner = stack.pop()
        key = owner
        if code.co_flags & inspect.CO_OPTIMIZED:  # not a module or class body
            lines = {line for _, line in dis.findlinestarts(code) if line is not None}
            if owner is None or not code.co_name.startswith("<"):
                key = (getattr(code, "co_qualname", code.co_name), code.co_firstlineno)
                out[key] = {code.co_firstlineno}
            out[key] |= lines
        stack += [(c, key) for c in code.co_consts if inspect.iscode(c)]
    return out


def run_traced(extra):
    """{file name: set of line numbers} executed in ``src/ewbench`` while
    the runner of ``tools/report_diff.py`` runs every argv."""
    prefix = str(PACKAGE) + os.sep
    hit = {}

    def local(frame, event, arg):
        if event == "line":
            hit.setdefault(frame.f_code.co_filename, set()).add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        if not frame.f_code.co_filename.startswith(prefix):
            return None
        hit.setdefault(frame.f_code.co_filename, set()).add(frame.f_code.co_firstlineno)
        return local

    # the runner reads "src", "perfbench" and README.md from the working
    # directory, and its arguments from sys.argv[1]
    cwd, argv = os.getcwd(), sys.argv
    os.chdir(ROOT)
    sys.argv = ["-c", report_diff.runner_args(extra)]
    runner = compile(report_diff.RUNNER, "report_diff.RUNNER", "exec")
    sys.settrace(tracer)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            exec(runner, {"__name__": "__main__"})
    finally:
        sys.settrace(None)
        os.chdir(cwd)
        sys.argv = argv
    return hit


def ranges(lines):
    """``"3-5, 9"`` for the sorted line numbers 3, 4, 5 and 9."""
    spans = []
    for line in sorted(lines):
        if spans and line == spans[-1][1] + 1:
            spans[-1][1] = line
        else:
            spans.append([line, line])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in spans)


def main(argv):
    hit = run_traced(list(report_diff.ARGV_SETS) + argv)
    missed_total = lines_total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        executed = hit.get(str(path), set())
        missed = []
        for (name, _), lines in sorted(function_lines(path).items(), key=lambda kv: kv[0][1]):
            lines_total += len(lines)
            if lines - executed:
                missed.append(f"  {name}: {ranges(lines - executed)}")
                missed_total += len(lines - executed)
        if missed:
            print(f"{path.relative_to(ROOT)}:")
            print("\n".join(missed))
    print(f"{missed_total} of {lines_total} function lines in src/ewbench run under no argv")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
