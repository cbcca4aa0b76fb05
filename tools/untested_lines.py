"""Print every executable line of ``src/formkit`` that no tier-1 test runs.

Runs the test suite in this process under a line tracer (``sys.settrace``
and, for the threads the stacks are split over, ``threading.settrace``)
that records only frames whose code lives in ``src/formkit``. The
executable lines are those of every code object the compiled sources hold
(``co_lines``), less the statements marked ``# pragma: no cover``.
Standard library only, besides pytest itself; extra arguments go to
pytest. It exits with pytest's code, or 1 when the tests passed but some
executable line never ran. Run from anywhere:

    python tools/untested_lines.py
"""

from __future__ import annotations

import ast
import os
import sys
import threading
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "formkit"


def executable_lines(path: Path) -> set[int]:
    """Line numbers of every instruction in the code objects compiled from
    path, less the statements marked ``# pragma: no cover``."""
    source = path.read_text()
    lines, stack = set(), [compile(source, str(path), "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line is not None)
        stack.extend(const for const in code.co_consts if isinstance(const, types.CodeType))
    text = source.splitlines()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.stmt) and "# pragma: no cover" in text[node.lineno - 1]:
            lines.difference_update(range(node.lineno, node.end_lineno + 1))
    return lines


def traced_run(args: list[str]) -> tuple[int, dict[str, set[int]]]:
    """Run pytest on tier-1 and return its exit code and the lines run, by file."""
    import pytest

    prefix = str(PACKAGE) + os.sep
    ran: dict[str, set[int]] = {}

    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(prefix):
            return None
        ran.setdefault(filename, set()).add(frame.f_lineno)
        return local

    os.chdir(ROOT)
    threading.settrace(tracer)
    sys.settrace(tracer)
    options = ["-q", "-p", "no:cacheprovider", "--continue-on-collection-errors"]
    try:
        code = pytest.main(options + args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(code), ran


def main() -> int:
    code, ran = traced_run(sys.argv[1:])
    missed = []
    for path in sorted(PACKAGE.glob("*.py")):
        text = path.read_text().splitlines()
        for line in sorted(executable_lines(path) - ran.get(str(path), set())):
            missed.append(f"{path.relative_to(ROOT)}:{line}: {text[line - 1].strip()}")
    for line in missed:
        print(line)
    print(f"{len(missed)} executable lines of src/formkit never ran")
    return code or int(bool(missed))


if __name__ == "__main__":
    sys.exit(main())
