"""Line coverage gate: every statement of src/bwpsim must run under tier-1.

Run from anywhere, with pytest and hypothesis installed:

    python tools/linecov.py

The tool traces with `sys.settrace` alone, no coverage package. It starts
tracing before anything imports `bwpsim`, so module-level statements
count, then runs tier-1 in this process with a small pytest plugin that
arms the tracer again before each test (a test or hypothesis may replace
it). Only frames of code in src/bwpsim are traced line by line, and only
in the main thread: the suite starts no threads. Hypothesis runs
derandomized and without its example database, so every run draws the
same examples and reaches the same statements.

A statement counts as run when a line of its own (not of a nested block)
was executed; statements without code of their own, such as `try:`, are
skipped. `tools/linecov.json` lists the statements that are unreachable
on purpose, each by file and the stripped text of its first line, with
the reason. Exit status 1 on an unexecuted statement that the list does
not name, or on an entry that names no unexecuted statement; the pytest
exit status if tier-1 fails; 0 otherwise.
"""

from __future__ import annotations

import ast
import json
import os
import sys
from pathlib import Path
from types import CodeType

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "bwpsim"
ALLOWED = Path(__file__).resolve().parent / "linecov.json"


class Tracer:
    """The executed lines of the files in `files`, by file."""

    def __init__(self, files: list[Path]):
        self.hits: dict[str, set[int]] = {str(f): set() for f in files}

    def global_trace(self, frame, event, arg):
        lines = self.hits.get(frame.f_code.co_filename)
        if lines is None:
            return None

        def local_trace(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local_trace

        return local_trace

    def pytest_configure(self, config) -> None:
        from hypothesis import settings  # here, where pytest has set up its imports

        settings.register_profile("linecov", derandomize=True, database=None)
        settings.load_profile("linecov")  # before the tests build their settings

    def pytest_runtest_setup(self, item) -> None:
        sys.settrace(self.global_trace)


def _code_lines(code: CodeType) -> set[int]:
    """The lines that have bytecode in `code` and the code nested in it."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if isinstance(const, CodeType):
            lines |= _code_lines(const)
    return lines


def _statements(path: Path) -> list[tuple[int, set[int]]]:
    """(first line, own lines) of every statement in `path` with code of its own."""
    source = path.read_text(encoding="utf-8")
    executable = _code_lines(compile(source, str(path), "exec"))
    out = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.stmt):
            continue
        first = min([node.lineno, *(d.lineno for d in getattr(node, "decorator_list", ()))])
        own = set(range(first, node.end_lineno + 1))
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.stmt, ast.ExceptHandler, ast.match_case)):
                own -= set(range(child.lineno, child.end_lineno + 1))
        if own & executable:
            out.append((node.lineno, own))
    return sorted(out, key=lambda s: s[0])


def main() -> int:
    files = sorted(PACKAGE.glob("*.py"))
    tracer = Tracer(files)
    sys.path.insert(0, str(ROOT / "src"))
    os.chdir(ROOT)
    sys.settrace(tracer.global_trace)  # before the tests import bwpsim
    status = pytest.main(["-q", "-p", "no:cacheprovider"], plugins=[tracer])
    sys.settrace(None)
    if status != 0:
        print(f"linecov: tier-1 failed (pytest exit {status})", file=sys.stderr)
        return int(status)

    allowed = json.loads(ALLOWED.read_text(encoding="utf-8"))
    unmatched = {(a["file"], a["statement"]) for a in allowed}
    missed = []
    for path in files:
        name = path.relative_to(ROOT / "src").as_posix()
        lines = path.read_text(encoding="utf-8").splitlines()
        for first, own in _statements(path):
            if own & tracer.hits[str(path)]:
                continue
            key = (name, lines[first - 1].strip())
            if key in unmatched:
                unmatched.discard(key)
            else:
                missed.append(f"{name}:{first}: {key[1]}")
    for line in missed:
        print(f"not run: {line}")
    for name, statement in sorted(unmatched):
        print(f"STALE: {name}: {statement!r} names no unexecuted statement")
    print(f"linecov: {len(missed)} unexecuted statements outside {ALLOWED.name}, {len(unmatched)} stale entries")
    return 1 if missed or unmatched else 0


if __name__ == "__main__":
    sys.exit(main())
