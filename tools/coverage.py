"""List the statements of `src/arrgr` that the Tier-1 tests never run.

    python3 tools/coverage.py                 # the whole Tier-1 suite
    python3 tools/coverage.py tests/test_vgring.py -k filtration

Runs pytest in this interpreter (`pytest.main`, default arguments `-q
--continue-on-collection-errors`, or the ones given) under a
`sys.settrace` line tracer that records only frames whose code comes from
`src/arrgr`, so it needs nothing beyond the standard library and pytest
and runs on Python 3.10-3.13.  Code run in a subprocess (the CLI tests
that start `arrgr`) is not seen.

A statement is an `ast` statement node of a source file, less the bare
constant expressions (docstrings) and `pass`, `global` and `nonlocal`,
which compile to no traced line.  It counts as run when a line event fired
anywhere in its span, from its first decorator to its last line: a
compound statement whose body ran was reached.  Per file the report lists
the never-run statements whose enclosing statement ran (the body of a
never-run `if` or `def` is not listed again), as line numbers or first-last
spans (spans on consecutive lines joined), then a total.  The report goes to stdout; the exit code is pytest's,
so the tool fails only when the tests fail.
"""

from __future__ import annotations

import ast
import os
import sys
import threading
from collections import defaultdict

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "arrgr")
_SILENT = (ast.Pass, ast.Global, ast.Nonlocal)


def _counted(node: ast.stmt) -> bool:
    if isinstance(node, _SILENT):
        return False
    return not (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant))


def _span(node: ast.stmt) -> range:
    first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", ())])
    return range(first, node.end_lineno + 1)


def _children(node: ast.AST):
    """The statements directly inside `node`, in every block it holds."""
    for field in ("body", "orelse", "finalbody", "handlers", "cases"):
        for child in getattr(node, field, ()):
            if isinstance(child, ast.stmt):
                yield child
            else:  # an except handler or a match case holds statements
                yield from child.body


def never_run(tree: ast.Module, lines: set) -> list:
    """The (first, last) spans of the outermost counted statements of `tree`
    with no line of `lines` in their span."""
    missed = []

    def visit(node):
        for child in _children(node):
            if _counted(child) and lines.isdisjoint(_span(child)):
                missed.append((_span(child).start, child.end_lineno))
            else:
                visit(child)

    visit(tree)
    return missed


def _spans(missed) -> str:
    """The spans as text, each run of spans on consecutive lines joined."""
    joined = []
    for a, b in sorted(missed):
        if joined and a <= joined[-1][1] + 1:
            joined[-1][1] = max(b, joined[-1][1])
        else:
            joined.append([a, b])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in joined)


def _trace(hits: dict):
    """A global trace function that line-traces the frames of `PACKAGE`."""
    prefix = PACKAGE + os.sep

    def local(frame, event, arg):
        if event == "line":
            hits[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def call(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(prefix) else None

    return call


def main(argv=None) -> int:
    args = list(sys.argv[1:] if argv is None else argv) or [
        "-q", "--continue-on-collection-errors"]
    os.chdir(ROOT)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import pytest

    hits: dict = defaultdict(set)
    tracer = _trace(hits)
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        code = pytest.main(args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    grand, grand_missed = 0, 0
    print("\nstatements of src/arrgr never run in process:")
    for name in sorted(os.listdir(PACKAGE)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(PACKAGE, name)
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), path)
        missed = never_run(tree, hits.get(path, set()))
        lines = [n.lineno for n in ast.walk(tree)
                 if isinstance(n, ast.stmt) and _counted(n)]
        total = len(lines)
        count = sum(1 for line in lines if any(a <= line <= b for a, b in missed))
        grand, grand_missed = grand + total, grand_missed + count
        print(f"  {name}: {count} of {total}" + (f": {_spans(missed)}" if missed else ""))
    share = 100 * (grand - grand_missed) / grand if grand else 100.0
    print(f"  total: {grand_missed} of {grand} never run ({share:.1f}% run)")
    return int(code)


if __name__ == "__main__":
    sys.exit(main())
