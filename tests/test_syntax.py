"""Every Python file parses under the grammar of Python 3.10, the oldest
version `pyproject.toml` supports, so newer syntax is caught without a 3.10
interpreter; and the library holds no `assert` statement."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_sources_parse_as_python_3_10():
    files = sorted(p for top in ("src", "tests", "demos")
                   for p in (ROOT / top).rglob("*.py"))
    assert files
    for path in files:
        ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))


def test_sources_have_no_bare_assert():
    """Library invariants raise `ConsistencyError`: an `assert` statement
    vanishes under `python -O`."""
    files = sorted((ROOT / "src").rglob("*.py"))
    assert files
    found = [f"{path.relative_to(ROOT)}:{node.lineno}"
             for path in files
             for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []
