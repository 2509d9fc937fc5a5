"""Every Python file parses under the grammar of Python 3.10, the oldest
version `pyproject.toml` supports, so newer syntax is caught without a 3.10
interpreter."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_sources_parse_as_python_3_10():
    files = sorted(p for top in ("src", "tests", "demos")
                   for p in (ROOT / top).rglob("*.py"))
    assert files
    for path in files:
        ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))
