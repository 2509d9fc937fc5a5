"""Every Python file parses under the grammar of Python 3.10, the oldest
version `pyproject.toml` supports, so newer syntax is caught without a 3.10
interpreter; the library holds no `assert` statement and no unused
import, reads JSON files in one place, checks the circuit axioms only
off the hot path, grows the circuit scan without per-support kernels, and
runs arrangements and raw circuit systems through one code path (one
`form_index`, one memo, one source-kind test)."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_sources_parse_as_python_3_10():
    files = sorted(p for top in ("src", "tests", "demos", "tools", "perfbench")
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


def _unused_imports(path) -> list:
    """`file:line name` for each name an import binds but its scope (the
    enclosing function, else the module) never reads.  `__future__`
    imports and lines marked `# re-exported` are exempt."""
    source = path.read_text()
    lines = source.splitlines()
    tree = ast.parse(source, filename=str(path))
    scope_of = {}
    for scope in [tree] + [n for n in ast.walk(tree)
                           if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))]:
        for node in ast.walk(scope):
            scope_of[node] = scope  # inner scopes are visited later and win
    found = []
    for node, scope in scope_of.items():
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if getattr(node, "module", None) == "__future__":
            continue
        if "# re-exported" in lines[node.lineno - 1]:
            continue
        read = {n.id for n in ast.walk(scope) if isinstance(n, ast.Name)}
        for alias in node.names:
            name = (alias.asname or alias.name).split(".")[0]
            if name not in read:
                found.append(f"{path.relative_to(ROOT)}:{node.lineno} {name}")
    return found


def test_sources_have_no_unused_imports():
    files = sorted(p for p in (ROOT / "src" / "arrgr").rglob("*.py")
                   if p.name != "__init__.py")
    assert files
    assert [hit for path in files for hit in _unused_imports(path)] == []


def _scopes_using(tree, attr: str) -> set:
    """Qualified names (Class.function) of the scopes that use `.attr`."""
    found = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, scope + (child.name,))
                continue
            if isinstance(child, ast.Attribute) and child.attr == attr:
                found.add(".".join(scope))
            visit(child, scope)
    visit(tree, ())
    return found


def test_cache_is_touched_only_by_memo():
    """Cached queries go through `GroundSet._memo`, shared by arrangements
    and circuit systems: no module reads or fills `_cache` by key, and
    only the modules that build a cached object call `_memo` (the
    chambers' masks, for one, are `vgring`'s one tope value)."""
    files = sorted((ROOT / "src" / "arrgr").rglob("*.py"))
    assert files
    used = set().union(*(_scopes_using(ast.parse(path.read_text()), "_cache")
                         for path in files))
    assert used == {"GroundSet.__init__", "GroundSet._memo"}
    callers = {path.name for path in files
               if _scopes_calling(ast.parse(path.read_text()), "_memo")}
    assert callers == {"arrangement.py", "circuits.py", "cordovil.py", "vgring.py"}


def test_ground_set_methods_are_defined_once():
    """Index lookup and the memo are written once, on the class that
    arrangements and circuit systems share."""
    files = sorted((ROOT / "src" / "arrgr").rglob("*.py"))
    assert files
    defined = [f"{path.stem}.{node.name}"
               for path in files
               for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
               and node.name in ("form_index", "_memo")]
    assert sorted(defined) == ["circuits._memo", "circuits.form_index"]


def _kind_tests(tree) -> set:
    """Qualified names (Class.function) of the functions, `__eq__` aside,
    that call `isinstance(..., Arrangement)` or `isinstance(..., CircuitSet)`,
    alone or in a tuple of classes."""
    kinds = {"Arrangement", "CircuitSet"}
    found = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, scope + (child.name,))
                continue
            if (isinstance(child, ast.Call) and getattr(child.func, "id", None) == "isinstance"
                    and len(child.args) == 2 and scope[-1:] != ("__eq__",)):
                classes = child.args[1]
                names = classes.elts if isinstance(classes, ast.Tuple) else [classes]
                if kinds & {getattr(c, "id", None) for c in names}:
                    found.add(".".join(scope))
            visit(child, scope)
    visit(tree, ())
    return found


def test_source_kind_is_tested_in_one_function():
    """Arrangements and raw circuit systems share one code path: at most
    one function, the one that fetches a source's circuit system, asks
    which kind of source it holds."""
    files = sorted((ROOT / "src" / "arrgr").rglob("*.py"))
    assert files
    found = {f"{path.stem}.{scope}" for path in files
             for scope in _kind_tests(ast.parse(path.read_text()))}
    assert len(found) <= 1, sorted(found)


def test_json_is_read_in_one_place():
    """Every input file goes through one reader, so its decoding and its
    error messages are written once: `json.load` is called in exactly one
    function of the library."""
    files = sorted((ROOT / "src" / "arrgr").rglob("*.py"))
    assert files
    callers = set()
    for path in files:
        tree = ast.parse(path.read_text(), filename=str(path))
        for func in ast.walk(tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(func):
                if (isinstance(node, ast.Attribute) and node.attr == "load"
                        and isinstance(node.value, ast.Name)
                        and node.value.id == "json"):
                    callers.add(f"{path.name}:{func.name}")
    assert len(callers) == 1, sorted(callers)


def _scopes_calling(tree, name: str) -> set:
    """Qualified names (Class.function) of the scopes that call `name`,
    bare or as an attribute."""
    found = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, scope + (child.name,))
                continue
            if isinstance(child, ast.Call) and name in (
                    getattr(child.func, "id", None), getattr(child.func, "attr", None)):
                found.add(".".join(scope))
            visit(child, scope)
    visit(tree, ())
    return found


def test_axioms_are_checked_off_the_hot_path():
    """The circuit scan's output is exact and is not re-checked: inside the
    library, `validate_circuit_axioms` is called only where outside data
    becomes a circuit system, by the `circuits` command and by criterion 8."""
    files = sorted((ROOT / "src" / "arrgr").rglob("*.py"))
    assert files
    callers = {f"{path.stem}.{scope}"
               for path in files
               for scope in _scopes_calling(ast.parse(path.read_text()),
                                            "validate_circuit_axioms")}
    assert callers == {"circuits.circuits_from_json", "cli.cmd_circuits",
                       "acceptance.criterion_8"}


def test_circuit_scan_grows_without_kernels_or_combinations():
    """The circuit scan grows independent sets by incremental reduction:
    `_arrangement_circuits`, nested helpers included, calls neither
    `rank_and_kernel` nor `itertools.combinations`."""
    tree = ast.parse((ROOT / "src" / "arrgr" / "circuits.py").read_text())
    (scan,) = [node for node in ast.walk(tree)
               if isinstance(node, ast.FunctionDef) and node.name == "_arrangement_circuits"]
    called = {getattr(node.func, "id", None) or getattr(node.func, "attr", None)
              for node in ast.walk(scan) if isinstance(node, ast.Call)}
    assert "rank" in called
    assert not called & {"rank_and_kernel", "combinations"}
