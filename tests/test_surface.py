"""The package's surface holds only what runs: every name that a module
exports (its ``__all__``) or that ``__init__.py`` re-exports is read by the
package itself or by the benchmark (``perfbench/``), outside its own
definition and the export lists.  Reference code that only the tests run
lives in ``tests/``."""

import ast
import functools
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "mkdv_series"
SOURCES = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))

# exported names that nothing reads yet, each with the reason it stays
ALLOWED = {
    "majorant_tree": "the per-solve, depth-graded majorant bound composes it over trees (ROADMAP.md item 8)",
}


@functools.lru_cache(maxsize=None)
def _parsed(path):
    return ast.parse(path.read_text())


def _is_all(node):
    return isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)


def exports():
    """{name: path of the module that defines it} for every exported name."""
    out = {}
    for path in PACKAGE.glob("*.py"):
        for node in _parsed(path).body:
            if _is_all(node):
                out.update((elt.value, path) for elt in node.value.elts)
            elif path.name == "__init__.py" and isinstance(node, ast.ImportFrom):
                out.update((alias.name, PACKAGE / f"{node.module}.py") for alias in node.names)
    return out


@functools.lru_cache(maxsize=None)
def _index():
    """(identifier, path, line, top-level def or class it sits in) for every
    name, attribute or string read in SOURCES outside the export lists."""
    out = []
    for path in SOURCES:
        for top in _parsed(path).body:
            if _is_all(top) or (path == PACKAGE / "__init__.py" and isinstance(top, ast.ImportFrom)):
                continue
            owner = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else None
            for node in ast.walk(top):
                if isinstance(node, ast.Name):
                    out.append((node.id, path, node.lineno, owner))
                elif isinstance(node, ast.Attribute):
                    out.append((node.attr, path, node.lineno, owner))
                elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                    out.append((node.value, path, node.lineno, owner))
    return out


def reads(name, home):
    """The places that read ``name`` as a name, an attribute or a string (a
    hook looked up by ``getattr``), outside its own definition in ``home``."""
    return [
        f"{path.relative_to(ROOT)}:{line}"
        for ident, path, line, owner in _index()
        if ident == name and not (path == home and owner == name)
    ]


def test_every_export_is_read_by_the_package_or_the_benchmark():
    names = exports()
    assert {"CoeffSeq", "depth_term_tables", "oracle_rhs", "solve_series"} <= names.keys()
    unread = sorted(name for name, home in names.items() if name not in ALLOWED and not reads(name, home))
    assert not unread, f"exported, but read only by the tests (move them to tests/): {unread}"
    # an allowed name that gains a reader, or stops being exported, leaves the list
    for name in ALLOWED:
        assert name in names and not reads(name, names[name]), name


def test_reads_skip_the_definition_and_the_export_lists():
    # a name read only where it is defined and exported counts as unread
    ops = PACKAGE / "ops.py"
    assert reads("majorant_tree", ops) == []
    assert reads("majorant_apply", ops) != []       # majorant_tree calls it
    assert [r.split(":")[0] for r in reads("oracle_rhs", PACKAGE / "oracle.py")] == ["perfbench/run.py"]
