"""Every module-level import in the package's modules and the test files is used,
and every name the package re-exports is used by the package itself.

A deletion that leaves an import behind fails here.  The package's
__init__.py is skipped: its imports are the package's re-exports.  `from __future__`
imports are compiler directives and bind no name.  A re-exported name that no
other module of the package references is allowed only with a stated reason.
"""
import ast
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "pointline"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
TEST_FILES = sorted(TESTS.glob("*.py"))


def _imported_names(tree: ast.Module) -> dict[str, int]:
    """Name bound by each module-level import, mapped to its line number."""
    names = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
    return names


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in _imported_names(tree).items() if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_imports_are_used(path):
    assert _unused_imports(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("path", TEST_FILES, ids=lambda p: p.name)
def test_test_file_imports_are_used(path):
    assert _unused_imports(path.read_text(encoding="utf-8")) == []


def test_unused_import_is_reported():
    source = "from __future__ import annotations\nimport json\nimport os.path\nfrom re import compile as rc\nos.sep\n"
    assert _unused_imports(source) == ["line 2: json", "line 4: rc"]


def test_modules_found():
    assert {"arrangement.py", "generators.py", "errors.py"} <= {p.name for p in MODULES}
    assert {"conftest.py", "test_imports.py"} <= {p.name for p in TEST_FILES}


# re-exported names that no module of the package references, each with the
# reason it stays public
ONLY_OUTSIDE_THE_PACKAGE = {
    "orient": "the exact orientation test the tests build configurations with",
    "line_through": "independent reference for the canonical line keys",
    "normalize_key": "the canonical key rule that line_through applies",
    "LineKey": "the type of the canonical line keys",
    "IdenticalPoints": "the error line_through raises",
    "brute_force_lines": "the O(n^2) oracle the acceptance suite checks the kernel against",
    "visibility_edge_count": "independent reference for the st_edges check's suffix sums",
    "tail_sum": "the public series enclosure at one start c",
    "GraphSize": "the argument type of crossing_lower_bound",
    "crossing_lower_bound": "the crossing-number bound behind the Szemeredi-Trotter bound",
    "few_lines_lower_bound": "the few-point-line count bound a BoundParamsFew record gives",
}


def _exported_names() -> set[str]:
    return set(_imported_names(ast.parse((SRC / "__init__.py").read_text(encoding="utf-8"))))


def _referenced_names() -> set[str]:
    """Every Name and Attribute name in the package's modules other than __init__.py."""
    names = set()
    for path in MODULES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def test_every_export_is_used_by_the_package_or_allowed():
    exported = _exported_names()
    assert sorted(exported - _referenced_names() - set(ONLY_OUTSIDE_THE_PACKAGE)) == []
    assert sorted(set(ONLY_OUTSIDE_THE_PACKAGE) - exported) == []  # no stale reasons
