"""Every module-level import in the package's modules and the test files is used,
and every name the package re-exports is used by the package itself.

A deletion that leaves an import behind fails here.  The package's
__init__.py is skipped: its imports are the package's re-exports.  `from __future__`
imports are compiler directives and bind no name.  A re-exported name that no
other module of the package references is allowed only with a stated reason.
The independent references in tests/reference.py import only pointline's
public records and errors, no package module imports from the tests, and
every name reference.py defines is read by a test file or by reference.py.
Every private module-level name of the package is read by the package.
"""
import ast
import importlib.util
from pathlib import Path

import pytest

import pointline
from pointline import _kern, arrangement, bounds, errors, oracle

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
    "visibility_edge_count": "ROADMAP item 5: the crossing check's visibility-graph edge count",
    "GraphSize": "ROADMAP item 5: the crossing check's argument to crossing_lower_bound",
    "crossing_lower_bound": "ROADMAP item 5: the crossing check's lower bound on C(L, 2)",
    "few_lines_lower_bound": "ROADMAP item 5: the few_lines check's bound at FEW_C",
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


def _unreached_exports(exported: set[str]) -> list[str]:
    """The exported names that no package module references and the allowlist does not hold."""
    return sorted(exported - _referenced_names() - set(ONLY_OUTSIDE_THE_PACKAGE))


def test_every_export_is_used_by_the_package_or_allowed():
    exported = _exported_names()
    assert _unreached_exports(exported) == []
    assert sorted(set(ONLY_OUTSIDE_THE_PACKAGE) - exported) == []  # no stale reasons


def test_an_export_only_the_tests_use_is_reported():
    assert _unreached_exports(_exported_names() | {"brute_force_lines"}) == ["brute_force_lines"]


# the test-side modules a package module must never import
TEST_MODULES = {path.stem for path in TEST_FILES} | {"tests"}


def _package_imports(tree: ast.Module) -> list[tuple[int, str, str]]:
    """(line, module, name) of each import anywhere in tree; name is "" for a plain import."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [(node.lineno, alias.name, "") for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            module = "." * node.level + (node.module or "")
            found += [(node.lineno, module, alias.name) for alias in node.names]
    return found


def _reference_violations(source: str) -> list[str]:
    """Imports of a reference module that reach past pointline's public records and errors."""
    bad = []
    for line, module, name in _package_imports(ast.parse(source)):
        if module.split(".")[0] not in ("pointline", "") and module not in TEST_MODULES:
            continue  # the standard library and third-party packages
        public_type = (module == "pointline" and not name.startswith("_")
                       and isinstance(getattr(pointline, name, None), type))
        if not public_type:
            bad.append(f"line {line}: {module} {name}".rstrip())
    return bad


def test_the_references_and_the_package_share_no_code():
    assert _reference_violations((TESTS / "reference.py").read_text(encoding="utf-8")) == []
    # the kernels' clearing, the certificate's, a whole module or another test module
    source = ("from pointline import PointSet, _kern\nfrom pointline._kern import homogenise\n"
              "from pointline.oracle import _cleared\nimport pointline\nfrom conftest import pset\n")
    assert _reference_violations(source) == [
        "line 1: pointline _kern", "line 2: pointline._kern homogenise",
        "line 3: pointline.oracle _cleared", "line 4: pointline", "line 5: conftest pset",
    ]
    # and no package module imports from the tests
    assert [(path.name, line, module) for path in [*MODULES, SRC / "__init__.py"]
            for line, module, _ in _package_imports(ast.parse(path.read_text(encoding="utf-8")))
            if module.split(".")[0] in TEST_MODULES or module.startswith("..")] == []


def _used_names(tree: ast.Module) -> set[str]:
    """Every name tree reads: each Name it loads and each attribute it takes."""
    return ({node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
            | {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)})


def _defined_names(tree: ast.Module) -> set[str]:
    """The names tree defines at module level: each def, class or assignment target."""
    defined = {node.name for node in tree.body if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    return defined | {target.id for node in tree.body if isinstance(node, ast.Assign)
                      for target in node.targets if isinstance(target, ast.Name)}


def _unused_references(source: str, users: set[str]) -> list[str]:
    """The names source defines at module level that neither source itself reads nor users holds."""
    tree = ast.parse(source)
    return sorted(_defined_names(tree) - _used_names(tree) - users)


def test_every_reference_is_compared_against():
    source = (TESTS / "reference.py").read_text(encoding="utf-8")
    users = set().union(*(_used_names(ast.parse(path.read_text(encoding="utf-8")))
                          for path in TEST_FILES if path.name != "reference.py"))
    assert _unused_references(source, users) == []
    # a helper no test calls is reported, and so is a constant; one the
    # references call themselves is not
    extra = "\nLIMIT = 3\n\ndef line_through(p, q):\n    return _key(p)\n\ndef _key(p):\n    return p\n"
    assert _unused_references(source + extra, users) == ["LIMIT", "line_through"]


def _unread_private_names(sources: dict[str, str]) -> list[str]:
    """The module-level _names (not dunders) each source defines that no source reads, as "file: name"."""
    trees = {name: ast.parse(source) for name, source in sources.items()}
    read = set().union(*map(_used_names, trees.values()))
    return sorted(f"{name}: {defined}" for name, tree in trees.items() for defined in _defined_names(tree)
                  if defined.startswith("_") and not defined.startswith("__") and defined not in read)


def test_every_private_helper_is_read_by_the_package():
    sources = {path.name: path.read_text(encoding="utf-8") for path in [*MODULES, SRC / "__init__.py"]}
    assert _unread_private_names(sources) == []
    # a private helper and a private constant nothing reads are reported, a
    # private helper that only another helper reads is not, nor is a public name
    extra = ("\n_LIMIT = 3\n\ndef _line_through(p, q):\n    return _key(p)\n\n"
             "def _key(p):\n    return p\n\ndef line_through(p, q):\n    return p\n")
    sources["bounds.py"] += extra
    assert _unread_private_names(sources) == ["bounds.py: _LIMIT", "bounds.py: _line_through"]


def test_moved_and_deleted_names_are_gone():
    # the references live in tests/reference.py; the rest had no caller, or,
    # as the lazy line map and its kernel, no command reached them, or, as
    # the per-check helpers, the check table replaced them
    gone = {
        pointline: ("orient", "normalize_key", "line_through", "LineKey", "brute_force_lines",
                    "certify_lines", "tail_sum", "IdenticalPoints", "hirzebruch_check"),
        arrangement: ("orient", "normalize_key", "line_through", "LineKey"),
        oracle: ("brute_force_lines", "certify_lines"),
        bounds: ("tail_sum", "hirzebruch_check", "_check", "_Family", "_WD", "_FEW", "TAIL_KINDS", "_st_bound"),
        errors: ("IdenticalPoints",),
        bounds.Interval: ("of", "width", "contains", "encloses", "__neg__", "__str__",
                          "__radd__", "__sub__", "__rsub__", "__truediv__"),
        _kern: ("group_collinear", "_free_columns", "_count_line", "_with_two_point_lines"),
        arrangement.Arrangement: ("lines",),
    }
    assert [(owner.__name__, name) for owner, names in gone.items()
            for name in names if name in vars(owner)] == []
    # the point model lives in arrangement
    assert importlib.util.find_spec("pointline.geometry") is None
    assert arrangement.Arrangement._fields == ("n", "size_hist", "max_collinear", "incidences",
                                               "lines_per_point", "num_lines")
