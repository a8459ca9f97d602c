"""Static import rules for the package: every import sits at module level,
and no module imports another module's underscore (private) names."""

import ast
from pathlib import Path

import localcolor

PACKAGE_DIR = Path(localcolor.__file__).parent


def _in_package(node: ast.ImportFrom) -> bool:
    return node.level > 0 or (node.module or "").split(".")[0] == "localcolor"


def import_violations(source: str) -> list[tuple[int, str]]:
    """(line, reason) for each function-local import and each private name
    imported from the package."""
    tree = ast.parse(source)
    out = []
    for fn in ast.walk(tree):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            out += [
                (node.lineno, "function-local import")
                for node in ast.walk(fn)
                if isinstance(node, (ast.Import, ast.ImportFrom))
            ]
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and _in_package(node):
            out += [
                (node.lineno, f"imports private name {alias.name}")
                for alias in node.names
                if alias.name.startswith("_")
            ]
    return sorted(set(out))


def test_guard_catches_both_rules():
    source = (
        "from .experiment import build_params\n"
        "def f():\n"
        "    from .experiment import _estimate_rows\n"
        "    import csv\n"
    )
    assert import_violations(source) == [
        (3, "function-local import"),
        (3, "imports private name _estimate_rows"),
        (4, "function-local import"),
    ]


def test_package_imports_are_module_level_and_public():
    found = [
        f"{path.name}:{line}: {reason}"
        for path in sorted(PACKAGE_DIR.glob("*.py"))
        for line, reason in import_violations(path.read_text())
    ]
    assert found == []
