"""Static import rules for the package: every import sits at module level,
no module imports another module's underscore (private) names, and the
package exports each name from the module that defines it."""

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


def defined_names(source: str) -> set[str]:
    """Names a module binds at top level itself, not by importing them."""
    names = set()
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
    return names


def reexports(init_source: str, module_source) -> list[str]:
    """".m.name" for each `from .m import name` in init_source that m does not
    define; module_source(m) is the source of module m."""
    out = []
    for node in ast.parse(init_source).body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            defined = defined_names(module_source(node.module))
            out += [f".{node.module}.{a.name}" for a in node.names if a.name not in defined]
    return out


def test_reexport_guard_catches_a_shim():
    sources = {"a": "from .b import g\nK: int = 1\ndef f():\n    pass\n"}
    assert reexports("from .a import K, f, g\n", sources.__getitem__) == [".a.g"]


def test_package_exports_come_from_their_defining_modules():
    init = (PACKAGE_DIR / "__init__.py").read_text()
    assert reexports(init, lambda m: (PACKAGE_DIR / f"{m}.py").read_text()) == []
