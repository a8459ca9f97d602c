"""Static rules for the package: every import sits at module level, no
module imports another module's underscore (private) names, the package
exports each name from the module that defines it, every exported name,
indeed every top-level definition, is reached from a command or named in the
README's library overview, no function calls itself, so no input size
meets Python's recursion limit, only the two callers that decide how
many trials are drawn at once read TRIAL_CHUNK, only `draw_trials` and
`gen_gnp` call a Generator's draw methods, only `compile_lists` builds a
CompiledInstance, and importing the CLI loads no networkx module."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import localcolor

PACKAGE_DIR = Path(localcolor.__file__).parent
README = Path(__file__).resolve().parent.parent / "README.md"


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
        "from .experiment import run_estimate\n"
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


def bound_names(node: ast.stmt) -> set[str]:
    """Names a top-level statement binds itself, not by importing them."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return {node.name}
    if isinstance(node, ast.Assign):
        return {t.id for t in node.targets if isinstance(t, ast.Name)}
    if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
        return {node.target.id}
    return set()


def defined_names(source: str) -> set[str]:
    """Names a module binds at top level itself, not by importing them."""
    return {name for node in ast.parse(source).body for name in bound_names(node)}


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


def exported_names(init_source: str) -> list[str]:
    """The names `from .m import ...` lines bind in the package's __init__."""
    return [
        alias.name
        for node in ast.parse(init_source).body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    ]


def reached_names(sources: dict[str, str], root: str) -> set[str]:
    """Top-level names reached from the definitions of module `root`.

    A definition reaches every name it mentions, as a name or an attribute,
    and a reached name brings in every top-level definition of that name in
    any module of `sources`: a walk over names, not over resolved bindings,
    so it can only over-approximate.
    """
    defs: dict[str, list[ast.AST]] = {}
    for source in sources.values():
        for node in ast.parse(source).body:
            for name in bound_names(node):
                defs.setdefault(name, []).append(node)
    todo = [
        node
        for node in ast.parse(sources[root]).body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
    ]
    seen: set[str] = set()
    while todo:
        for sub in ast.walk(todo.pop()):
            name = sub.id if isinstance(sub, ast.Name) else getattr(sub, "attr", None)
            if name in defs and name not in seen:
                seen.add(name)
                todo += defs[name]
    return seen


def documented_names(readme: str) -> set[str]:
    """Identifiers inside backticks in the README's "Library overview"."""
    section = readme.split("## Library overview", 1)[1].split("\n## ", 1)[0]
    return {
        name
        for span in re.findall(r"`([^`]*)`", section)
        for name in re.findall(r"[A-Za-z_]\w*", span)
    }


def unsupported_exports(init: str, sources: dict[str, str], readme: str) -> list[str]:
    """Exported names that no cli function reaches and the overview does not name."""
    known = reached_names(sources, "cli") | documented_names(readme)
    return [name for name in exported_names(init) if name not in known]


def test_surface_guard_catches_an_unreached_export():
    sources = {
        "cli": "from .a import f\ndef main():\n    return f()\n",
        "a": "def f():\n    return g.x\ndef g():\n    pass\ndef x():\n    pass\ndef h():\n    pass\n",
    }
    init = "from .a import f, g, h, k, x\n"
    readme = "## Library overview\n\n- `k(n)` is documented.\n\n## CLI\n\n`h`\n"
    assert unsupported_exports(init, sources, readme) == ["h"]


def test_every_export_is_reached_from_cli_or_documented():
    sources = {path.stem: path.read_text() for path in PACKAGE_DIR.glob("*.py")}
    init = sources.pop("__init__")
    assert unsupported_exports(init, sources, README.read_text()) == []


def unreached_definitions(sources: dict[str, str], readme: str) -> list[str]:
    """"m.name" for each top-level name a module m defines that is neither a cli
    definition, nor reached from one, nor named in the overview."""
    known = defined_names(sources["cli"]) | reached_names(sources, "cli")
    known |= documented_names(readme)
    return sorted(
        f"{module}.{name}"
        for module, source in sources.items()
        for name in defined_names(source)
        if name not in known
    )


def test_definition_guard_catches_unreached_code():
    sources = {
        "cli": "from .a import f\ndef main():\n    return f()\n",
        "a": "E = int\ndef f():\n    pass\ndef g():\n    pass\ndef h():\n    pass\n",
    }
    readme = "## Library overview\n\n- `h` is documented.\n"
    assert unreached_definitions(sources, readme) == ["a.E", "a.g"]


def test_every_definition_is_reached_from_cli_or_documented():
    sources = {path.stem: path.read_text() for path in PACKAGE_DIR.glob("*.py")}
    del sources["__init__"]
    assert unreached_definitions(sources, README.read_text()) == []


def self_calls(source: str) -> list[tuple[int, str]]:
    """(line, name) for each call of a function, or through `self` of a
    method, by its own name inside its body, nested functions included."""
    out = []
    for fn in ast.walk(ast.parse(source)):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            out += [
                (node.lineno, fn.name)
                for node in ast.walk(fn)
                if isinstance(node, ast.Call)
                and (
                    getattr(node.func, "id", None) == fn.name
                    or getattr(node.func, "attr", None) == fn.name
                    and getattr(node.func.value, "id", None) == "self"
                )
            ]
    return sorted(out)


def test_recursion_guard_catches_self_calls():
    source = (
        "def f(n):\n"
        "    def extend(r):\n"
        "        extend(r + 1)\n"
        "    return g(n) + x.f(n)\n"
        "class A:\n"
        "    def walk(self):\n"
        "        return self.walk()\n"
    )
    assert self_calls(source) == [(3, "extend"), (7, "walk")]


def test_no_function_calls_itself():
    found = [
        f"{path.name}:{line}: {name}"
        for path in sorted(PACKAGE_DIR.glob("*.py"))
        for line, name in self_calls(path.read_text())
    ]
    assert found == []


def sites(module: str, source: str, hit) -> list[str]:
    """"m.owner:line" for each AST node of module m that `hit` accepts, owner
    the top-level definition that holds it or <module>."""
    out = []
    for node in ast.parse(source).body:
        owner = getattr(node, "name", "<module>")
        out += [f"{module}.{owner}:{sub.lineno}" for sub in ast.walk(node) if hit(sub)]
    return out


def owners(sources: dict[str, str], hit) -> set[str]:
    return {site.rsplit(":", 1)[0] for m, source in sources.items() for site in sites(m, source, hit)}


def strays(sources: dict[str, str], hit, allowed: set[str]) -> list[str]:
    """The sites `hit` accepts outside the `allowed` owners, sorted."""
    return sorted(
        site
        for module, source in sources.items()
        for site in sites(module, source, hit)
        if site.rsplit(":", 1)[0] not in allowed
    )


# The functions that decide how many trials are drawn at once: every other
# caller takes the trials it is given.
CHUNK_READERS = {"procedure.pipeline_color", "procedure.draw_left"}


def reads_chunk(sub: ast.AST) -> bool:
    """A read or import of TRIAL_CHUNK, as a name or an attribute."""
    return (
        isinstance(sub, ast.Name) and sub.id == "TRIAL_CHUNK" and isinstance(sub.ctx, ast.Load)
        or isinstance(sub, ast.Attribute) and sub.attr == "TRIAL_CHUNK"
        or isinstance(sub, ast.alias) and sub.name == "TRIAL_CHUNK"
    )


def test_chunk_guard_catches_a_read_from_elsewhere():
    sources = {
        "procedure": (
            "TRIAL_CHUNK = 1024\n"
            "def draw_left(trials):\n"
            "    return min(trials, TRIAL_CHUNK)\n"
            "def savings_rows(n=TRIAL_CHUNK):\n"
            "    return procedure.TRIAL_CHUNK\n"
        ),
        "experiment": "from .procedure import TRIAL_CHUNK as CHUNK\n",
    }
    assert strays(sources, reads_chunk, CHUNK_READERS) == [
        "experiment.<module>:1", "procedure.savings_rows:4", "procedure.savings_rows:5",
    ]


def test_only_the_chunking_callers_read_the_trial_chunk():
    sources = {path.stem: path.read_text() for path in PACKAGE_DIR.glob("*.py")}
    assert strays(sources, reads_chunk, CHUNK_READERS) == []
    assert owners({"procedure": sources["procedure"]}, reads_chunk) == CHUNK_READERS


# The functions that draw random numbers from a Generator: the procedure's
# one drawer and the G(n, p) generator.  Every other function takes its draws
# from them.
DRAWERS = {"procedure.draw_trials", "generators.gen_gnp"}


def draws(sub: ast.AST) -> bool:
    """A call of a method named `random` or `integers`, a Generator's draw
    methods."""
    return isinstance(sub, ast.Call) and getattr(sub.func, "attr", None) in ("random", "integers")


def test_drawer_guard_catches_a_second_drawer():
    sources = {
        "procedure": (
            "def draw_trials(rng, n):\n"
            "    return rng.random(n), rng.integers(0, 3, size=n)\n"
            "def draw_left(rng, n):\n"
            "    act = [rng.random(1) for _ in range(n)]\n"
            "    return act, np.random.default_rng(0).integers(3)\n"
        ),
        "experiment": "rng = np.random.default_rng(np.random.Philox(0))\nx = rng.random()\n",
    }
    assert strays(sources, draws, DRAWERS) == [
        "experiment.<module>:2", "procedure.draw_left:4", "procedure.draw_left:5",
    ]


def test_only_the_drawers_draw():
    sources = {path.stem: path.read_text() for path in PACKAGE_DIR.glob("*.py")}
    assert strays(sources, draws, DRAWERS) == []
    assert owners(sources, draws) == DRAWERS


# The one function that builds a CompiledInstance or copies one through
# dataclasses.replace.  Its instances leave no cell of a big edge unmatched,
# which keep_table's one probability per vertex rests on; a second builder
# could make the partial maps that keep_table does not handle.
INSTANCE_BUILDERS = {"procedure.compile_lists"}


def builds(sub: ast.AST) -> bool:
    """A call of CompiledInstance (as a name or an attribute), of
    dataclasses.replace, or of a bare `replace`."""
    f = sub.func if isinstance(sub, ast.Call) else None
    if isinstance(f, ast.Name):
        return f.id in ("CompiledInstance", "replace")
    return isinstance(f, ast.Attribute) and (
        f.attr == "CompiledInstance"
        or f.attr == "replace" and isinstance(f.value, ast.Name) and f.value.id == "dataclasses"
    )


def test_instance_guard_catches_a_second_constructor():
    sources = {
        "procedure": (
            "def compile_lists(g, L):\n"
            "    inst = CompiledInstance(L, g)\n"
            "    return dataclasses.replace(inst, where=None)\n"
            "def compile_partial(g, L):\n"
            "    return replace(compile_lists(g, L), zmap=None), text.replace('a', 'b')\n"
        ),
        "experiment": "inst = procedure.CompiledInstance([], None)\n",
    }
    assert strays(sources, builds, INSTANCE_BUILDERS) == [
        "experiment.<module>:1", "procedure.compile_partial:5",
    ]


def test_only_compile_lists_builds_instances():
    sources = {path.stem: path.read_text() for path in PACKAGE_DIR.glob("*.py")}
    assert strays(sources, builds, INSTANCE_BUILDERS) == []
    assert owners(sources, builds) == INSTANCE_BUILDERS


def test_the_cli_imports_no_networkx():
    # networkx is a test dependency only; its import alone was 0.12 s of the
    # CLI's start-up
    script = "import sys, localcolor.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'networkx'))"
    path = [str(PACKAGE_DIR.parent), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120, check=False,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
