"""Every function in the package is run by some command: all seven commands,
on small instances and on malformed input files, run in process under the
standard library's line tracer, and the functions none of them enters must
be exactly the library entry points declared in UNREACHED."""

import ast
import json
import sys
import trace
from pathlib import Path

import pytest

import localcolor
from localcolor import cli

PACKAGE_DIR = Path(localcolor.__file__).resolve().parent

# The functions no command enters, each with the reason it stays in the package.
UNREACHED = {
    "lists.uniform_lists": "library convenience: every vertex the colors 0..k-1",
    "lists.ListAssignment.__getitem__": "the set view of a row that the test oracles read",
    "lists.ListAssignment.__eq__": "compares assignments row by row, as sets",
    "graph.Graph.__eq__": "graphs with the same edges are equal",
    "graph.Graph.__hash__": "and hash equal, so they can key a dict",
}

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def function_lines(module: str, source: str) -> dict[str, set[int]]:
    """{"module.qualified.name": lines of its body} for every function and
    method of the module, nested ones included.  A body runs from its first
    statement after the docstring to its end, less the bodies of the
    functions nested in it, which are entries of their own."""
    out, stack = {}, [(ast.parse(source), module)]
    while stack:
        node, prefix = stack.pop()
        for child in ast.iter_child_nodes(node):
            name = f"{prefix}.{child.name}" if isinstance(child, _DEFS) else prefix
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                body = child.body[1:] if ast.get_docstring(child) is not None else child.body
                out[name] = set(range(body[0].lineno, child.end_lineno + 1)) if body else set()
            stack.append((child, name))
    for name, lines in out.items():  # a nested body belongs to the nested function
        for inner, inner_lines in out.items():
            if inner.startswith(name + "."):
                lines -= inner_lines
    return out


def unreached(sources: dict[str, str], counts: dict[tuple[str, int], int]) -> set[str]:
    """The functions of `sources` (module name -> text of PACKAGE_DIR/module.py)
    with no body line in the tracer's `counts`."""
    ran: dict[str, set[int]] = {}
    for filename, line in counts:
        ran.setdefault(str(Path(filename).resolve()), set()).add(line)
    return {
        name
        for module, source in sources.items()
        for name, lines in function_lines(module, source).items()
        if not lines & ran.get(str(PACKAGE_DIR / f"{module}.py"), set())
    }


def test_reach_guard_reads_bodies_not_names():
    source = (
        "def f():\n"
        '    """doc"""\n'
        "    def g():\n"
        "        return 1\n"
        "    return g\n"
        "class A:\n"
        "    def m(self):\n"
        "        pass\n"
        "def h():\n"
        '    """only a docstring"""\n'
    )
    path = str(PACKAGE_DIR / "a.py")
    assert unreached({"a": source}, {(path, 3): 1, (path, 5): 1}) == {"a.f.g", "a.A.m", "a.h"}
    assert unreached({"a": source}, {(path, 4): 1, (path, 10): 1}) == {"a.f", "a.A.m", "a.h"}


def _commands(tmp: Path) -> None:
    """Each command on small instances, which exit 0 or, on a negative
    verdict, 1; then on malformed files, which exit 2."""

    def run(*argv: str) -> None:
        assert cli.main(list(argv)) in (0, 1), argv

    def refused(*argv: str) -> None:
        with pytest.raises(SystemExit) as exc:
            cli.main(list(argv))
        assert exc.value.code == 2, argv

    g, c5 = str(tmp / "g.col"), str(tmp / "c5.col")
    gl, c5l = str(tmp / "g.json"), str(tmp / "c5.json")
    run("generate", "--name", "gnp", "--param", "n=12", "--param", "p=1/2",
        "--param", "seed=1", "--out", g, "--lists-out", gl)
    run("generate", "--name", "c5_blowup", "--param", "t=2", "--out", c5, "--lists-out", c5l)
    run("generate", "--name", "complete_bipartite", "--param", "a=2", "--param", "b=3",
        "--lists-out", str(tmp / "kb.json"), "--uniform-lists", "4")
    run("color", "--graph", g, "--lists", gl, "--seed", "1")
    run("estimate", "--graph", g, "--lists", gl, "--seed", "1", "--trials", "100",
        "--out-dir", str(tmp / "est"))
    run("audit", "--graph", c5, "--lists", c5l, "--subset", "0", "1", "4", "5")
    run("extract", "--graph", c5, "--alpha", "1/2", "--eps", "1/10")
    run("bounds", "--which", "talagrand", "--params", "t=1,r=1,chg=1,expect=1")
    run("bounds", "--which", "talagrand-median", "--params", "t=1,r=1,chg=1,med=1")
    run("bounds", "--which", "exceptional", "--params", "delta=10")
    run("bounds", "--which", "ky", "--params", "k=4,n=10")
    run("certify-constants")
    files = {
        "bad.col": "c a comment\np edge 2 1\ne 1 x\n",
        "string.json": json.dumps({"lists": [[0, 1], [0, "1"]] * 5}),
        "array.json": json.dumps([[0, 1]] * 10),
    }
    for name, text in files.items():
        (tmp / name).write_text(text)
    refused("color", "--graph", str(tmp / "bad.col"), "--lists", gl, "--seed", "1")
    for name in ("string.json", "array.json"):
        refused("audit", "--graph", c5, "--lists", str(tmp / name))


def test_every_function_is_run_by_a_command_or_declared(tmp_path, capsys):
    cli._parser.cache_clear()  # so that the parser is built under the tracer
    before = sys.gettrace()
    tracer = trace.Trace(count=1, trace=0, ignoredirs=[sys.prefix, sys.exec_prefix])
    try:
        tracer.runfunc(_commands, tmp_path)
    finally:
        sys.settrace(before)
    assert sys.gettrace() is before
    sources = {path.stem: path.read_text() for path in PACKAGE_DIR.glob("*.py")}
    assert unreached(sources, tracer.results().counts) == set(UNREACHED)
