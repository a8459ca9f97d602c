"""The README's Python example and CLI block run as written, and it names
every field of CompiledInstance and every module constant of procedure with
its value, so the docs cannot keep a name or a flag that the package no
longer has, nor miss a field or a constant it gains."""

import dataclasses
import re
import shlex
from pathlib import Path

from localcolor import procedure
from localcolor.cli import main
from localcolor.procedure import CompiledInstance

README = Path(__file__).resolve().parent.parent / "README.md"


def test_python_example_runs(capsys):
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
    # it prints the coloring and each vertex's share of uncolored trials
    assert len(capsys.readouterr().out.splitlines()) == 2


def test_cli_block_runs(tmp_path, monkeypatch):
    section = README.read_text().split("\n## CLI\n", 1)[1]
    block = re.search(r"^```\n(.*?)^```", section, re.M | re.S).group(1)
    commands = [shlex.split(line) for line in block.replace("\\\n", " ").splitlines()]
    monkeypatch.chdir(tmp_path)
    codes = {}
    for prog, cmd, *args in commands:
        assert prog == "localcolor"
        codes[cmd] = main([cmd, *args])
    # audit exits 1: the README's subset is one where the density inequality fails
    assert codes == {
        "generate": 0, "color": 0, "estimate": 0, "audit": 1,
        "extract": 0, "bounds": 0, "certify-constants": 0,
    }


def test_names_every_compiled_instance_field():
    named = set(re.findall(r"`(\w+)`", README.read_text()))
    assert [f.name for f in dataclasses.fields(CompiledInstance) if f.name not in named] == []


def test_names_every_procedure_constant_with_its_value():
    # as `NAME` (value), the value with or without thousands separators
    text = README.read_text()
    constants = {k: v for k, v in vars(procedure).items() if k.isupper() and isinstance(v, int)}
    assert constants.keys() >= {"BLOCK", "ROW_DRAWS", "TRIAL_CHUNK", "SLICE"}
    assert [k for k, v in constants.items() if not re.search(rf"`{k}` \(({v}|{v:,})\)", text)] == []
