"""The README's Python example runs as written, so the docs cannot keep a
name that the package no longer has."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_python_example_runs(capsys):
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
    # it prints the coloring and each vertex's share of uncolored trials
    assert len(capsys.readouterr().out.splitlines()) == 2
