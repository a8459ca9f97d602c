"""The repository's pytest configuration lets a failing test report itself:
with every warning an error, a failing Hypothesis test must still print its
falsifying example, and the tests after it must still run."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

PLANTED = '''\
from hypothesis import given, strategies as st


@given(st.integers(min_value=0, max_value=10))
def test_planted_failure(x):
    assert x < 5


def test_after_it():
    pass
'''


def test_a_failing_hypothesis_test_prints_its_example(tmp_path):
    # on failure Hypothesis's pytest plugin imports its patching module,
    # whose libcst import warns; as an error, that ended the whole pytest run
    (tmp_path / "test_planted.py").write_text(PLANTED)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "-rA", str(tmp_path / "test_planted.py")],
        capture_output=True, text=True, cwd=tmp_path, timeout=120,
    )
    out = proc.stdout + proc.stderr
    assert proc.returncode == 1, out
    assert "Falsifying example" in out, out
    assert "INTERNALERROR" not in out, out
    assert "PASSED test_planted.py::test_after_it" in out, out
