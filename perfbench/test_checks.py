"""Tests of the benchmark's own checks and tracer.

    python3 -m pytest perfbench
"""

import json
import subprocess
import sys

import pytest

from checks import CheckError, check_color_output, check_estimate_output, check_list_coloring
from instances import ROOT, SRC, Instance
from spans import WRAPS, Tracer

# a path 0-1-2 with lists that force nothing
PATH = Instance(3, ((0, 1), (1, 2)), ((0, 1), (0, 1), (1, 2)))


def color_stdout(coloring, rounds_used=1):
    return json.dumps({
        "succeeded": True,
        "rounds_used": rounds_used,
        "violations_per_round": [0] * rounds_used,
        "coloring": coloring,
    })


def test_proper_list_coloring_passes():
    assert check_color_output(PATH, 0, color_stdout([0, 1, 2]), rounds=5) == (1, 0)


def test_improper_coloring_is_rejected():
    with pytest.raises(CheckError, match="monochromatic"):
        check_color_output(PATH, 0, color_stdout([1, 1, 2]), rounds=5)


def test_color_outside_its_list_is_rejected():
    with pytest.raises(CheckError, match="outside its list"):
        check_list_coloring(PATH, [0, 1, 0])


def test_exhausted_round_budget_is_rejected():
    with pytest.raises(CheckError, match="exhausted"):
        check_color_output(PATH, 1, json.dumps({"succeeded": False}), rounds=5)


def test_rounds_beyond_the_budget_are_rejected():
    with pytest.raises(CheckError, match="rounds_used"):
        check_color_output(PATH, 0, color_stdout([0, 1, 2], rounds_used=6), rounds=5)


def estimate_csv(pass_column=("True",) * 9, unact_mean="0.5"):
    lines = ["vertex,var,mean,se,bound,pass"]
    for v in range(3):
        for j, var in enumerate(("aberrance", "pairs_minus_trips", "unact")):
            mean = unact_mean if var == "unact" else "1.0"
            lines.append(f"{v},{var},{mean},0.01,0.5,{pass_column[3 * v + j]}")
    return "\n".join(lines) + "\n"


MANIFEST = json.dumps({"seed": 7, "trials": 100})


def test_estimate_output_passes_and_counts_misses():
    assert check_estimate_output(PATH, 0, estimate_csv(), MANIFEST, 7, 100) == 0
    below = estimate_csv(("True", "True", "False") * 3, unact_mean="0.4")
    assert check_estimate_output(PATH, 1, below, MANIFEST, 7, 100) == 3


def test_estimate_verdict_must_match_its_numbers():
    with pytest.raises(CheckError, match="pass is True"):
        check_estimate_output(PATH, 0, estimate_csv(unact_mean="0.4"), MANIFEST, 7, 100)


def test_estimate_needs_three_rows_per_vertex():
    short = "".join(estimate_csv().splitlines(keepends=True)[:-1])
    with pytest.raises(CheckError, match="expected three each"):
        check_estimate_output(PATH, 0, short, MANIFEST, 7, 100)


def test_estimate_exit_code_must_match_the_verdicts():
    with pytest.raises(CheckError, match="exit code"):
        check_estimate_output(PATH, 1, estimate_csv(), MANIFEST, 7, 100)


def test_missing_and_uncalled_names_do_not_stop_the_tracer():
    sys.path.insert(0, str(SRC))
    import localcolor.procedure as procedure

    original = procedure.residual
    gone = ("localcolor.procedure", "no_such_function", "procedure.gone")
    with Tracer(wraps=WRAPS + (gone,)) as tracer:
        assert procedure.residual is not original
    assert procedure.residual is original
    assert tracer.absent == ["localcolor.procedure.no_such_function"]
    times = tracer.layer_times()
    assert times["correspondence.residual"]["calls"] == 0
    assert "procedure.gone" in times and times["procedure.gone"]["calls"] == 0


@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_short_run_emits_every_metric(trace, kind):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "color_gnp200", "--seed", "3",
         "--seconds", "0.1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True,
    )
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())[kind]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
