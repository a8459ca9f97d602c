"""The CLI in process: pinned estimate and color output, and bad arguments
rejected at the boundary with exit code 2 and a message that names them."""

import hashlib
import json
import re

import pytest

from localcolor.cli import main

# Measured before the estimate writer moved into localcolor.experiment; the
# bytes must not change for a fixed instance and seed.
GOLDEN_CSV_SHA256 = "b15508e4c057aa3219e0d84d66d8244f29adb8d8941b5e8e849fd20ee45770c9"
GOLDEN_CONTENT_HASH = "8f85d459cb3020cebcf10f0ba65d169a504da78f5820d73b597c3d877706a859"
GOLDEN_MANIFEST_SHA256 = "8607e14d3989ef7cc2da027aa753ad5702c865896ca288d2e187d9dd3c1cbe86"

# SHA-256 of `color` stdout, measured while the greedy completion still ran on
# the frozenset residual assignment; the compiled completion must match it.
GOLDEN_COLOR_GNP40_SHA256 = "84e9f20d7ca1796f079e4dd7ad4ee128318432d1e4558642ba3bf6fbd05a90ff"
GOLDEN_COLOR_C5_SHA256 = "a6341bb3e1dad1f8ebb3ef2c7937c1ccdd282548abf30fd7a386c85087b87929"


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.fixture
def gnp40(tmp_path, monkeypatch):
    """G(40, 1/5) seed 2 with deg+1 lists, written as relative paths in tmp_path."""
    monkeypatch.chdir(tmp_path)
    rc = main([
        "generate", "--name", "gnp", "--param", "n=40", "--param", "p=1/5",
        "--param", "seed=2", "--out", "g.col", "--lists-out", "l.json",
    ])
    assert rc == 0
    return tmp_path


def test_estimate_output_is_pinned(gnp40, capsys):
    capsys.readouterr()
    rc = main([
        "estimate", "--graph", "g.col", "--lists", "l.json", "--seed", "5",
        "--trials", "3000", "--sigma", "1/4", "--out-dir", "out",
    ])
    csv_bytes = (gnp40 / "out" / "estimate_results.csv").read_bytes()
    manifest_bytes = (gnp40 / "out" / "estimate_manifest.json").read_bytes()
    manifest = json.loads(manifest_bytes)
    assert sha256(csv_bytes) == GOLDEN_CSV_SHA256
    assert manifest["content_hash"] == GOLDEN_CONTENT_HASH == sha256(csv_bytes + b"\0")
    assert sha256(manifest_bytes) == GOLDEN_MANIFEST_SHA256
    checks = len(csv_bytes.splitlines()) - 1
    passed = b",False\n" not in csv_bytes
    assert rc == (0 if passed else 1)
    assert capsys.readouterr().out == f"estimate: {'pass' if passed else 'FAIL'} ({checks} checks)\n"


def test_color_output_is_pinned(gnp40, capsys):
    capsys.readouterr()
    rc = main(["color", "--graph", "g.col", "--lists", "l.json", "--seed", "5", "--rounds", "20"])
    out = capsys.readouterr().out
    assert rc == 0 and json.loads(out)["succeeded"]
    assert sha256(out.encode()) == GOLDEN_COLOR_GNP40_SHA256


def test_color_output_is_pinned_over_many_rounds(tmp_path, monkeypatch, capsys):
    """C5 blowup t=6 with 17-color lists at eps 1/20: seed 5 takes 23 rounds."""
    monkeypatch.chdir(tmp_path)
    rc = main([
        "generate", "--name", "c5_blowup", "--param", "t=6", "--out", "c5.col",
        "--lists-out", "c5.json", "--uniform-lists", "17",
    ])
    assert rc == 0
    capsys.readouterr()
    rc = main([
        "color", "--graph", "c5.col", "--lists", "c5.json", "--eps", "1/20", "--seed", "5",
        "--rounds", "200",
    ])
    out = capsys.readouterr().out
    assert rc == 0 and json.loads(out)["rounds_used"] == 23
    assert sha256(out.encode()) == GOLDEN_COLOR_C5_SHA256


def test_colors_of_2_to_the_63_and_above(gnp40, capsys):
    """Shifting every color by 2**63 keeps their order, so `color` makes the same
    choices and prints the same coloring, shifted."""
    lists = json.loads((gnp40 / "l.json").read_text())["lists"]
    shift = 2**63
    (gnp40 / "big.json").write_text(json.dumps({"lists": [[c + shift for c in row] for row in lists]}))
    capsys.readouterr()
    argv = ["color", "--graph", "g.col", "--seed", "5", "--rounds", "20", "--lists"]
    assert main([*argv, "l.json"]) == 0
    small = json.loads(capsys.readouterr().out)
    assert main([*argv, "big.json"]) == 0
    big = json.loads(capsys.readouterr().out)
    assert big["coloring"] == [c + shift for c in small["coloring"]]
    assert {k: v for k, v in big.items() if k != "coloring"} == {
        k: v for k, v in small.items() if k != "coloring"
    }


@pytest.mark.parametrize(
    "argv, named",
    [
        (["estimate", "--graph", "g.col", "--lists", "l.json", "--seed", "1", "--trials", "0",
          "--out-dir", "out"], "argument --trials: must be at least 2, got 0"),
        (["estimate", "--graph", "g.col", "--lists", "l.json", "--seed", "1", "--trials", "1",
          "--out-dir", "out"], "argument --trials: must be at least 2, got 1"),
        (["color", "--graph", "g.col", "--lists", "l.json", "--seed", "1", "--rounds", "-2"],
         "argument --rounds: must be at least 1, got -2"),
        (["generate", "--name", "gnp", "--param", "n"], "argument --param: expected K=V, got 'n'"),
        (["generate", "--name", "gnp", "--param", "n=10"], "generator 'gnp' needs parameter 'p'"),
        (["generate", "--name", "gnp", "--param", "n=10", "--param", "p=1/2", "--param",
          "seed=1", "--lists-out", "u.json", "--uniform-lists", "abc"],
         "argument --uniform-lists: invalid int value: 'abc'"),
        (["bounds", "--which", "ky", "--params", "k=4"], "bound 'ky' needs parameter 'n'"),
        (["bounds", "--which", "ky", "--params", "k=4,n"], "argument --params: expected K=V"),
        (["bounds", "--which", "ky", "--params", "k=3,n=7"], "bound 'ky': defined for k >= 4"),
        (["color", "--graph", "g.col", "--lists", "l.json", "--seed", "1", "--eps", "abc"],
         "parameter eps: expected a fraction such as 1/20, got 'abc'"),
        (["estimate", "--graph", "missing.col", "--lists", "l.json", "--seed", "1",
          "--out-dir", "out"], "cannot read missing.col: No such file or directory"),
        (["extract", "--graph", "g.col", "--alpha", "abc", "--eps", "1/1350"],
         "argument --alpha: expected a fraction such as 1/20, got 'abc'"),
        (["audit", "--graph", "g.col", "--lists", "l.json", "--subset", "0", "99"],
         "argument --subset: vertex 99 out of range [0, 40)"),
        (["color", "--graph", "g.col", "--lists", "l.json", "--seed", "1", "--alpha", "-1"],
         "alpha must be positive, got -1"),
        (["color", "--graph", "g.col", "--lists", "l.json", "--seed", "1", "--beta", "-1"],
         "beta must be positive, got -1"),
        (["certify-constants", "--alpha", "0"], "alpha must be positive, got 0"),
        (["estimate", "--graph", "g.col", "--lists", "l.json", "--seed", "1", "--alpha", "0",
          "--out-dir", "out"], "alpha must be positive, got 0"),
        (["estimate", "--graph", "g.col", "--lists", "l.json", "--seed", "1", "--beta", "-1",
          "--out-dir", "out"], "beta must be positive, got -1"),
        # rejected before the graph is written to --out
        (["generate", "--name", "gnp", "--param", "n=10", "--param", "p=1/2", "--param",
          "seed=1", "--out", "out", "--lists-out", "u.json", "--uniform-lists", "0"],
         "argument --uniform-lists: must be at least 1, got 0"),
        (["generate", "--name", "gnp", "--param", "n=10", "--param", "p=1/2", "--param",
          "seed=1", "--out", "out", "--lists-out", "u.json", "--uniform-lists", "-1"],
         "argument --uniform-lists: must be at least 1, got -1"),
    ],
)
def test_bad_arguments_exit_2_naming_them(gnp40, capsys, argv, named):
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(argv)
    out, err = capsys.readouterr()
    assert exc.value.code == 2
    assert named in err and "Traceback" not in err and out == ""
    assert not (gnp40 / "out").exists() and not (gnp40 / "u.json").exists()


@pytest.mark.parametrize(
    "name, text, argv, named",
    [
        ("bad.col", "p edge 3 1\ne 1 7\n",
         ["color", "--graph", "bad.col", "--lists", "l.json", "--seed", "1"],
         "bad.col: line 2: vertex out of range"),
        ("short.json", '{"lists": [[0, 1], [0, 1]]}',
         ["estimate", "--graph", "g.col", "--lists", "short.json", "--seed", "1",
          "--out-dir", "out"],
         "short.json has 2 lists, the graph has 40 vertices"),
        ("str.json", '{"lists": [[0, 1], ["a", 1]]}',
         ["color", "--graph", "g.col", "--lists", "str.json", "--seed", "1"],
         "str.json: list of vertex 1: color 'a' is not an integer"),
        ("str.json", '{"lists": [["a", 1]]}',
         ["estimate", "--graph", "g.col", "--lists", "str.json", "--seed", "1",
          "--out-dir", "out"],
         "str.json: list of vertex 0: color 'a' is not an integer"),
        ("float.json", '{"lists": [[0, 1.5]]}',
         ["color", "--graph", "g.col", "--lists", "float.json", "--seed", "1"],
         "float.json: list of vertex 0: color 1.5 is not an integer"),
        ("bool.json", '{"lists": [[1, true]]}',
         ["estimate", "--graph", "g.col", "--lists", "bool.json", "--seed", "1",
          "--out-dir", "out"],
         "bool.json: list of vertex 0: color True is not an integer"),
        ("twice.json", '{"lists": [[0], [2, 1, 2]]}',
         ["color", "--graph", "g.col", "--lists", "twice.json", "--seed", "1"],
         "twice.json: list of vertex 1 repeats color 2"),
        ("bad.col", "p edge 3 1\ne 2 x\n",
         ["color", "--graph", "bad.col", "--lists", "l.json", "--seed", "1"],
         "bad.col: line 2: 'x' is not an integer"),
        ("bad.col", "c a loop\np edge 3 1\ne 1 1\n",
         ["estimate", "--graph", "bad.col", "--lists", "l.json", "--seed", "1",
          "--out-dir", "out"],
         "bad.col: line 3: self-loop at vertex 1"),
        ("bad.col", "p edge 3 1.5\n",
         ["color", "--graph", "bad.col", "--lists", "l.json", "--seed", "1"],
         "bad.col: line 1: '1.5' is not an integer"),
    ],
)
def test_bad_input_files_exit_2_naming_them(gnp40, capsys, name, text, argv, named):
    (gnp40 / name).write_text(text)
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(argv)
    out, err = capsys.readouterr()
    assert exc.value.code == 2
    assert named in err and "Traceback" not in err and out == ""
    assert not (gnp40 / "out").exists()


@pytest.mark.parametrize("cmd", [["color"], ["estimate", "--out-dir", "out"]])
def test_unmet_precondition_exits_2_naming_the_vertex(tmp_path, monkeypatch, capsys, cmd):
    """G(10, 1/2) with 2-color lists: some vertex has far fewer colors than neighbors."""
    monkeypatch.chdir(tmp_path)
    rc = main([
        "generate", "--name", "gnp", "--param", "n=10", "--param", "p=1/2", "--param",
        "seed=1", "--out", "g.col", "--lists-out", "l.json", "--uniform-lists", "2",
    ])
    assert rc == 0
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main([*cmd, "--graph", "g.col", "--lists", "l.json", "--seed", "1"])
    out, err = capsys.readouterr()
    assert exc.value.code == 2
    assert re.search(r"vertex \d+: \|L\(v\)\| = 2 < \(1 - eps\) d\(v\)", err)
    assert "Traceback" not in err and out == ""
    assert not (tmp_path / "out").exists()
