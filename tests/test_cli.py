"""The CLI in process: pinned estimate output, and bad arguments rejected at
the boundary with exit code 2 and a message that names them."""

import hashlib
import json

import pytest

from localcolor.cli import main

# Measured before the estimate writer moved into localcolor.experiment; the
# bytes must not change for a fixed instance and seed.
GOLDEN_CSV_SHA256 = "b15508e4c057aa3219e0d84d66d8244f29adb8d8941b5e8e849fd20ee45770c9"
GOLDEN_CONTENT_HASH = "8f85d459cb3020cebcf10f0ba65d169a504da78f5820d73b597c3d877706a859"
GOLDEN_MANIFEST_SHA256 = "8607e14d3989ef7cc2da027aa753ad5702c865896ca288d2e187d9dd3c1cbe86"


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
