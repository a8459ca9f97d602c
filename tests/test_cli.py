"""The CLI in process: pinned estimate and color output, and bad arguments
rejected at the boundary with exit code 2 and a message that names them."""

import argparse
import contextlib
import dataclasses
import hashlib
import inspect
import io
import json
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from localcolor import procedure
from localcolor.cli import (
    BOUNDS, GENERATORS, PARAM_DEFAULTS, _params_of, _parser, _signed_values, main,
)
from localcolor.formats import emit_dimacs, parse_dimacs
from localcolor.graph import Graph
from localcolor.lists import make_lists
from localcolor.procedure import ProcedureParams, compile_lists

# Measured once estimate drew its trials TRIAL_CHUNK at a time; the bytes
# must not change for a fixed instance and seed.
GOLDEN_CSV_SHA256 = "0594b29643e6adb5cc2e0ce53c5e2319cf03ed6f4c2297d093acbf2838486b6f"
GOLDEN_CONTENT_HASH = "7710cf13018100a281c5c2f7138ff1b63ba4241dbdf150a829fb9271506c0482"
GOLDEN_MANIFEST_SHA256 = "6ee401e6ccb24839fbf3a40f0276aa6dd2193cfa607f060ed38df36803dca30d"


# SHA-256 of the vertex, var, mean, bound and pass columns of a one-chunk
# (1,024-trial) `estimate`, measured while every trial was still drawn at
# once: one chunk draws the same numbers, and only se may move in its last digit.
GOLDEN_ONE_CHUNK_COLUMNS_SHA256 = "c26e2f6228408e1da10392907d645dd0ec781f498436b2b42e96a1005951c056"

# SHA-256 of a 2,148-trial `estimate` CSV, measured while every chunk still
# drew its color indices in one call: two 1,024-trial chunks draw them row by
# row, and the last chunk of 100 trials in one call.
GOLDEN_TWO_PATH_CSV_SHA256 = "71691b40d35fde65f4e6f9b16bb42a6e741e75fae5ac2b596ba6c9127283ea27"

# SHA-256 of `color` stdout, measured while the greedy completion still ran on
# the frozenset residual assignment; the compiled completion must match it.
GOLDEN_COLOR_GNP40_SHA256 = "84e9f20d7ca1796f079e4dd7ad4ee128318432d1e4558642ba3bf6fbd05a90ff"
GOLDEN_COLOR_C5_SHA256 = "a6341bb3e1dad1f8ebb3ef2c7937c1ccdd282548abf30fd7a386c85087b87929"

# (SHA-256 of `color` stdout, SHA-256 of the `estimate` CSV) on zip-heavy
# lists, without and with isolated far-apart colors, measured at 7170dcc,
# while the zipped matches were still sorted explicit pairs.
GOLDEN_ZIP = {
    False: (
        "7d09dec996b89594da6e1b791fc9b6689aa76ca7162375f599e3279ab39f43c2",
        "7cb6f51c32a7dc1b291614a256297dd34510d79f2914a38cb4339bb3c06d6f34",
    ),
    True: (
        "04eef0579da707a7b5a60e834d9a7d44f5ca741c93685c18676f45fc4ce7f314",
        "b58a76ac76432b28ea70019207da9f619c3a4124877c6e8eab5b4c705f3adebf",
    ),
}

# SHA-256 of `audit` stdout on the whole of the gnp40 fixture, measured while
# its JSON was still built field by field.
GOLDEN_AUDIT_GNP40_SHA256 = "01cbf6c38479cb1f8fdf7a591e57921685bc57f8576eaf22de111d594251d683"

# (exit code, SHA-256 of stdout) of the report commands, measured while their
# JSON writer still converted tuples, fractions and arrays by hand.
GOLDEN_REPORTS = {
    "bounds --which talagrand --params t=500,r=1,chg=1,expect=10,p_exc=0.001,sup_x=50": (
        0, "20bbe61d49f94f5ebc52483bc123df24d41e1ddc69b3f51c787c61dc04643558",
    ),
    "bounds --which ky --params k=4,n=10": (
        0, "e6c21e8d260fe71882debdb339d2402a2ca7648529bc2303f48649bce0380017",
    ),
    # its savings-gap value is -Infinity
    "certify-constants --eps 1/10": (
        1, "c1ccb7d49c4d244ccfb9d1b523e90ec7c3b17f30ec96fb908bade3a8aab44505",
    ),
    # K = 0, so its first sparsity level and savings-gap value are -Infinity
    "certify-constants --rho 0": (
        1, "5b715fa7ad14a36616558935eaf9fb7d202055cc96ccbaf4cd2b2279316aa828",
    ),
}


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


def test_one_chunk_estimate_columns_are_pinned(gnp40):
    assert main([
        "estimate", "--graph", "g.col", "--lists", "l.json", "--seed", "5",
        "--trials", "1024", "--sigma", "1/4", "--out-dir", "out",
    ]) in (0, 1)
    rows = (gnp40 / "out" / "estimate_results.csv").read_text().splitlines()
    columns = "".join(",".join(r[:3] + r[4:]) + "\n" for r in (row.split(",") for row in rows))
    assert sha256(columns.encode()) == GOLDEN_ONE_CHUNK_COLUMNS_SHA256


def test_estimate_across_both_color_draws_is_pinned(gnp40):
    # its chunks straddle ROW_DRAWS: the CSV reads both ways of drawing colors
    assert procedure.TRIAL_CHUNK >= procedure.ROW_DRAWS > 2148 - 2 * procedure.TRIAL_CHUNK
    assert main([
        "estimate", "--graph", "g.col", "--lists", "l.json", "--seed", "5",
        "--trials", "2148", "--sigma", "1/4", "--out-dir", "out",
    ]) in (0, 1)
    assert sha256((gnp40 / "out" / "estimate_results.csv").read_bytes()) == GOLDEN_TWO_PATH_CSV_SHA256


def test_color_output_is_pinned(gnp40, capsys):
    capsys.readouterr()
    rc = main(["color", "--graph", "g.col", "--lists", "l.json", "--seed", "5", "--rounds", "20"])
    out = capsys.readouterr().out
    assert rc == 0 and json.loads(out)["succeeded"]
    assert sha256(out.encode()) == GOLDEN_COLOR_GNP40_SHA256


@pytest.mark.parametrize("padded", GOLDEN_ZIP)
def test_zip_heavy_outputs_are_pinned(gnp40, capsys, padded):
    """The gnp40 graph with d(v) + 2 of 24 colors per vertex: many edges have
    free colors at both ends, which zip, and the (vertex, color) table is
    dense.  Padded with 40 isolated vertices whose one-color lists lie 10**6
    apart, the same edges compile without the dense table."""
    g = parse_dimacs((gnp40 / "g.col").read_text())
    rnd = random.Random(3)
    rows = [sorted(rnd.sample(range(24), len(g.adj[v]) + 2)) for v in range(g.n)]
    pad = 40 if padded else 0
    rows += [[10**6 * (j + 1)] for j in range(pad)]
    g = Graph.from_edges(g.n + pad, g.edges())
    assert any(len(set(rows[u]) & set(rows[v])) < min(len(rows[u]), len(rows[v])) for u, v in g.edges())
    assert (compile_lists(g, make_lists(rows)).where is None) == padded
    (gnp40 / "z.col").write_text(emit_dimacs(g))
    (gnp40 / "z.json").write_text(json.dumps({"lists": rows}))
    capsys.readouterr()
    rc = main(["color", "--graph", "z.col", "--lists", "z.json", "--seed", "5", "--rounds", "20"])
    out = capsys.readouterr().out
    assert rc == 0 and json.loads(out)["succeeded"]
    assert main([
        "estimate", "--graph", "z.col", "--lists", "z.json", "--seed", "5",
        "--trials", "1100", "--sigma", "1/4", "--out-dir", "out",
    ]) in (0, 1)
    csv_bytes = (gnp40 / "out" / "estimate_results.csv").read_bytes()
    assert (sha256(out.encode()), sha256(csv_bytes)) == GOLDEN_ZIP[padded]


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


def test_color_output_ignores_edge_line_order(gnp40, capsys):
    """Shuffled e lines, with comments between them, give the graph that the
    generated file gives, so `color` prints the same bytes."""
    head, *edges = (gnp40 / "g.col").read_text().splitlines()
    random.Random(7).shuffle(edges)
    lines = [head]
    for i, line in enumerate(edges):
        lines += [line, f"c after edge {i}"] if i % 3 else [line]
    (gnp40 / "shuffled.col").write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    argv = ["color", "--lists", "l.json", "--seed", "5", "--rounds", "20", "--graph"]
    assert main([*argv, "g.col"]) == 0
    want = capsys.readouterr().out
    assert main([*argv, "shuffled.col"]) == 0
    assert capsys.readouterr().out == want


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


@pytest.mark.parametrize("fails", [False, True])
@pytest.mark.parametrize("edges, lists", [
    ([], []),
    ([(1, 2), (2, 3)], [[-5, 2**63], [7, -(2**63) - 1, 2**64], [2**64, -1]]),
    ([(1, 2)], [[0, 1], [1, 2]]),
])
def test_color_writes_what_json_dumps_writes(tmp_path, monkeypatch, capsys, edges, lists, fails):
    """`color` prints its report byte for byte as json.dumps(report, indent=2)
    does: n = 0's empty coloring, colors at and past 2**63 and below 0, and
    a failed run's null."""
    monkeypatch.chdir(tmp_path)
    lines = "".join(f"e {u} {v}\n" for u, v in edges)
    (tmp_path / "g.col").write_text(f"p edge {len(lists)} {len(edges)}\n{lines}")
    (tmp_path / "l.json").write_text(json.dumps({"lists": lists}))
    if fails:
        failed = procedure.PipelineReport(None, 20, tuple(range(20)))
        monkeypatch.setattr("localcolor.cli.pipeline_color", lambda *args: failed)
    capsys.readouterr()
    rc = main(["color", "--graph", "g.col", "--lists", "l.json", "--seed", "1", "--rounds", "20"])
    out = capsys.readouterr().out
    report = json.loads(out)
    assert rc == fails and (report["coloring"] is None) == fails
    assert out == json.dumps(report, indent=2) + "\n"


def test_audit_output_is_pinned(gnp40, capsys):
    capsys.readouterr()
    assert main(["audit", "--graph", "g.col", "--lists", "l.json"]) == 0
    assert sha256(capsys.readouterr().out.encode()) == GOLDEN_AUDIT_GNP40_SHA256


# (exit code, SHA-256 of `audit` stdout) on G(60, 1/5) seed 3 with deg+1 lists,
# measured while max_antimatching still built a relabeled complement Graph.
GOLDEN_AUDIT_GNP60 = {
    "": (0, "3308baffed6444449d75b4279ebd2a84c46fd2d2e989ae9b2528020d0f28cd5b"),
    " ".join(map(str, range(0, 60, 3))): (
        0, "4c5865bb6d282894be93a10022e9a7a1ec09302c5659bcd3f6268a1a721936c3",
    ),
}


@pytest.mark.parametrize("subset", GOLDEN_AUDIT_GNP60)
def test_audit_output_is_pinned_whole_and_on_a_subset(tmp_path, monkeypatch, capsys, subset):
    monkeypatch.chdir(tmp_path)
    assert main([
        "generate", "--name", "gnp", "--param", "n=60", "--param", "p=1/5",
        "--param", "seed=3", "--out", "g.col", "--lists-out", "l.json",
    ]) == 0
    capsys.readouterr()
    argv = ["audit", "--graph", "g.col", "--lists", "l.json"]
    code = main(argv + (["--subset", *subset.split()] if subset else []))
    assert (code, sha256(capsys.readouterr().out.encode())) == GOLDEN_AUDIT_GNP60[subset]


@pytest.mark.parametrize("command", GOLDEN_REPORTS)
def test_report_output_is_pinned(command, capsys):
    code = main(command.split())
    assert (code, sha256(capsys.readouterr().out.encode())) == GOLDEN_REPORTS[command]


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
        # an empty --subset is not read as every vertex
        (["audit", "--graph", "g.col", "--lists", "l.json", "--subset"],
         "argument --subset: expected at least one argument"),
        (["color", "--graph", "g.col", "--lists", "l.json", "--seed", "1", "--alpha", "-1"],
         "alpha must be positive, got -1"),
        # color reads no beta, so it takes no --beta
        (["color", "--graph", "g.col", "--lists", "l.json", "--seed", "1", "--beta", "1/50"],
         "unrecognized arguments: --beta 1/50"),
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
        (["generate", "--name", "gnp", "--param", "n=10", "--param", "p=1/2", "--param",
          "seed=1", "--out", "out", "--uniform-lists", "3"],
         "argument --uniform-lists: needs --lists-out"),
        (["color", "--graph", "g.col", "--lists", "l.json", "--seed", "-1"],
         "argument --seed: must be at least 0, got -1"),
        (["estimate", "--graph", "g.col", "--lists", "l.json", "--seed", "-1",
          "--out-dir", "out"], "argument --seed: must be at least 0, got -1"),
        (["bounds", "--which", "talagrand", "--params", "t=inf,r=1,chg=1,expect=1"],
         "bound 'talagrand': parameter 't' must be a finite number, got 'inf'"),
        (["bounds", "--which", "talagrand", "--params", "t=5,r=1,chg=1,expect=1,p_exc=1/9"],
         "bound 'talagrand': parameter 'p_exc' must be a finite number, got '1/9'"),
        (["bounds", "--which", "exceptional", "--params", "delta=nan"],
         "bound 'exceptional': parameter 'delta' must be a finite number, got 'nan'"),
        (["bounds", "--which", "exceptional", "--params", "delta=1e100"],
         "bound 'exceptional': OverflowError at these parameters"),
        (["bounds", "--which", "talagrand", "--params", "t=1e200,r=1,chg=1,expect=1"],
         "bound 'talagrand': OverflowError at these parameters"),
        (["bounds", "--which", "talagrand-median", "--params", "t=1e200,r=1,chg=1,med=1"],
         "bound 'talagrand-median': OverflowError at these parameters"),
        (["bounds", "--which", "talagrand-median", "--params", "t=1,r=1,chg=1,med=-1"],
         "bound 'talagrand-median': med must be at least 0, got -1.0"),
        (["bounds", "--which", "talagrand", "--params", "t=5,r=1,chg=1,expect=1,p_exc=-3"],
         "bound 'talagrand': p_exc must be in [0, 1], got -3.0"),
        (["bounds", "--which", "talagrand-median", "--params", "t=5,r=1,chg=1,med=1,p_exc=2"],
         "bound 'talagrand-median': p_exc must be in [0, 1], got 2.0"),
        (["bounds", "--which", "talagrand", "--params", "t=5,r=inf,chg=1,expect=1"],
         "bound 'talagrand': parameter 'r' must be an integer, got 'inf'"),
        (["bounds", "--which", "talagrand-median", "--params", "t=5,r=1.5,chg=1,med=1"],
         "bound 'talagrand-median': parameter 'r' must be an integer, got '1.5'"),
        (["bounds", "--which", "talagrand", "--params", "t=5,r=1,chg=1,expect=-1"],
         "bound 'talagrand': expect must be at least 0, got -1.0"),
        (["bounds", "--which", "ky", "--params", "k=abc,n=7"],
         "bound 'ky': parameter 'k' must be an integer, got 'abc'"),
        (["bounds", "--which", "ky", "--params", "k=4,n=7.0"],
         "bound 'ky': parameter 'n' must be an integer, got '7.0'"),
        (["bounds", "--which", "talagrand", "--params",
          "t=5,r=1,chg=1,expect=1,p_exc=0.5,sup_x=-100"],
         "bound 'talagrand': sup_x must be at least 0, got -100.0"),
        (["bounds", "--which", "talagrand-median", "--params", "t=1,r=1,chg=1,med=-2"],
         "bound 'talagrand-median': med must be at least 0, got -2.0"),
        (["generate", "--name", "gnp", "--param", "n=5", "--param", "p=1/0", "--param",
          "seed=1"], "generator 'gnp': parameter 'p' must be a fraction such as 1/5, got '1/0'"),
        (["generate", "--name", "gnp", "--param", "n=abc", "--param", "p=1/2", "--param",
          "seed=1"], "generator 'gnp': parameter 'n' must be an integer, got 'abc'"),
        (["generate", "--name", "c5_blowup", "--param", "t=2", "--param", "n=10"],
         "generator 'c5_blowup': unknown parameter 'n'"),
        (["bounds", "--which", "talagrand", "--params", "t=100,r=1,chg=1,expect=1,pexc=0.9"],
         "bound 'talagrand': unknown parameter 'pexc'"),
        (["color", "--graph", "g.col", "--lists", "l.json", "--seed", "1", "--sigma", "1/4"],
         "unrecognized arguments: --sigma 1/4"),
        (["certify-constants", "--sigma", "0"], "unrecognized arguments: --sigma 0"),
        (["generate", "--name", "gnp", "--param", "n=3", "--param", "p=1/2", "--param",
          "seed=-1"], "generator 'gnp': seed must be non-negative, got -1"),
        # an edge field beyond int64 under a vertex count of 2**63 - 1
        (["color", "--graph", "wide.col", "--lists", "l.json", "--seed", "1"],
         "wide.col: line 2: vertex out of range"),
        # vertex counts whose (tail, head) edge keys would overflow int64
        (["color", "--graph", "huge.col", "--lists", "l.json", "--seed", "1"],
         f"huge.col: line 1: {10**23} vertices: more than 3037000499"),
        (["estimate", "--graph", "many.col", "--lists", "l.json", "--seed", "1",
          "--out-dir", "out"], f"many.col: line 1: {2**63} vertices: more than 3037000499"),
        # output paths that cannot be written
        (["estimate", "--graph", "g.col", "--lists", "l.json", "--seed", "1", "--trials", "2",
          "--out-dir", "l.json"], "argument --out-dir: cannot write l.json: File exists"),
        (["generate", "--name", "gnp", "--param", "n=10", "--param", "p=1/2", "--param",
          "seed=1", "--out", "nodir/g.col"], "cannot write nodir/g.col: No such file or directory"),
        (["generate", "--name", "gnp", "--param", "n=10", "--param", "p=1/2", "--param",
          "seed=1", "--out", "g10.col", "--lists-out", "nodir/l.json"],
         "cannot write nodir/l.json: No such file or directory"),
        (["extract", "--graph", "g.col", "--alpha", "1/10", "--eps", "1/10"],
         "extract: need 0 < eps < alpha < 1"),
        (["extract", "--graph", "empty.col", "--alpha", "1/2", "--eps", "1/10"],
         "extract: empty graph"),
        (["color", "--graph", "g.col", "--lists", "nokey.json", "--seed", "1"],
         'nokey.json: bad lists object: expected a "lists" key'),
        (["color", "--graph", "g.col", "--lists", "flat.json", "--seed", "1"],
         "flat.json: bad lists object: list of vertex 0 must be an array, got a number"),
        (["color", "--graph", "twice.col", "--lists", "l.json", "--seed", "1"],
         "twice.col: line 2: duplicate problem line"),
        (["color", "--graph", "g.col", "--lists", "l.json", "--seed", "1", "--eps", "1"],
         "color: eps must be in [0, 1)"),
        (["estimate", "--graph", "g.col", "--lists", "l.json", "--seed", "1", "--sigma", "1",
          "--out-dir", "out"], "estimate: sigma must be in [0, 1)"),
        (["color", "--graph", "g.col", "--lists", "l.json", "--seed", "1", "--rho", "3/2"],
         "color: rho must be in [0, 1]"),
        (["generate", "--name", "c5_blowup", "--param", "t=0", "--out", "out"],
         "generator 'c5_blowup': t must be positive"),
        (["generate", "--name", "complete_bipartite", "--param", "a=-1", "--param", "b=2",
          "--out", "out"], "generator 'complete_bipartite': sides must be nonnegative"),
        (["generate", "--name", "gnp", "--param", "n=3", "--param", "p=2", "--param", "seed=1",
          "--out", "out"], "generator 'gnp': p must be in [0, 1]"),
        (["color", "--graph", "g.col", "--lists", "keyed.json", "--seed", "1"],
         'keyed.json: bad lists object: "lists" must be an array, got an object'),
        (["color", "--graph", "g.col", "--lists", "text.json", "--seed", "1"],
         "text.json: bad lists object: list of vertex 1 must be an array, got a string"),
        (["color", "--graph", "g.col", "--lists", "array.json", "--seed", "1"],
         "array.json: bad lists object: expected a JSON object, got an array"),
        (["color", "--graph", "g.col", "--lists", "null.json", "--seed", "1"],
         "null.json: bad lists object: expected a JSON object, got null"),
        # a repeated K=V key is named, not the last value taken
        (["bounds", "--which", "ky", "--params", "k=4,n=10,k=5"],
         "bound 'ky': parameter 'k' given twice"),
        (["generate", "--name", "c5_blowup", "--param", "t=1", "--param", "t=2"],
         "generator 'c5_blowup': parameter 't' given twice"),
        # a rho beyond the float range, on each side, with and without "="
        (["color", "--graph", "g.col", "--lists", "l.json", "--seed", "1", "--rho", "1e400"],
         "color: rho must be in [0, 1]"),
        (["certify-constants", "--rho", "1e400"], "certify-constants: rho must be in [0, 1]"),
        (["certify-constants", "--rho=-1e400"], "certify-constants: rho must be in [0, 1]"),
        (["estimate", "--graph", "g.col", "--lists", "l.json", "--seed", "1",
          "--rho=-1e400", "--out-dir", "out"], "estimate: rho must be in [0, 1]"),
        (["certify-constants", "--rho", "-1e400"], "certify-constants: rho must be in [0, 1]"),
        # a negative fraction given as its own argument reaches the range check,
        # though argparse alone would read it as an option
        (["certify-constants", "--rho", "-1/2"], "certify-constants: rho must be in [0, 1]"),
        (["certify-constants", "--eps", "-1/2"], "certify-constants: eps must be in [0, 1)"),
        (["extract", "--graph", "g.col", "--alpha", "-1/2", "--eps", "1/10"],
         "extract: need 0 < eps < alpha < 1"),
        (["estimate", "--graph", "g.col", "--lists", "l.json", "--seed", "1",
          "--sigma", "-1/10", "--out-dir", "out"], "estimate: sigma must be in [0, 1)"),
        # so does one after an abbreviated option, and a dashed word
        (["certify-constants", "--rh", "-1/2"], "certify-constants: rho must be in [0, 1]"),
        (["certify-constants", "--rho", "-inf"],
         "certify-constants: parameter rho: expected a fraction such as 1/20, got '-inf'"),
    ],
)
def test_bad_arguments_exit_2_naming_them(gnp40, capsys, argv, named):
    (gnp40 / "wide.col").write_text(f"p edge {2**63 - 1} 1\ne 1 99999999999999999999\n")
    (gnp40 / "huge.col").write_text(f"p edge {10**23} 1\ne 1 2\n")
    (gnp40 / "many.col").write_text(f"p edge {2**63} 1\ne 1 2\n")
    (gnp40 / "empty.col").write_text("p edge 0 0\n")
    (gnp40 / "twice.col").write_text("p edge 2 1\np edge 2 1\ne 1 2\n")
    (gnp40 / "nokey.json").write_text("{}")
    (gnp40 / "flat.json").write_text('{"lists": [3]}')
    (gnp40 / "keyed.json").write_text('{"lists": {"0": [1]}}')
    (gnp40 / "text.json").write_text('{"lists": [[0], "ab"]}')
    (gnp40 / "array.json").write_text("[1]")
    (gnp40 / "null.json").write_text("null")
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(argv)
    out, err = capsys.readouterr()
    assert exc.value.code == 2
    assert named in err and "Traceback" not in err and out == ""
    assert not (gnp40 / "out").exists() and not (gnp40 / "u.json").exists()


def _parsed(argv):
    """The namespace argparse reads from argv as a dict, or None if it refuses it."""
    try:
        with contextlib.redirect_stderr(io.StringIO()):
            return vars(_parser().parse_args(argv))
    except SystemExit:
        return None


@given(
    st.sampled_from(["certify-constants", "extract", "color", "audit"]),
    st.lists(st.sampled_from([
        "--rho", "--eps", "--alpha", "--beta", "--sigma", "--graph", "--lists", "--seed",
        "--subset", "--out-dir", "g.col", "1", "1/2", "-1", "-.5", "-1/2", "-1e400", "-x",
        "--rh", "--r", "--e", "--s", "--su", "--al", "-inf", "-h", "--",
    ]), max_size=8),
)
@settings(max_examples=400, deadline=None)
def test_joining_signed_values_changes_no_accepted_argv(cmd, tokens):
    # every argv argparse reads alone reads the same with signed values
    # joined; only an argv it refuses can read differently
    argv = [cmd, *tokens]
    raw = _parsed(argv)
    assert raw is None or _parsed(_signed_values(argv)) == raw


def test_a_signed_value_is_joined_to_a_procedure_option_only():
    assert _signed_values(["certify-constants", "--rho", "-1/2", "--eps", "-1e400"]) == [
        "certify-constants", "--rho=-1/2", "--eps=-1e400"]
    argv = ["audit", "--graph", "-1/2", "--subset", "-1", "--rho=1", "-1/2", "--rho", "x"]
    assert _signed_values(argv) == argv
    # an abbreviation is joined where it names one procedure option of the
    # command: --r is --rho in certify-constants, but --rho or --rounds in color
    assert _signed_values(["certify-constants", "--r", "-inf", "--rho", "-h"]) == [
        "certify-constants", "--r=-inf", "--rho", "-h"]
    argv = ["color", "--r", "-1/2", "--s", "-1"]
    assert _signed_values(argv) == argv


@pytest.mark.parametrize("out_dir, named", [
    ("l.json", "l.json: File exists"),
    ("o", "o/estimate_results.csv: Is a directory"),
], ids=["dir-is-a-file", "result-file-is-a-dir"])
def test_out_dir_is_checked_before_any_trial_is_drawn(
    gnp40, monkeypatch, capsys, out_dir, named
):
    (gnp40 / "o" / "estimate_results.csv").mkdir(parents=True)
    drawn = []
    monkeypatch.setattr(procedure, "draw_trials", lambda *args: drawn.append(args))
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["estimate", "--graph", "g.col", "--lists", "l.json", "--seed", "1",
              "--out-dir", out_dir])
    assert exc.value.code == 2
    assert f"argument --out-dir: cannot write {named}" in capsys.readouterr().err
    assert drawn == []


@pytest.mark.parametrize("cmd", [["color"], ["estimate", "--out-dir", "out"]])
def test_out_of_memory_exits_1_with_a_message(gnp40, monkeypatch, capsys, cmd):
    message = (
        "Unable to allocate 8.00 TiB for an array with shape (1099511627776,) "
        "and data type int64"
    )

    def compile_lists(g, L):
        raise MemoryError(message)

    monkeypatch.setattr(procedure, "compile_lists", compile_lists)
    capsys.readouterr()
    rc = main([*cmd, "--graph", "g.col", "--lists", "l.json", "--seed", "1"])
    out, err = capsys.readouterr()
    assert rc == 1 and out == ""
    assert err == f"localcolor {cmd[0]}: out of memory: {message}\n"


def test_back_to_back_calls_share_no_values(tmp_path, monkeypatch, capsys):
    """main builds its parser once per process; no value given in one call,
    appended --param items and parsed --params included, reaches a later one."""
    monkeypatch.chdir(tmp_path)

    def run(*argv):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
        out, err = capsys.readouterr()
        return code, out, err

    gen = ["generate", "--name", "gnp", "--param", "n=10", "--param", "p=1/2", "--param",
           "seed=1"]
    code, graph, _ = run(*gen)
    assert code == 0 and graph.startswith("p edge 10 ")
    code, _, err = run("generate", "--name", "gnp", "--param", "n=10")
    assert code == 2 and "generator 'gnp' needs parameter 'p'" in err
    code, loose, _ = run("certify-constants", "--alpha", "1/10", "--eps", "1/100")
    code, default, _ = run("certify-constants")
    assert loose != default and json.loads(default)["savings_gap"]["holds"]
    code, out, _ = run("bounds", "--which", "ky", "--params", "k=4,n=7")
    assert (code, out) == (0, "11\n")
    code, _, err = run("bounds", "--which", "ky")
    assert code == 2 and "bound 'ky' needs parameter 'k'" in err
    assert run(*gen) == (0, graph, "")
    assert run("certify-constants") == (0, default, "")


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
        ("bad.col", "c two edges\np edge 3 2\ne 1 2\n",
         ["color", "--graph", "bad.col", "--lists", "l.json", "--seed", "1"],
         "bad.col: line 2: the problem line declares 2 edges, the file has 1 e lines"),
        # the first offending vertex is named, whatever the later ones hold
        ("first.json", '{"lists": [[1, true], [0.5]]}',
         ["color", "--graph", "g.col", "--lists", "first.json", "--seed", "1"],
         "first.json: list of vertex 0: color True is not an integer"),
        # an unhashable color is named too, before any row becomes a set
        ("nested.json", '{"lists": [[0, 1], [2, 2], [[3], 4]]}',
         ["color", "--graph", "g.col", "--lists", "nested.json", "--seed", "1"],
         "nested.json: list of vertex 1 repeats color 2"),
        ("nested.json", '{"lists": [[0, 1], [2, [3]], [4, 4]]}',
         ["color", "--graph", "g.col", "--lists", "nested.json", "--seed", "1"],
         "nested.json: list of vertex 1: color [3] is not an integer"),
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


@pytest.mark.parametrize("cmd", [["color"], ["estimate", "--out-dir", "out"]])
def test_unmet_keep_precondition_exits_2_naming_the_vertex(tmp_path, monkeypatch, capsys, cmd):
    """The C5 blowup t = 3 is 8-regular, so 8-color lists pass the list-size
    check at the default eps, but each vertex's eight threatening neighbors
    bring its keep probability below K."""
    monkeypatch.chdir(tmp_path)
    rc = main([
        "generate", "--name", "c5_blowup", "--param", "t=3", "--out", "g.col",
        "--lists-out", "l.json", "--uniform-lists", "8",
    ])
    assert rc == 0
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main([*cmd, "--graph", "g.col", "--lists", "l.json", "--seed", "1"])
    out, err = capsys.readouterr()
    assert exc.value.code == 2
    assert "keep probability 0.343953 of vertex 0 is below K = 0.366395" in err
    assert "Traceback" not in err and out == ""
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("table", [GENERATORS, BOUNDS])
def test_table_keys_are_the_function_parameters(table):
    """Each K=V key is its function's parameter of that name, in order."""
    for fn, keys in table.values():
        assert [key for key, _, _ in keys] == list(inspect.signature(fn).parameters)


def _subparsers() -> dict[str, argparse.ArgumentParser]:
    (action,) = [a for a in _parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return action.choices


def _option(sub: argparse.ArgumentParser, flag: str) -> argparse.Action:
    (action,) = [a for a in sub._actions if flag in a.option_strings]
    return action


def test_name_and_which_choices_are_the_table_keys():
    subs = _subparsers()
    assert _option(subs["generate"], "--name").choices == list(GENERATORS)
    assert _option(subs["bounds"], "--which").choices == list(BOUNDS)


@pytest.mark.parametrize(
    "argv",
    [
        ["color", "--graph", "g.col", "--lists", "l.json", "--seed", "1"],
        ["certify-constants"],
        # the pinned estimate run, which passes
        ["estimate", "--graph", "g.col", "--lists", "l.json", "--seed", "5", "--trials", "3000",
         "--sigma", "1/4", "--out-dir", "out"],
    ],
)
def test_params_are_built_once_per_call(gnp40, capsys, monkeypatch, argv):
    """Every ProcedureParams construction runs __post_init__, wherever it is made."""
    calls = []
    post_init = ProcedureParams.__post_init__

    def counted(self):
        calls.append(self)
        post_init(self)

    monkeypatch.setattr(ProcedureParams, "__post_init__", counted)
    assert main(argv) == 0
    assert len(calls) == 1


def test_default_option_text_builds_the_default_params():
    """PARAM_DEFAULTS, the text a manifest records, builds ProcedureParams()."""
    assert _params_of(argparse.Namespace(**PARAM_DEFAULTS)) == (ProcedureParams(), PARAM_DEFAULTS)


def test_option_defaults_are_the_field_defaults():
    """PARAM_DEFAULTS repeats ProcedureParams' field defaults, name by name,
    as option text, rho's "auto" standing for None; the two keep their own
    orders, the manifest's being PARAM_DEFAULTS'."""
    fields = {f.name: f.default for f in dataclasses.fields(ProcedureParams)}
    given = {name: None if t == "auto" else Fraction(t) for name, t in PARAM_DEFAULTS.items()}
    assert given == fields


def test_manifest_records_the_parameter_text_as_given(gnp40, capsys):
    """`params` keeps each value as typed, not its canonical fraction, in the
    PARAM_DEFAULTS order, and the manifest keys keep their order."""
    main([
        "estimate", "--graph", "g.col", "--lists", "l.json", "--seed", "1", "--trials", "50",
        "--eps", "0.05", "--rho", "9/10", "--out-dir", "out",
    ])
    manifest = json.loads((gnp40 / "out" / "estimate_manifest.json").read_text())
    assert list(manifest) == ["graph", "lists", "params", "trials", "seed", "content_hash"]
    assert list(manifest["params"].items()) == [
        ("eps", "0.05"), ("alpha", "1/50"), ("beta", "1/50"), ("sigma", "0"), ("rho", "9/10"),
    ]


def test_each_command_takes_the_procedure_options_it_reads():
    procedure = {"--eps", "--alpha", "--beta", "--sigma", "--rho"}
    taken = {
        cmd: procedure & {flag for a in sub._actions for flag in a.option_strings}
        for cmd, sub in _subparsers().items()
    }
    assert taken == {
        "generate": set(),
        "color": {"--eps", "--alpha", "--rho"},
        "estimate": procedure,
        "audit": set(),
        "extract": {"--alpha", "--eps"},  # extract's own required fractions
        "bounds": set(),
        "certify-constants": {"--eps", "--alpha", "--beta", "--rho"},
    }
