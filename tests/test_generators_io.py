import itertools
import json
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exact import brute_force_L_colorable
from localcolor.formats import (
    FormatError,
    emit_dimacs,
    lists_from_json,
    lists_to_json,
    parse_dimacs,
)
from localcolor.experiment import build_params
from localcolor.generators import gen_c5_blowup, gen_complete_bipartite, gen_gnp
from localcolor.graph import Graph, local_clique_number
from localcolor.lists import make_lists, uniform_lists
from localcolor.procedure import ProcedureParams, default_rho


class TestGenerators:
    def test_c5_t1_is_c5(self):
        g = gen_c5_blowup(1)
        assert g.n == 5 and g.edge_count() == 5
        assert max(local_clique_number(g, v) for v in range(g.n)) == 2

    def test_c5_t2(self):
        g = gen_c5_blowup(2)
        assert g.n == 10
        assert all(len(g.adj[v]) == 5 for v in range(10))
        assert max(local_clique_number(g, v) for v in range(g.n)) == 4
        ok4, _ = brute_force_L_colorable(g, uniform_lists(10, 4))
        ok5, _ = brute_force_L_colorable(g, uniform_lists(10, 5))
        assert not ok4 and ok5  # chromatic number 5

    @pytest.mark.parametrize("t", [1, 2, 3, 4])
    def test_c5_closed_forms(self, t):
        g = gen_c5_blowup(t)
        assert all(len(g.adj[v]) == 3 * t - 1 for v in range(g.n))
        assert max(local_clique_number(g, v) for v in range(g.n)) == 2 * t

    def test_complete_bipartite(self):
        g = gen_complete_bipartite(2, 4)
        assert g.n == 6 and g.edge_count() == 8
        assert gen_complete_bipartite(1, 1).edge_count() == 1

    def test_gnp_extremes(self):
        assert gen_gnp(6, 0.0, 1).edge_count() == 0
        assert gen_gnp(6, 1.0, 1).edge_count() == 15

    def test_gnp_deterministic(self):
        assert gen_gnp(30, 0.5, 42) == gen_gnp(30, 0.5, 42)
        assert gen_gnp(30, 0.5, 42) != gen_gnp(30, 0.5, 43)


class TestDimacs:
    def test_roundtrip(self):
        g = gen_c5_blowup(2)
        assert parse_dimacs(emit_dimacs(g)) == g

    def test_parse_rejects_garbage(self):
        with pytest.raises(FormatError):
            parse_dimacs("e 1 2\n")
        with pytest.raises(FormatError):
            parse_dimacs("p edge 2 1\ne 1 3\n")
        with pytest.raises(FormatError):
            parse_dimacs("")

    @pytest.mark.parametrize(
        "text, message",
        [
            ("p edge 3 2\ne 1 1\ne 1 9\n", "line 2: self-loop at vertex 1"),
            ("p edge 3 2\ne 1 9\ne 2 2\n", "line 2: vertex out of range"),
            ("p edge 3 2\ne 1 9\ne x 1\n", "line 3: 'x' is not an integer"),
            ("p edge 3 2\ne 1 2\nq\ne x 1\n", "line 3: unknown record 'q'"),
            ("p edge 3 1\ne 1 99999999999999999999\n", "line 2: vertex out of range"),
            ("p edge 3 1\ne 1 2\ne 2 3\n",
             "line 1: the problem line declares 1 edges, the file has 2 e lines"),
        ],
    )
    def test_parse_names_the_line(self, text, message):
        with pytest.raises(FormatError, match=f"^{message}$"):
            parse_dimacs(text)

    def test_repeated_edges_count_as_e_lines(self):
        g = parse_dimacs("p edge 3 3\ne 1 2\ne 2 1\ne 2 3\n")
        assert g.edges() == [(0, 1), (1, 2)]

    def test_comments_ignored(self):
        g = parse_dimacs("c hi\np edge 3 1\ne 1 2\n")
        assert g.n == 3 and g.has_edge(0, 1)


@st.composite
def graphs(draw, max_n=8):
    n = draw(st.integers(1, max_n))
    possible = list(itertools.combinations(range(n), 2))
    edges = draw(st.lists(st.sampled_from(possible), unique=True)) if possible else []
    return Graph.from_edges(n, edges)


class TestJsonRoundtrips:
    @given(graphs())
    @settings(max_examples=30, deadline=None)
    def test_graph(self, g):
        assert parse_dimacs(emit_dimacs(g)) == g

    def test_lists(self):
        L = make_lists([[0, 2], [1], [3, 4, 5]])
        assert lists_from_json(json.loads(json.dumps(lists_to_json(L)))) == L


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "localcolor.cli", *args],
        capture_output=True,
        text=True,
    )


class TestCli:
    def test_generate(self, tmp_path):
        out = tmp_path / "g.col"
        r = run_cli("generate", "--name", "c5_blowup", "--param", "t=2", "--out", str(out))
        assert r.returncode == 0
        assert parse_dimacs(out.read_text()).n == 10

    def test_color_and_estimate(self, tmp_path):
        gpath = tmp_path / "g.col"
        lpath = tmp_path / "l.json"
        r = run_cli(
            "generate", "--name", "gnp", "--param", "n=8", "--param", "p=1/2",
            "--param", "seed=4", "--out", str(gpath), "--lists-out", str(lpath),
        )
        assert r.returncode == 0
        r = run_cli(
            "color", "--graph", str(gpath), "--lists", str(lpath), "--seed", "1",
            "--rounds", "30",
        )
        assert r.returncode == 0, r.stderr
        out = json.loads(r.stdout)
        assert out["succeeded"] and len(out["coloring"]) == 8

        r = run_cli(
            "estimate", "--graph", str(gpath), "--lists", str(lpath), "--seed", "3",
            "--trials", "2000", "--out-dir", str(tmp_path),
        )
        assert r.returncode == 0, r.stderr
        csv_text = (tmp_path / "estimate_results.csv").read_text()
        assert csv_text.splitlines()[0] == "vertex,var,mean,se,bound,pass"
        # determinism: identical seed reproduces the file byte for byte
        run_cli(
            "estimate", "--graph", str(gpath), "--lists", str(lpath), "--seed", "3",
            "--trials", "2000", "--out-dir", str(tmp_path),
        )
        assert (tmp_path / "estimate_results.csv").read_text() == csv_text

    def test_audit_extract_bounds(self, tmp_path):
        gpath = tmp_path / "g.col"
        lpath = tmp_path / "l.json"
        run_cli(
            "generate", "--name", "c5_blowup", "--param", "t=1", "--out", str(gpath),
            "--lists-out", str(lpath), "--uniform-lists", "2",
        )
        r = run_cli("audit", "--graph", str(gpath), "--lists", str(lpath))
        assert r.returncode == 0, r.stderr
        assert json.loads(r.stdout)["holds"]

        r = run_cli("extract", "--graph", str(gpath), "--alpha", "1/4", "--eps", "1/100")
        assert r.returncode == 0 and json.loads(r.stdout)["kept"] == list(range(5))

        r = run_cli("bounds", "--which", "ky", "--params", "k=4,n=7")
        assert r.returncode == 0 and json.loads(r.stdout) == 11

        r = run_cli("certify-constants")
        assert r.returncode == 0
        assert json.loads(r.stdout)["savings_gap"]["holds"]


class TestBuildParams:
    def test_known_keys(self):
        params = build_params({"eps": "1/20", "sigma": "1/4", "rho": "auto"})
        assert params.eps == Fraction(1, 20) and params.sigma == Fraction(1, 4)

    def test_unknown_key_is_named(self):
        with pytest.raises(ValueError, match="gap_exp"):
            build_params({"eps": "1/20", "gap_exp": 10})

    def test_rho_left_out_is_default_rho_of_alpha(self):
        want = default_rho(Fraction(1, 10))
        assert ProcedureParams(alpha=Fraction(1, 10)).rho == want
        assert build_params({"alpha": "1/10"}).rho == want
        assert build_params({"alpha": "1/10", "rho": "auto"}).rho == want
        assert build_params({"alpha": "1/10", "rho": "1/2"}).rho == 0.5

    def test_alpha_is_checked_before_default_rho(self):
        # default_rho divides by 1 + alpha, which is 0 here
        with pytest.raises(ValueError, match="alpha must be positive"):
            ProcedureParams(alpha=-1)
