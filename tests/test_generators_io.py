import itertools
import json
import re
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from exact import brute_force_L_colorable
from localcolor.formats import (
    FormatError,
    _parse_dimacs_lines,
    emit_dimacs,
    lists_from_json,
    lists_from_text,
    lists_to_json,
    parse_dimacs,
)
from localcolor.cli import _params_of, _parser
from localcolor.generators import gen_c5_blowup, gen_complete_bipartite, gen_gnp
from localcolor.graph import Graph
from localcolor.lists import make_lists, uniform_lists
from localcolor.procedure import ProcedureParams, default_rho


class TestGenerators:
    def test_c5_t1_is_c5(self):
        g = gen_c5_blowup(1)
        assert g.n == 5 and g.edge_count() == 5
        assert max(g.clique_numbers) == 2

    def test_c5_t2(self):
        g = gen_c5_blowup(2)
        assert g.n == 10
        assert all(len(g.adj[v]) == 5 for v in range(10))
        assert max(g.clique_numbers) == 4
        ok4, _ = brute_force_L_colorable(g, uniform_lists(10, 4))
        ok5, _ = brute_force_L_colorable(g, uniform_lists(10, 5))
        assert not ok4 and ok5  # chromatic number 5

    @pytest.mark.parametrize("t", [1, 2, 3, 4])
    def test_c5_closed_forms(self, t):
        g = gen_c5_blowup(t)
        assert all(len(g.adj[v]) == 3 * t - 1 for v in range(g.n))
        assert max(g.clique_numbers) == 2 * t

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

    @pytest.mark.parametrize(
        "n, p, seed",
        [(0, 0.5, 1), (1, 0.5, 1), (30, 0.5, 42), (400, 0.1, 0), (200, 1, 3), (50, 0, 2)],
    )
    def test_gnp_is_the_per_pair_stream(self, n, p, seed):
        assert gen_gnp(n, p, seed) == gen_gnp_per_pair(n, p, seed)

    @given(st.integers(0, 40), st.floats(0, 1), st.integers(0, 2**64 - 1))
    @settings(max_examples=60, deadline=None)
    def test_gnp_is_the_per_pair_stream_drawn(self, n, p, seed):
        assert gen_gnp(n, p, seed) == gen_gnp_per_pair(n, p, seed)


def gen_gnp_per_pair(n: int, p: float, seed: int) -> Graph:
    """G(n, p) with one rng.random() call per pair (u, v), u < v, in row
    order: the stream gen_gnp draws row by row."""
    rng = np.random.default_rng(seed)
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return Graph.from_edges(n, edges)


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


def _an_edge_line(draw, lines: list[str], run: int = 1) -> int | None:
    """The index of the first of `run` lines in a row still of the form
    `e u v`, or None."""
    edge = [bool(re.fullmatch(r"e \S+ \S+", line)) for line in lines]
    found = [i for i in range(len(lines) - run + 1) if all(edge[i : i + run])]
    return draw(st.sampled_from(found)) if found else None


def _field(value):
    """One end of an edge line replaced by value(n, other end)."""
    def mutate(draw, lines, n):
        i = _an_edge_line(draw, lines)
        if i is not None:
            parts = lines[i].split(" ")
            k = draw(st.sampled_from([1, 2]))
            parts[k] = value(n, parts[3 - k])
            lines[i] = " ".join(parts)
    return mutate


def _split_line(draw, lines, n):
    i = _an_edge_line(draw, lines)
    if i is not None:
        e, u, v = lines[i].split(" ")
        lines[i : i + 1] = [f"{e} {u}", v]


def _join_lines(draw, lines, n):
    """`e 1 2 e 3 4` on one line, or `e 1 2 e` followed by `3 4`."""
    i = _an_edge_line(draw, lines, run=2)
    if i is not None:
        e, u, v = lines[i + 1].split(" ")
        if draw(st.booleans()):
            lines[i : i + 2] = [f"{lines[i]} {e} {u} {v}"]
        else:
            lines[i : i + 2] = [f"{lines[i]} {e}", f"{u} {v}"]


def _move_field(draw, lines, n):
    """`e 1 2 3` and `e 4`: as many fields as two edge lines hold, on two lines."""
    i = _an_edge_line(draw, lines, run=2)
    if i is not None:
        e, u, v = lines[i + 1].split(" ")
        lines[i : i + 2] = [f"{lines[i]} {v}", f"{e} {u}"]


def _wrong_m(draw, lines, n):
    for i, line in enumerate(lines):
        if line.startswith("p edge "):
            p, edge, n_text, m = line.split(" ")
            lines[i] = f"{p} {edge} {n_text} {int(m) + draw(st.sampled_from([-1, 1]))}"
            return


def _insert(text):
    def mutate(draw, lines, n):
        lines.insert(draw(st.integers(0, len(lines))), text)
    return mutate


def _crlf(draw, lines, n):
    lines[draw(st.integers(0, len(lines) - 1))] += "\r"


def _replace_text(old, new):
    def mutate(draw, lines, n):
        i = draw(st.integers(0, len(lines) - 1))
        lines[i] = lines[i].replace(old, new, 1)
    return mutate


MUTATIONS = [
    _insert("c a comment"), _insert(""), _insert("   "), _crlf, _replace_text(" ", "\t"),
    _replace_text(" ", "  "), _replace_text("e", "e\r"),
    *(_field(lambda n, _, x=x: x) for x in ("+1", "01", "1_0", "2**64", str(2**64), "0", "e")),
    _field(lambda n, _: str(n + 1)), _field(lambda n, other: other),  # out of range; a loop
    _split_line, _join_lines, _move_field, _wrong_m,
]


@st.composite
def dimacs_texts(draw):
    """emit_dimacs text of a graph with up to two mutations, each a case the
    whole-file pass must read as the line loop does or hand to it: a
    comment, blank lines, CRLF, a tab, a double space, a lone CR, an end
    `+1`, `01`, `1_0`, `2**64`, 2**64, 0, n + 1, `e` or a loop, a split,
    joined or uneven edge line, a wrong edge count."""
    g = draw(graphs())
    lines = emit_dimacs(g).splitlines()
    for mutate in draw(st.lists(st.sampled_from(MUTATIONS), max_size=2)):
        mutate(draw, lines, g.n)
    return "\n".join(lines) + draw(st.sampled_from(["\n", ""]))


def _outcome(parse, text):
    try:
        return parse(text)
    except Exception as exc:  # FormatError, or what an absurd vertex count raises
        return type(exc), str(exc)


class TestDimacsWholeFile:
    @given(dimacs_texts())
    @example("p edge 3 2\ne 1 2 3\ne 2\n")
    @example("p edge 6 2\ne 1 2 3\ne 4 5 6\n")  # a third field, yet 3m fields in all
    @example("p edge 3 3\ne 1 2\ne 2 3\n")  # m lines of e, but one fewer newline
    @example("p edge 3 2\ne 1  2\ne 2 3 \n")  # doubled and trailing spaces
    @example(f"p edge {2**63 - 1} 1\ne 1 {2**64}\n")  # the field saturates at 2**63 - 1
    @example(f"p edge {2**63 - 1} 1\ne 1 99999999999999999999\n")
    @example(f"p edge {2**63} 1\ne 1 2\n")
    @example(f"p edge {10**23} 1\ne 1 2\n")
    @example("p edge 5 2\ne5 1 2\ne 3 \n")  # its digits deleted, the emitted shape
    @example("p edge 12 1\ne  12\n")  # a field of no digit
    @example("p edge 3 1\ne 1 2 ")  # a trailing space
    @example("p edge 3 1\ne \u0661 2\n")  # an Arabic-Indic one, which int() reads
    @example("p edge 3 1\ne 1 2\ud800\n")  # a lone surrogate, which encode() rejects
    @example("p edge 3 1\ne 01 2\n")
    @settings(max_examples=300, deadline=None)
    def test_equals_the_line_loop(self, text):
        assert _outcome(parse_dimacs, text) == _outcome(_parse_dimacs_lines, text)

    def test_huge_edge_count_builds_nothing_of_its_size(self):
        # the newline count refuses the pass before anything of size m is built
        text, m = "p edge 3 1000000000000000\ne 1 2\n", 10**15
        tracemalloc.start()
        try:
            with pytest.raises(FormatError, match=f"^line 1: the problem line declares {m} edges"):
                parse_dimacs(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert _outcome(parse_dimacs, text) == _outcome(_parse_dimacs_lines, text)
        assert peak < 1 << 20

    @pytest.mark.parametrize("field", [2**63, 99999999999999999999, -(2**64)])
    @pytest.mark.parametrize("n", [3, 2**63 - 1, 2**64])
    def test_field_beyond_int64_is_out_of_range_for_any_vertex_count(self, n, field):
        # rejected before anything of size n is allocated
        text = f"p edge {n} 2\ne 1 2\ne 1 {field}\n"
        for parse in (parse_dimacs, _parse_dimacs_lines):
            with pytest.raises(FormatError, match="^line 3: vertex out of range$"):
                parse(text)

    @pytest.mark.parametrize("n", [2**63, 10**23])
    def test_vertex_count_beyond_int64_edge_keys_is_the_problem_lines_error(self, n):
        text = f"p edge {n} 1\ne 1 2\n"
        for parse in (parse_dimacs, _parse_dimacs_lines):
            with pytest.raises(FormatError, match=f"^line 1: {n} vertices: more than 3037000499"):
                parse(text)

    @given(graphs())
    @example(Graph.from_edges(0, []))
    @example(Graph.from_edges(3, []))
    @settings(max_examples=50, deadline=None)
    def test_plain_emitted_text_takes_the_whole_file_pass(self, g):
        text = emit_dimacs(g)
        with mock.patch("localcolor.formats._parse_dimacs_lines", side_effect=AssertionError):
            assert parse_dimacs(text) == g
            assert parse_dimacs(text.rstrip("\n")) == g


# colors about the whole-text pass's limits: 18 digits, 19, and past int64
EDGE_COLORS = [0, 9, 10, -1, 10**17, 10**18 - 1, -(10**18 - 1), 10**18, -(10**18),
               2**63 - 1, -(2**63), 2**63, -(2**63) - 1, 2**64]
# a block of one character, of a few rows, and the reader's own
BLOCKS = [1, 6, 1 << 18]


@st.composite
def emitted_lists(draw, widest=2**65):
    """json.dumps(lists_to_json(L)) of an assignment of up to 6 rows, its
    colors no wider than `widest`."""
    colors = st.one_of(st.integers(-30, 30), st.integers(-widest, widest),
                       st.sampled_from([c for c in EDGE_COLORS if abs(c) <= widest]))
    rows = draw(st.lists(st.lists(colors, min_size=1, max_size=5, unique=True), max_size=6))
    return json.dumps(lists_to_json(make_lists(rows)))


TEXT_BYTES = st.sampled_from([*'0123456789-[], {}":.eE+x\n', "\t", "\u00e9", "\ud800"])


def _change_byte(draw, text):
    i = draw(st.integers(0, len(text) - 1))
    return text[:i] + draw(TEXT_BYTES) + text[i + 1 :]


def _remove_byte(draw, text):
    i = draw(st.integers(0, len(text) - 1))
    return text[:i] + text[i + 1 :]


def _insert_byte(draw, text):
    i = draw(st.integers(0, len(text)))
    return text[:i] + draw(TEXT_BYTES) + text[i:]


def _replace_color(draw, text):
    """One color replaced by `01`, `-`, `1.0`, `1e2`, `true`, `-0`, the JSON
    string "\\ud800", a nested row or an empty one."""
    found = list(re.finditer(r"-?[0-9]+", text))
    if not found:
        return text
    m = draw(st.sampled_from(found))
    new = draw(st.sampled_from(["01", "-", "1.0", "1e2", "true", "-0", '"\\ud800"', "[2]", "[]"]))
    return text[: m.start()] + new + text[m.end() :]


def _adjacent_colors(new):
    """Two adjacent colors of a row, a and b, written as new(a, b)."""
    def mutate(draw, text):
        found = list(re.finditer(r"(-?[0-9]+), (-?[0-9]+)", text))
        if not found:
            return text
        m = draw(st.sampled_from(found))
        return text[: m.start()] + new(*m.groups()) + text[m.end() :]
    return mutate


def _replace_once(old, new):
    return lambda draw, text: text.replace(old, new, 1)


LIST_MUTATIONS = [
    _change_byte, _remove_byte, _insert_byte, _replace_color,
    _adjacent_colors(lambda a, b: f"{b}, {a}"),  # a descending row
    _adjacent_colors(lambda a, b: f"{a}, {a}"),  # a repeated color
    _replace_once("[", "[[], "),  # an empty first row
    _replace_once("], [", "], 5, ["),  # a number between two rows
    _replace_once("[[", "[5, ["),  # a number before the first row
    _replace_once("]]}", "], 5]}"),  # and after the last
    lambda draw, text: text.replace(", ", ",").replace(": ", ":"),  # no spaces
]


@st.composite
def lists_texts(draw):
    """An emitted lists text with up to two mutations, each a case the
    whole-text pass must read as json.loads and lists_from_json do or hand
    to them."""
    text = draw(emitted_lists())
    for mutate in draw(st.lists(st.sampled_from(LIST_MUTATIONS), max_size=2)):
        text = mutate(draw, text)
    return text


def _lists_outcome(read, text):
    try:
        L = read(text)
    except Exception as exc:  # FormatError, ValueError, or json's own error
        return type(exc), str(exc)
    return L.start.tolist(), L.colors.tolist(), L.colors.dtype


def _through_json(text):
    return lists_from_json(json.loads(text))


class TestListsWholeText:
    @given(lists_texts(), st.sampled_from(BLOCKS))
    @example('{"lists": []}', 1)
    @example('{"lists": [[-0, 5], [2, 1]]}', 1)
    @example('{"lists": [[01]]}', 1 << 18)
    @example('{"lists": [[-]]}', 1 << 18)
    @example('{"lists": [[1.0]]}', 1 << 18)
    @example('{"lists": [[1e2]]}', 1 << 18)
    @example('{"lists": [[true]]}', 1 << 18)
    @example('{"lists": [["\\ud800"]]}', 1 << 18)
    @example('{"lists": [[1, "\ud800"]]}', 1 << 18)  # a lone surrogate in the text
    @example('{"lists": [[1, "\u00e9"]]}', 1 << 18)
    @example('{"lists": [[1,\t2]]}', 1 << 18)
    @example('{"lists":[[1,2]]}', 1 << 18)
    @example('{"lists": [[]]}', 1 << 18)
    @example('{"lists": [[1], []]}', 1)
    @example('{"lists": [[1, [2]]]}', 1 << 18)
    @example('{"lists": [[1], [2], 3, [4]]}', 6)
    @example('{"lists": [1, [2]]}', 1 << 18)
    @example('{"lists": [[1], 2]}', 1 << 18)
    @example('{"lists": [[1], [3, 2]]}', 1)
    @example('{"lists": [[1], [2, 7, 2]]}', 1)
    @example('{"lists": [[123456789012345678, 1234567890123456789]]}', 1 << 18)
    @example('{"lists": [[1]]}\n', 1 << 18)
    @settings(max_examples=150, deadline=None)
    def test_equals_json_loads(self, text, block):
        with mock.patch("localcolor.formats._TEXT_BLOCK", block):
            assert _lists_outcome(lists_from_text, text) == _lists_outcome(_through_json, text)

    @given(emitted_lists(widest=10**18 - 1), st.sampled_from(BLOCKS))
    @settings(max_examples=50, deadline=None)
    def test_emitted_text_takes_the_whole_text_pass(self, text, block):
        want = _lists_outcome(_through_json, text)
        with (mock.patch("localcolor.formats._TEXT_BLOCK", block),
              mock.patch("localcolor.formats.lists_from_json", side_effect=AssertionError)):
            L = lists_from_text(text)
        assert (L.start.tolist(), L.colors.tolist(), L.colors.dtype) == want


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


def estimate_params(*options: str) -> ProcedureParams:
    """The params the CLI builds for `estimate` with these procedure options."""
    argv = ["estimate", "--graph", "g.col", "--lists", "l.json", "--seed", "0", *options]
    return _params_of(_parser().parse_args(argv))[0]


class TestBuildParams:
    """ProcedureParams from option text at the CLI boundary, and from fields."""

    def test_known_keys(self):
        params = estimate_params("--eps", "1/20", "--sigma", "1/4", "--rho", "auto")
        assert params.eps == Fraction(1, 20) and params.sigma == Fraction(1, 4)

    def test_rho_left_out_is_default_rho_of_alpha(self):
        want = default_rho(Fraction(1, 10))
        assert ProcedureParams(alpha=Fraction(1, 10)).rho == want
        assert estimate_params("--alpha", "1/10").rho == want
        assert estimate_params("--alpha", "1/10", "--rho", "auto").rho == want
        assert estimate_params("--alpha", "1/10", "--rho", "1/2").rho == 0.5

    @pytest.mark.parametrize("field", ["eps", "sigma", "alpha", "beta"])
    def test_exact_fields_take_rationals_only(self, field):
        # the exact checks read numerator and denominator, which a float lacks
        with pytest.raises(TypeError, match=f"^{field} must be an int or a Fraction, got 0.1$"):
            ProcedureParams(**{field: 0.1})
        assert getattr(ProcedureParams(**{field: Fraction(1, 10)}), field) == Fraction(1, 10)

    def test_alpha_is_checked_before_default_rho(self):
        # default_rho divides by 1 + alpha, which is 0 here
        with pytest.raises(ValueError, match="alpha must be positive"):
            ProcedureParams(alpha=-1)
