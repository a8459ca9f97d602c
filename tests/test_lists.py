import itertools
import json
import math
import random
import tracemalloc
from fractions import Fraction

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exact import brute_force_L_colorable, class_of, is_L_critical, is_proper_walk
from localcolor import experiment
from localcolor.bounds import aberrance_lower_bound, pairs_trips_lower_bound, unact_expectation
from localcolor.experiment import run_estimate
from localcolor.formats import lists_from_json
from localcolor.graph import Graph, GraphError, Matching
from localcolor.knm import density_audit
from localcolor.lists import is_proper, make_lists, neighbor_classes, uniform_lists
from localcolor.procedure import ProcedureParams, compile_lists, pipeline_color


def complete(n):
    return Graph.from_edges(n, itertools.combinations(range(n), 2))


def cycle(n):
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def path(n):
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


class TestGapSave:
    def test_save(self):
        # Save(v) = d(v) + 1 - |L(v)| is 1 at every vertex, and the audit's
        # right side with an empty antimatching is minus their sum
        L = uniform_lists(5, 2)
        rhs = density_audit(cycle(5), L, range(5), Matching.of([])).rhs
        assert rhs == -5 and type(rhs) is int
        assert density_audit(cycle(5), L, [1, 3], Matching.of([(1, 3)])).rhs == 1 * 1 - 2

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError):
            make_lists([[]])


def test_lists_hold_about_one_int64_per_color():
    """20,000 loaded JSON rows of 8-12 colors, out of order, make an
    assignment that keeps at most 16 B per color and 16 B per row: the flat
    int64 colors and offsets, not a frozenset per row (one of 10 small ints
    is about 730 B)."""
    rng = random.Random(0)
    rows = [rng.sample(range(200), rng.randint(8, 12)) for _ in range(20_000)]
    obj = json.loads(json.dumps({"lists": rows}))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        L = lists_from_json(obj)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    cells = sum(map(len, rows))
    assert len(L) == len(rows) and L[0] == frozenset(rows[0])
    assert held <= 16 * cells + 16 * len(rows)


class TestProfile:
    """One vertex's neighbor classes at the taxonomy's cut-offs, through
    neighbor_classes: 0 subservient, 1 strongly egalitarian, 2 weakly
    egalitarian, 3 lordlier."""

    A = Fraction(1, 50)
    B = Fraction(1, 50)

    def test_equal_lists_strong_egal(self):
        # C5 with 3-color lists: gap 1, so [3, 3 + 1/50) is strong
        assert neighbor_classes(np.array([3, 3]), 3, 1, self.A, self.B).tolist() == [1, 1]

    def test_smaller_list_subservient(self):
        assert neighbor_classes(np.array([9]), 10, 0, self.A, self.B).tolist() == [0]

    def test_weak_egal_boundary(self):
        # center list 100, gap 50, beta=1/50: weak interval is [101, 102); one
        # more color reaches (1 + alpha)|L(v)| and flips to lordlier
        sizes = np.array([100, 101, 102])
        assert neighbor_classes(sizes, 100, 50, self.A, self.B).tolist() == [1, 2, 3]

    def test_empty_weak_interval_is_lordlier(self):
        # center list 50, gap 50: [51, 51) is empty, so 51 colors is lordlier
        sizes = np.array([50, 51])
        assert neighbor_classes(sizes, 50, 50, self.A, self.B).tolist() == [1, 3]


# positive rationals whose numerators and denominators pass 2^63
RATIONALS = st.builds(Fraction, st.integers(1, 2**70), st.integers(1, 2**70)) | st.sampled_from(
    [Fraction(1, 50), Fraction(1, 3), Fraction(3, 2), Fraction(7, 10**25 + 3), Fraction(1, 10**30)]
)


@st.composite
def neighbor_sizes(draw, size_v, gap_v, alpha, beta):
    """A list size for a neighbor, often at or beside one of the cut-offs."""
    cut = draw(st.sampled_from([size_v, math.ceil((1 + alpha) * size_v),
                                math.ceil(size_v + beta * gap_v)]))
    size = draw(st.one_of(st.integers(1, 2**62), st.integers(cut - 1, cut + 1)))
    return max(1, min(size, 2**62))


class TestNeighborClasses:
    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_equal_the_fraction_rule_over_arrays(self, data):
        alpha, beta = data.draw(RATIONALS), data.draw(RATIONALS)
        count = data.draw(st.integers(0, 12))
        size_v = data.draw(st.lists(st.integers(1, 2**62), min_size=count, max_size=count))
        gap_v = data.draw(st.lists(st.integers(0, 2**62), min_size=count, max_size=count))
        size_u = [data.draw(neighbor_sizes(s, g, alpha, beta)) for s, g in zip(size_v, gap_v)]
        want = [class_of(*row, alpha, beta) for row in zip(size_u, size_v, gap_v)]
        arrays = (np.array(x, dtype=np.int64) for x in (size_u, size_v, gap_v))
        assert neighbor_classes(*arrays, alpha, beta).tolist() == want

    def test_the_lord_cut_is_exact_where_floats_and_int64_are_not(self):
        # (1 + alpha) |L(v)| is 2^62 exactly, one above |L(v)|: in floats
        # 1 + alpha is 1 and both sizes round to 2^62, and the cross products
        # the cut is compared by pass int64
        size_v, alpha = 2**62 - 1, Fraction(1, 2**62 - 1)
        sizes = [2**62 - 1, 2**62]
        got = neighbor_classes(np.array(sizes), size_v, 0, alpha, Fraction(1))
        assert got.tolist() == [class_of(u, size_v, 0, alpha, 1) for u in sizes] == [2, 3]

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_lower_bounds_equal_the_fraction_rule(self, data):
        # every row of what estimate compares against, from class_of one
        # neighbor at a time, networkx's ω and an explicit non-edge count
        n = data.draw(st.integers(1, 9))
        possible = list(itertools.combinations(range(n), 2))
        edges = data.draw(st.lists(st.sampled_from(possible), unique=True)) if possible else []
        g = Graph.from_edges(n, edges)
        L = make_lists([range(data.draw(st.integers(1, 12))) for _ in range(n)])
        params = ProcedureParams(alpha=data.draw(RATIONALS), beta=data.draw(RATIONALS))
        h = nx.empty_graph(n)
        h.add_edges_from(g.edges())
        omega, want = nx.node_clique_number(h), []
        for v in range(n):
            d, size = len(g.adj[v]), len(L[v])
            gap_v = d + 1 - omega[v]
            code = {u: class_of(len(L[u]), size, gap_v, params.alpha, params.beta) for u in g.adj[v]}
            count = [list(code.values()).count(c) for c in range(4)]
            egal = sorted(u for u, c in code.items() if c in (1, 2))
            e1 = sum(1 for u, w in itertools.combinations(egal, 2) if w not in g.adj[u])
            want.append((
                aberrance_lower_bound(params.keep, params.alpha, params.beta, gap_v, d,
                                      count[3], count[2]),
                pairs_trips_lower_bound(params.keep, params.alpha, size, e1, d * (d - 1) // 2),
                unact_expectation(params.rho, count[0]),
            ))
        assert experiment._lower_bounds(g, compile_lists(g, L), params) == want


class TestBruteForce:
    def test_k3_two_colors(self):
        ok, _ = brute_force_L_colorable(complete(3), uniform_lists(3, 2))
        assert not ok

    def test_k3_mixed(self):
        ok, w = brute_force_L_colorable(complete(3), make_lists([[1, 2], [1, 2], [1, 3]]))
        assert ok and is_proper(complete(3), make_lists([[1, 2], [1, 2], [1, 3]]), w)

    def test_c5_blowup_chromatic(self):
        from localcolor.generators import gen_c5_blowup

        g = gen_c5_blowup(2)
        ok4, _ = brute_force_L_colorable(g, uniform_lists(10, 4))
        ok5, _ = brute_force_L_colorable(g, uniform_lists(10, 5))
        assert not ok4 and ok5


class TestIsProper:
    def test_color_outside_its_list(self):
        L = make_lists([[0, 1], [1, 2], [0, 2]])
        assert is_proper(path(3), L, {0: 0, 1: 1, 2: 2})
        assert not is_proper(path(3), L, {0: 0, 1: 0, 2: 2})  # 0 is not in L(1)
        assert not is_proper(path(3), L, {2: 1})

    def test_equal_colors_on_an_edge(self):
        L = uniform_lists(3, 3)
        assert not is_proper(path(3), L, {0: 0, 1: 2, 2: 2})
        assert not is_proper(complete(3), L, {0: 1, 1: 0, 2: 1})
        assert is_proper(path(3), L, {0: 1, 1: 0, 2: 1})

    def test_colors_of_2_to_the_63_and_above(self):
        # equal colors beyond int64 conflict; colors one apart, which a float
        # would merge, do not
        big = [2**63, 2**63 + 1, 2**64 + 5]
        L = make_lists([big] * 3)
        assert not is_proper(path(3), L, {0: 2**63, 1: 2**63, 2: 2**64 + 5})
        assert not is_proper(path(3), L, {0: 2**63, 1: 2**64 + 5, 2: 2**64 + 5})
        assert is_proper(path(3), L, {0: 2**63, 1: 2**63 + 1, 2: 2**63})

    def test_uncolored_vertex_is_ignored(self):
        L = uniform_lists(3, 2)
        # 0 and 2 share a color but no edge; the uncolored 1 between them
        # conflicts with neither
        assert is_proper(path(3), L, {0: 0, 2: 0})
        assert is_proper(complete(3), L, {1: 0})
        assert is_proper(complete(3), L, {})
        assert not is_proper(complete(3), L, {0: 1, 2: 1})

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_agrees_with_the_edge_walk(self, data):
        n = data.draw(st.integers(1, 7))
        possible = list(itertools.combinations(range(n), 2))
        edges = data.draw(st.lists(st.sampled_from(possible), unique=True)) if possible else []
        g = Graph.from_edges(n, edges)
        palette = data.draw(st.sampled_from([range(4), [0, 2**63, 2**63 + 1, 2**64]]))
        L = make_lists(
            [data.draw(st.lists(st.sampled_from(palette), min_size=1, unique=True))
             for _ in range(n)]
        )
        colored = data.draw(st.lists(st.integers(0, n - 1), unique=True))
        coloring = {v: data.draw(st.sampled_from(palette)) for v in colored}
        assert is_proper(g, L, coloring) == is_proper_walk(g, L, coloring)


class TestCriticality:
    def test_k3(self):
        assert is_L_critical(complete(3), uniform_lists(3, 2))

    def test_k3_colorable_not_critical(self):
        assert not is_L_critical(complete(3), make_lists([[1, 2], [1, 2], [1, 3]]))

    def test_edgeless_not_critical(self):
        assert not is_L_critical(Graph.from_edges(3, []), uniform_lists(3, 1))

    def test_critical_lists_at_most_degree(self):
        g = cycle(5)
        L = uniform_lists(5, 2)
        assert is_L_critical(g, L)
        assert all(len(L[v]) <= len(g.adj[v]) for v in range(5))


# Every entry that takes a graph and its lists, called on C5 with lists L.
_TAKES_LISTS = {
    "is_proper": lambda g, L, tmp: is_proper(g, L, {}),
    "density_audit": lambda g, L, tmp: density_audit(g, L, range(5), Matching.of([])),
    "compile_lists": lambda g, L, tmp: compile_lists(g, L),
    "pipeline_color": lambda g, L, tmp: pipeline_color(
        g, L, ProcedureParams(), 20, np.random.default_rng(0)
    ),
    "run_estimate": lambda g, L, tmp: run_estimate(g, L, ProcedureParams(), 50, 0, tmp, {}),
    "brute_force_L_colorable": lambda g, L, tmp: brute_force_L_colorable(g, L),
    "is_L_critical": lambda g, L, tmp: is_L_critical(g, L),
}


@pytest.mark.parametrize("count", [3, 7])
@pytest.mark.parametrize("entry", list(_TAKES_LISTS))
def test_a_list_count_other_than_n_is_named(entry, count, tmp_path):
    with pytest.raises(GraphError, match=f"^{count} lists for a graph on 5 vertices$"):
        _TAKES_LISTS[entry](cycle(5), uniform_lists(count, 3), tmp_path / "out")
    assert not (tmp_path / "out").exists()
