import itertools
from fractions import Fraction

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from localcolor.graph import (
    Graph,
    GraphError,
    Matching,
    average_degree,
    complement_edge_count,
    complement_subgraph,
    degree,
    local_clique_number,
    mad_exact,
    max_antimatching,
    max_clique_size,
    rivin_triangle_bound,
    triangle_count,
)
from localcolor.knm import KnmInstance
from localcolor.lists import gap, is_proper, profile, save, uniform_lists


def complete(n):
    return Graph.from_edges(n, itertools.combinations(range(n), 2))


def cycle(n):
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def edgeless(n):
    return Graph.from_edges(n, [])


def petersen():
    G = nx.petersen_graph()
    return Graph.from_edges(10, G.edges())


@st.composite
def graphs(draw, max_n=10):
    n = draw(st.integers(1, max_n))
    possible = list(itertools.combinations(range(n), 2))
    edges = draw(st.lists(st.sampled_from(possible), unique=True)) if possible else []
    return Graph.from_edges(n, edges)


class TestGraphBasics:
    def test_no_self_loops(self):
        with pytest.raises(GraphError):
            Graph.from_edges(2, [(0, 0)])

    def test_out_of_range(self):
        with pytest.raises(GraphError):
            Graph.from_edges(2, [(0, 2)])

    def test_degree(self):
        assert all(degree(complete(4), v) == 3 for v in range(4))
        assert all(degree(edgeless(5), v) == 0 for v in range(5))
        assert all(degree(cycle(5), v) == 2 for v in range(5))

    def test_degree_out_of_range(self):
        with pytest.raises(GraphError):
            degree(complete(3), 3)

    def test_edges_roundtrip(self):
        g = cycle(6)
        assert Graph.from_edges(6, g.edges()) == g

    def test_subgraph_relabels(self):
        g = complete(5).subgraph([1, 3, 4])
        assert g.n == 3 and g.edge_count() == 3


class TestSortedCsr:
    def test_neighbors_ascend_whatever_the_edge_order(self):
        g = Graph.from_edges(5, [(4, 0), (2, 0), (0, 3), (1, 0), (3, 2)])
        assert g.ptr.tolist() == [0, 4, 5, 7, 9, 10]
        assert g.nbr.tolist() == [1, 2, 3, 4, 0, 0, 3, 0, 2, 0]
        assert g.adj == (
            frozenset({1, 2, 3, 4}), frozenset({0}), frozenset({0, 3}),
            frozenset({0, 2}), frozenset({0}),
        )

    def test_repeats_in_either_direction_are_dropped(self):
        g = Graph.from_edges(3, [(0, 1), (1, 0), (0, 1), (2, 1)])
        assert g.edges() == [(0, 1), (1, 2)] and g.edge_count() == 2

    def test_equality_and_hash_are_by_value(self):
        a = Graph.from_edges(4, [(0, 1), (2, 3), (1, 2)])
        b = Graph.from_edges(4, [(3, 2), (2, 1), (1, 0)])
        assert a == b and hash(a) == hash(b) and len({a, b}) == 1
        assert a != Graph.from_edges(4, [(0, 1), (2, 3)])
        assert a != Graph.from_edges(5, [(0, 1), (2, 3), (1, 2)])

    def test_arrays_are_read_only(self):
        g = cycle(4)
        with pytest.raises(ValueError):
            g.nbr[0] = 2
        with pytest.raises(ValueError):
            g.ptr[1] = 0

    @pytest.mark.parametrize(
        "edges, message",
        [
            ([(0, 1), (2, 2), (0, 5)], "self-loop at 2"),
            ([(0, 1), (0, 5), (2, 2)], r"edge \(0,5\) out of range"),
            ([(-1, 1)], r"edge \(-1,1\) out of range"),
            ([(1, 1), (0, 2**70)], "self-loop at 1"),
            ([(0, 1), (2**70, 2**71)], rf"edge \({2**70},{2**71}\) out of range"),
            ([(0, 1, 2)], r"edges must be \(u, v\) pairs"),
        ],
    )
    def test_from_edges_names_the_first_bad_edge(self, edges, message):
        with pytest.raises(GraphError, match=f"^{message}$"):
            Graph.from_edges(3, edges)

    @pytest.mark.parametrize(
        "n, ptr, nbr, message",
        [
            (-1, [0], [], "vertex count -1 is negative"),
            (2, [0, 1], [1], "ptr must hold n \\+ 1 offsets from 0 to len\\(nbr\\)"),
            (2, [1, 1, 1], [1], "ptr must hold"),
            (2, [0, 1, 1], [[1]], "ptr must hold"),
            (3, [0, 2, 1, 2], [1, 2], "ptr must be nondecreasing"),
            (2, [0, 1, 2], [1, 1], "self-loop at 1"),
            (2, [0, 1, 2], [2, 0], "neighbor 2 of 0 out of range"),
            (3, [0, 2, 3, 4], [2, 1, 0, 0], "strictly ascending"),
            (3, [0, 1, 2, 2], [1, 2], "adjacency must be symmetric"),
        ],
    )
    def test_constructor_rejects_a_bad_csr(self, n, ptr, nbr, message):
        with pytest.raises(GraphError, match=message):
            Graph(n, ptr, nbr)


class TestCliques:
    def test_complete(self):
        assert all(local_clique_number(complete(4), v) == 4 for v in range(4))

    def test_k4_minus_edge(self):
        g = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
        assert local_clique_number(g, 2) == 3
        assert max_clique_size(g) == 3

    def test_cycle_triangle_free(self):
        assert all(local_clique_number(cycle(5), v) == 2 for v in range(5))

    def test_petersen(self):
        assert max_clique_size(petersen()) == 2

    def test_single_vertex(self):
        assert max_clique_size(edgeless(1)) == 1

    @given(graphs(max_n=8))
    @settings(max_examples=60, deadline=None)
    def test_local_vs_global_vs_brute(self, g):
        best = 1
        for r in range(1, g.n + 1):
            for sub in itertools.combinations(range(g.n), r):
                if all(g.has_edge(u, v) for u, v in itertools.combinations(sub, 2)):
                    best = max(best, r)
        assert max_clique_size(g) == best
        assert all(local_clique_number(g, v) <= best for v in range(g.n))


class TestComplementAndTriangles:
    def test_complement_edge_count(self):
        assert complement_edge_count(complete(4), range(4)) == 0
        assert complement_edge_count(cycle(5), range(5)) == 5
        assert complement_edge_count(edgeless(3), range(3)) == 3

    def test_triangle_counts(self):
        assert triangle_count(complete(4)) == 4
        assert triangle_count(cycle(5)) == 0
        assert triangle_count(complete(5)) == 10
        assert 10 <= rivin_triangle_bound(10)

    @given(graphs(max_n=12))
    @settings(max_examples=60, deadline=None)
    def test_triangles_brute_and_rivin(self, g):
        brute = sum(
            1
            for a, b, c in itertools.combinations(range(g.n), 3)
            if g.has_edge(a, b) and g.has_edge(b, c) and g.has_edge(a, c)
        )
        assert triangle_count(g) == brute
        assert brute <= rivin_triangle_bound(g.edge_count()) + 1e-9


def brute_max_matching(g: Graph) -> int:
    def rec(free: frozenset) -> int:
        live = [v for v in free if g.adj[v] & free]
        if not live:
            return 0
        v = live[0]
        best = rec(free - {v})
        for u in g.adj[v] & free:
            best = max(best, 1 + rec(free - {v, u}))
        return best

    return rec(frozenset(range(g.n)))


class TestAntimatching:
    def test_complete_graph_empty(self):
        assert len(max_antimatching(complete(4), range(4))) == 0

    def test_c5(self):
        m = max_antimatching(cycle(5), range(5))
        assert len(m) == 2
        for u, v in m.edges:
            assert not cycle(5).has_edge(u, v)

    def test_edgeless(self):
        assert len(max_antimatching(edgeless(4), range(4))) == 2

    def test_matching_disjointness(self):
        with pytest.raises(GraphError):
            Matching.of([(0, 1), (1, 2)])

    @given(graphs(max_n=8))
    @settings(max_examples=40, deadline=None)
    def test_maximum_vs_brute(self, g):
        m = max_antimatching(g, range(g.n))
        comp, labels = complement_subgraph(g, range(g.n))
        assert len(m) == brute_max_matching(comp)
        for u, v in m.edges:
            assert not g.has_edge(u, v)


class TestMad:
    def test_complete(self):
        assert mad_exact(complete(4)) == 3

    def test_tree(self):
        star = Graph.from_edges(6, [(0, i) for i in range(1, 6)])
        assert mad_exact(star) == Fraction(2 * 5, 6)
        path = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
        assert mad_exact(path) == Fraction(6, 4)

    def test_k24(self):
        g = Graph.from_edges(6, [(i, 2 + j) for i in range(2) for j in range(4)])
        assert mad_exact(g) == Fraction(8, 3)

    @given(graphs(max_n=8))
    @settings(max_examples=40, deadline=None)
    def test_vs_brute(self, g):
        brute = max(
            Fraction(2 * g.subgraph(sub).edge_count(), len(sub))
            for r in range(1, g.n + 1)
            for sub in itertools.combinations(range(g.n), r)
        )
        assert mad_exact(g) == brute
        assert mad_exact(g) >= average_degree(g)


# Every public entry that takes a vertex id or a vertex set, called on C5 with
# the id `bad` (2-color lists wherever lists are needed).
_L = uniform_lists(5, 2)
_TAKES_A_VERTEX = {
    "degree": lambda g, bad: degree(g, bad),
    "local_clique_number": lambda g, bad: local_clique_number(g, bad),
    "has_edge_tail": lambda g, bad: g.has_edge(bad, 0),
    "has_edge_head": lambda g, bad: g.has_edge(0, bad),
    "subgraph": lambda g, bad: g.subgraph([0, 1, bad]),
    "complement_edge_count": lambda g, bad: complement_edge_count(g, [0, bad]),
    "complement_subgraph": lambda g, bad: complement_subgraph(g, [bad, 2]),
    "max_antimatching": lambda g, bad: max_antimatching(g, [bad, 2]),
    "gap": lambda g, bad: gap(g, bad),
    "save": lambda g, bad: save(g, _L, bad),
    "profile": lambda g, bad: profile(g, _L, bad, Fraction(1, 50), Fraction(1, 50)),
    "is_proper_key": lambda g, bad: is_proper(g, _L, {bad: 0, 0: 1}),
    "KnmInstance_matching": lambda g, bad: KnmInstance(
        g.n, Matching.of([(bad, 2)]), uniform_lists(g.n, g.n)
    ),
}


@pytest.mark.parametrize("bad", [-1, 5])
@pytest.mark.parametrize("entry", list(_TAKES_A_VERTEX))
def test_a_bad_vertex_id_is_named_at_the_boundary(entry, bad):
    # GraphError is a ValueError; -1 must not alias vertex n - 1
    with pytest.raises(ValueError, match=rf"vertex {bad} out of range \[0, 5\)"):
        _TAKES_A_VERTEX[entry](cycle(5), bad)
