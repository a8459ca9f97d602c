import itertools
import sys
import tracemalloc

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exact import KnmInstance, clique_search, induced, rivin_triangle_bound, triangle_count
from localcolor import graph as graph_module
from localcolor.generators import gen_c5_blowup, gen_gnp
from localcolor.graph import (
    Graph,
    GraphError,
    Matching,
    average_degree,
    complement_edge_count,
    max_antimatching,
)
from localcolor.knm import density_audit
from localcolor.lists import is_proper, uniform_lists


def complete(n):
    return Graph.from_edges(n, itertools.combinations(range(n), 2))


def cycle(n):
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def edgeless(n):
    return Graph.from_edges(n, [])


def petersen():
    G = nx.petersen_graph()
    return Graph.from_edges(10, G.edges())


def max_clique(g):
    return max(g.clique_numbers)


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

    def test_edges_roundtrip(self):
        g = cycle(6)
        assert Graph.from_edges(6, g.edges()) == g

    def test_subgraph_relabels(self):
        g = induced(complete(5), [1, 3, 4])
        assert g.n == 3 and g.edge_count() == 3
        assert induced(cycle(5), [4, 0, 2]) == Graph.from_edges(3, [(0, 2)])

    def test_average_degree_of_the_empty_graph_is_named(self):
        with pytest.raises(GraphError, match="average degree of the empty graph is undefined"):
            average_degree(edgeless(0))


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
        # another type is never equal, and comparing with it does not raise
        assert (a == 1) is False and a != "a"

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

    @pytest.mark.parametrize("n", [3_037_000_500, 2**63, 10**23])
    def test_from_edges_rejects_a_vertex_count_whose_edge_keys_overflow(self, n):
        # isqrt(2**63 - 1) is the most; checked before anything of size n is made
        with pytest.raises(GraphError, match=f"^{n} vertices: more than 3037000499, "):
            Graph.from_edges(n, [(0, 1)])

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
        assert complete(4).clique_numbers == (4, 4, 4, 4)

    def test_k4_minus_edge(self):
        g = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
        assert g.clique_numbers[2] == 3
        assert max_clique(g) == 3

    def test_cycle_triangle_free(self):
        assert cycle(5).clique_numbers == (2,) * 5

    def test_petersen(self):
        assert max_clique(petersen()) == 2

    def test_single_vertex(self):
        assert max_clique(edgeless(1)) == 1

    @given(graphs(max_n=8))
    @settings(max_examples=60, deadline=None)
    def test_local_vs_global_vs_brute(self, g):
        best = 1
        for r in range(1, g.n + 1):
            for sub in itertools.combinations(range(g.n), r):
                if all(g.has_edge(u, v) for u, v in itertools.combinations(sub, 2)):
                    best = max(best, r)
        assert max_clique(g) == best
        assert all(w <= best for w in g.clique_numbers)

    @given(graphs(max_n=9))
    @settings(max_examples=80, deadline=None)
    def test_every_vertex_against_brute_force(self, g):
        def is_clique(sub):
            return all(g.has_edge(u, w) for u, w in itertools.combinations(sub, 2))

        for v in range(g.n):
            others = [u for u in range(g.n) if u != v]
            best = max(
                1 + r
                for r in range(g.n)
                for sub in itertools.combinations(others, r)
                if is_clique((v, *sub))
            )
            assert g.clique_numbers[v] == best

    @pytest.mark.parametrize("t", [1, 2, 3, 5])
    def test_c5_blowup(self, t):
        g = gen_c5_blowup(t)
        assert g.clique_numbers == (2 * t,) * g.n

    @pytest.mark.parametrize("m", [1, 2, 3, 6])
    def test_complete_minus_a_perfect_matching(self, m):
        n = 2 * m
        g = Graph.from_edges(
            n, [(u, v) for u, v in itertools.combinations(range(n), 2) if v != u + m]
        )
        assert g.clique_numbers == (m,) * n

    def test_no_recursion_limit(self):
        # 100 frames above this test's own depth; a search that recursed once
        # per clique vertex would need 300
        g = complete(300)
        depth, frame = 0, sys._getframe()
        while frame is not None:
            depth, frame = depth + 1, frame.f_back
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(depth + 100)
        try:
            assert g.clique_numbers[0] == 300
        finally:
            sys.setrecursionlimit(limit)


class TestCliquePass:
    """ω of every vertex comes from one branch and bound pass (`_clique_pass`)
    per Graph object, cached as `Graph.clique_numbers`."""

    @given(st.integers(0, 40), st.floats(0, 1), st.integers(0, 2**32))
    @settings(max_examples=150, deadline=None)
    def test_every_vertex_against_the_search(self, n, p, seed):
        g = gen_gnp(n, p, seed)
        assert list(g.clique_numbers) == [clique_search(g, v) for v in range(n)]

    def test_one_pass_per_graph_object(self, monkeypatch):
        calls = []
        clique_pass = graph_module._clique_pass

        def counted(g):
            calls.append(g)
            return clique_pass(g)

        monkeypatch.setattr(graph_module, "_clique_pass", counted)
        g = gen_gnp(30, 1 / 2, 1)
        assert [g.clique_numbers[v] for v in range(g.n)] == list(g.clique_numbers)
        assert len(calls) == 1
        twin = Graph(g.n, g.ptr, g.nbr)
        assert twin == g
        assert twin.clique_numbers == g.clique_numbers
        assert len(calls) == 2

    def test_the_pass_does_not_hold_the_cliques(self):
        # 16,687 maximal cliques; held in a list they peak above twice
        # what the whole pass does, its networkx graph included
        g = gen_gnp(100, 1 / 2, 2)
        h = nx.empty_graph(g.n)
        h.add_edges_from(g.edges())
        peaks = []
        for run in (lambda: g.clique_numbers, lambda: list(nx.find_cliques(h))):
            tracemalloc.start()
            try:
                run()
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert 2 * peaks[0] < peaks[1]


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

    @pytest.mark.parametrize("pair", [(1, 0), (2, 2)])
    def test_matching_pair_must_be_ordered(self, pair):
        with pytest.raises(GraphError, match=rf"^matching pair \({pair[0]},{pair[1]}\) must be"):
            Matching(frozenset({pair}))

    @given(graphs(max_n=8), st.data())
    @settings(max_examples=40, deadline=None)
    def test_maximum_vs_brute(self, g, data):
        subset = data.draw(st.sets(st.integers(0, g.n - 1)))
        for s in (set(range(g.n)), subset):
            m = max_antimatching(g, s)
            # the complement of g[s], on all of g's ids; the rest are isolated
            non_edges = [(u, v) for u, v in itertools.combinations(sorted(s), 2)
                         if not g.has_edge(u, v)]
            assert len(m) == brute_max_matching(Graph.from_edges(g.n, non_edges))
            for u, v in m.edges:
                assert u in s and v in s and not g.has_edge(u, v)

    @given(st.integers(0, 40), st.floats(0, 1), st.integers(0, 2**32), st.data())
    @settings(max_examples=150, deadline=None)
    def test_maximum_vs_networkx(self, n, p, seed, data):
        g = gen_gnp(n, p, seed)
        s = data.draw(st.sets(st.integers(0, n - 1))) if n else set()
        whole = nx.empty_graph(n)
        whole.add_edges_from(g.edges())
        h = nx.complement(whole.subgraph(s))
        m = max_antimatching(g, s)
        assert len(m) == len(nx.max_weight_matching(h, maxcardinality=True))
        ends = [x for pair in m.edges for x in pair]
        assert len(ends) == len(set(ends))
        for u, v in m.edges:
            assert u in s and v in s and not g.has_edge(u, v)

    def test_nested_blossoms_without_recursion(self):
        # The complement is two ladders, each of rungs (a_i, b_i), i = 1..100,
        # crossings b_(i-1) -- a_i and a_(i-1) -- b_i, and a triangle of its
        # first rung with a free vertex; their last a's are joined.  The rungs
        # are matched first; then the one augmenting path, between the free
        # vertices, runs through 100 odd cycles on each side, each contracted
        # around the one before it, and leaves the first ladder from a_100,
        # which only the last contraction makes reachable.  100 frames above
        # this test's own depth; a matching that recursed once per blossom or
        # per path edge (403 of them) would need more.
        m = 100

        def ladder(first, free):  # rungs (first + 2i, first + 2i + 1)
            rungs = [(first + 2 * i, first + 2 * i + 1) for i in range(m)]
            edges = set(rungs) | {(rungs[0][0], free), (rungs[0][1], free)}
            for (a0, b0), (a1, b1) in zip(rungs, rungs[1:]):
                edges |= {(b0, a1), (a0, b1)}
            return edges, rungs[-1][0]

        (left, a), (right, b) = ladder(0, 4 * m), ladder(2 * m, 4 * m + 1)
        h = left | right | {(a, b)}
        g = Graph.from_edges(4 * m + 2, set(itertools.combinations(range(4 * m + 2), 2)) - h)
        depth, frame = 0, sys._getframe()
        while frame is not None:
            depth, frame = depth + 1, frame.f_back
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(depth + 100)
        try:
            matching = max_antimatching(g, range(g.n))
        finally:
            sys.setrecursionlimit(limit)
        assert len(matching) == 2 * m + 1
        assert all(pair in h for pair in matching.edges)


# Every public entry that takes a vertex id or a vertex set, called on C5 with
# the id `bad` (2-color lists wherever lists are needed).
_L = uniform_lists(5, 2)
_TAKES_A_VERTEX = {
    "has_edge_tail": lambda g, bad: g.has_edge(bad, 0),
    "has_edge_head": lambda g, bad: g.has_edge(0, bad),
    "complement_edge_count": lambda g, bad: complement_edge_count(g, [0, bad]),
    "max_antimatching": lambda g, bad: max_antimatching(g, [bad, 2]),
    "density_audit": lambda g, bad: density_audit(g, _L, [0, bad], Matching.of([])),
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
