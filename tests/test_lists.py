import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exact import brute_force_L_colorable, is_L_critical, is_proper_walk
from localcolor.experiment import run_estimate
from localcolor.graph import Graph, GraphError, Matching
from localcolor.knm import density_audit
from localcolor.lists import (
    gap,
    is_proper,
    make_lists,
    profile,
    save,
    uniform_lists,
)
from localcolor.procedure import ProcedureParams, compile_lists, pipeline_color


def complete(n):
    return Graph.from_edges(n, itertools.combinations(range(n), 2))


def cycle(n):
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def path(n):
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


class TestGapSave:
    def test_gap(self):
        assert gap(complete(4), 0) == 0
        assert gap(cycle(5), 0) == 1

    def test_save(self):
        g = cycle(5)
        L = uniform_lists(5, 2)
        assert all(save(g, L, v) == 1 for v in range(5))

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError):
            make_lists([[]])


class TestProfile:
    A = Fraction(1, 50)
    B = Fraction(1, 50)

    @pytest.mark.parametrize("alpha, beta", [(0, B), (-A, B), (A, 0), (A, -B)])
    def test_alpha_or_beta_not_positive_is_named(self, alpha, beta):
        with pytest.raises(ValueError, match="^alpha and beta must be positive$"):
            profile(cycle(5), uniform_lists(5, 3), 0, Fraction(alpha), Fraction(beta))

    def test_equal_lists_strong_egal(self):
        g = cycle(5)
        L = uniform_lists(5, 3)
        p = profile(g, L, 0, self.A, self.B)
        assert p.strong_egal == frozenset({1, 4})
        assert not p.subservient and not p.lordlier and not p.weak_egal

    def test_smaller_list_subservient(self):
        g = path(2)
        L = make_lists([list(range(10)), list(range(9))])
        p = profile(g, L, 0, self.A, self.B)
        assert p.subservient == frozenset({1})

    def test_weak_egal_boundary(self):
        # center list 100, gap 50, beta=1/50: weak interval is [101, 102)
        star = Graph.from_edges(52, [(0, i) for i in range(1, 52)])
        rows = [list(range(100))] + [list(range(101))] + [list(range(100))] * 50
        L = make_lists(rows)
        assert gap(star, 0) == 50
        p = profile(star, L, 0, self.A, self.B)
        assert 1 in p.weak_egal
        # one more color reaches (1 + alpha)|L(v)| and flips to lordlier
        rows[1] = list(range(102))
        p = profile(star, make_lists(rows), 0, self.A, self.B)
        assert 1 in p.lordlier

    def test_empty_weak_interval_is_lordlier(self):
        # center list 50, gap 50: [51, 51) is empty, so 51 colors is lordlier
        star = Graph.from_edges(52, [(0, i) for i in range(1, 52)])
        rows = [list(range(50))] + [list(range(51))] + [list(range(50))] * 50
        p = profile(star, make_lists(rows), 0, self.A, self.B)
        assert 1 in p.lordlier and not p.weak_egal

    def test_classes_partition(self):
        g = cycle(5)
        L = make_lists([[0], [0, 1], [0, 1, 2], [0, 1, 2, 3], [0, 1, 2, 3, 4]])
        p = profile(g, L, 2, self.A, self.B)
        classes = p.subservient | p.strong_egal | p.weak_egal | p.lordlier
        assert classes == g.adj[2]


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
    "save": lambda g, L, tmp: save(g, L, 0),
    "profile": lambda g, L, tmp: profile(g, L, 0, Fraction(1, 50), Fraction(1, 50)),
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
