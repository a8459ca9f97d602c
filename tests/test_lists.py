import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from localcolor.graph import Graph
from localcolor.lists import (
    brute_force_L_colorable,
    f_choosable,
    gap,
    is_L_critical,
    is_proper,
    local_reed_list_sizes,
    make_lists,
    profile,
    save,
    uniform_lists,
)


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


class TestLocalReed:
    def test_complete(self):
        assert local_reed_list_sizes(complete(4)) == [4] * 4

    def test_cycle(self):
        assert local_reed_list_sizes(cycle(5)) == [3] * 5

    def test_c5_blowup(self):
        from localcolor.generators import gen_c5_blowup

        assert local_reed_list_sizes(gen_c5_blowup(2)) == [5] * 10


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


class TestChoosability:
    def test_k3(self):
        assert not f_choosable(complete(3), [2] * 3)
        assert f_choosable(complete(3), [3] * 3)

    def test_trees_2_choosable(self):
        for g in (path(5), Graph.from_edges(6, [(0, i) for i in range(1, 6)])):
            assert f_choosable(g, [2] * g.n)

    def test_k24(self):
        g = Graph.from_edges(6, [(i, 2 + j) for i in range(2) for j in range(4)])
        assert not f_choosable(g, [2] * 6)
        assert f_choosable(g, [3] * 6)

    def test_c5(self):
        assert not f_choosable(cycle(5), [2] * 5)
        assert f_choosable(cycle(5), [3] * 5)

    @pytest.mark.parametrize("n", [3, 4, 5])
    @pytest.mark.parametrize("k", [1, 2])
    def test_agrees_with_universal_brute_force(self, n, k):
        g = cycle(n)
        claim = f_choosable(g, [k] * g.n)
        # quantify over assignments from a universe of 2k colors; a bad
        # assignment, if one exists, survives relabeling into 2k colors
        # because each list meets at most k distinct colors of any witness
        universe = range(2 * k)
        found_bad = False
        for rows in itertools.product(itertools.combinations(universe, k), repeat=g.n):
            if not brute_force_L_colorable(g, make_lists(rows))[0]:
                found_bad = True
                break
        assert claim == (not found_bad)
