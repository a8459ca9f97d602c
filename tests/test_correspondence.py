import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exact import induced
from localcolor.graph import Graph
from localcolor.lists import make_lists, uniform_lists
from scalar_reference import (
    CorrespondenceAssignment,
    CorrespondenceError,
    identity_correspondence,
    is_lm_coloring,
    is_naive_partial,
    is_total,
    make_total,
    residual,
    splice,
    validate,
)


def path(n):
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


class TestIdentity:
    def test_partial_overlap(self):
        g = path(2)
        ca = identity_correspondence(g, make_lists([[1, 2], [2, 3]]))
        assert ca.pairs(0, 1) == frozenset({(2, 2)})

    def test_disjoint(self):
        g = path(2)
        ca = identity_correspondence(g, make_lists([[1, 2], [3, 4]]))
        assert ca.pairs(0, 1) == frozenset()

    def test_equal_lists(self):
        g = path(2)
        ca = identity_correspondence(g, uniform_lists(2, 3))
        assert len(ca.pairs(0, 1)) == 3

    def test_validation_rejects_nonmatching(self):
        g = path(2)
        ca = CorrespondenceAssignment(
            make_lists([[1, 2], [3, 4]]), {(0, 1): frozenset({(1, 3), (1, 4)})}
        )
        with pytest.raises(CorrespondenceError):
            validate(g, ca)


class TestMakeTotal:
    def test_spec_example(self):
        g = path(2)
        ca = make_total(g, identity_correspondence(g, make_lists([[1, 2], [2, 3]])))
        assert ca.pairs(0, 1) == frozenset({(2, 2), (1, 3)})
        assert is_total(g, ca)

    def test_already_total_unchanged(self):
        g = path(2)
        ca0 = make_total(g, identity_correspondence(g, uniform_lists(2, 2)))
        assert make_total(g, ca0) == ca0

    def test_one_sided(self):
        g = path(2)
        ca = make_total(
            g, CorrespondenceAssignment(make_lists([[5], [1, 2, 3]]), {(0, 1): frozenset()})
        )
        assert len(ca.pairs(0, 1)) == 1
        assert is_total(g, ca)

    def test_preserves_identity_pairs(self):
        g = path(3)
        L = make_lists([[0, 1], [1, 2, 3], [0, 3]])
        ca = make_total(g, identity_correspondence(g, L))
        for u, v in g.edges():
            common = {(c, c) for c in L[u] & L[v]}
            assert common <= set(ca.pairs(u, v))


class TestLmColoring:
    def test_identity_proper(self):
        g = path(3)
        ca = identity_correspondence(g, uniform_lists(3, 2))
        assert is_lm_coloring(g, ca, {0: 0, 1: 1, 2: 0})
        assert not is_lm_coloring(g, ca, {0: 0, 1: 0, 2: 1})

    def test_matched_pair_forbidden(self):
        g = path(2)
        ca = CorrespondenceAssignment(make_lists([[1], [2]]), {(0, 1): frozenset({(1, 2)})})
        assert not is_lm_coloring(g, ca, {0: 1, 1: 2})


class TestResidual:
    def test_all_uncolored(self):
        g = path(3)
        ca = make_total(g, identity_correspondence(g, uniform_lists(3, 2)))
        res = residual(g, ca, (0, 0, 0), frozenset(range(3)))
        assert res.vertices == (0, 1, 2)
        assert all(res.lists[v] == ca.lists[v] for v in range(3))

    def test_none_uncolored(self):
        g = path(2)
        ca = identity_correspondence(g, make_lists([[0, 1], [1, 2]]))
        res = residual(g, ca, (0, 1), frozenset())
        assert res.vertices == ()

    def test_star_center_colored(self):
        star = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
        L = make_lists([[5, 6], [5, 7], [6, 7], [8, 9]])
        ca = identity_correspondence(star, L)
        res = residual(star, ca, (5, 7, 7, 8), frozenset({1, 2, 3}))
        assert res.lists[1] == frozenset({7})  # loses the center's color
        assert res.lists[2] == frozenset({6, 7})
        assert res.lists[3] == frozenset({8, 9})

    def test_rejects_improper_partial(self):
        g = path(2)
        ca = identity_correspondence(g, uniform_lists(2, 2))
        with pytest.raises(CorrespondenceError):
            residual(g, ca, (0, 0), frozenset())


@st.composite
def random_instance(draw):
    n = draw(st.integers(2, 8))
    possible = list(itertools.combinations(range(n), 2))
    edges = draw(st.lists(st.sampled_from(possible), unique=True, min_size=1))
    g = Graph.from_edges(n, edges)
    rows = [
        draw(st.sets(st.integers(0, 5), min_size=2, max_size=4)) for _ in range(n)
    ]
    return g, make_lists([sorted(r) for r in rows]), draw(st.integers(0, 2**31))


class TestSpliceProperty:
    @given(random_instance())
    @settings(max_examples=50, deadline=None)
    def test_residual_coloring_splices_to_proper(self, inst):
        from scalar_reference import sample_naive

        g, L, seed = inst
        ca = make_total(g, identity_correspondence(g, L))
        rng = np.random.default_rng(seed)
        pc = sample_naive(g, ca, 0.7, rng)
        assert is_naive_partial(g, ca, pc.phi, pc.uncolored)
        res = residual(g, ca, pc.phi, pc.uncolored)
        # brute-force any coloring of the residual; if found, splice must be proper
        sub = induced(g, res.vertices)
        back = {i: v for i, v in enumerate(res.vertices)}
        completion = {}
        ok = True
        for i in range(sub.n):
            v = back[i]
            forbidden = set()
            for u in g.adj[v]:
                if u in completion:
                    forbidden.update(
                        cv for cv, cu in res.pairs(v, u) if cu == completion[u]
                    )
            avail = sorted(res.lists[v] - forbidden)
            if not avail:
                ok = False
                break
            completion[v] = avail[0]
        if ok:
            full = splice(g, ca, pc.phi, pc.uncolored, completion)
            assert is_lm_coloring(g, ca, full)
