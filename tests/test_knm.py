import itertools
import random
import time

import pytest

import exact
from exact import HypothesisError, KnmInstance, brute_force_L_colorable, color_knm, is_L_critical
from localcolor.graph import Graph, Matching, max_antimatching
from localcolor.knm import density_audit
from localcolor.lists import is_proper, make_lists, uniform_lists


def random_valid_instance(rng: random.Random, n_max=12) -> KnmInstance:
    """A K_n - M instance satisfying both list-size hypotheses."""
    n = rng.randint(2, n_max)
    verts = list(range(n))
    rng.shuffle(verts)
    m_size = rng.randint(0, n // 2)
    pairs = [(verts[2 * i], verts[2 * i + 1]) for i in range(m_size)]
    matched = {v for p in pairs for v in p}
    rows = []
    universe = list(range(n + 3))
    for v in range(n):
        if v in matched:
            lo = max(m_size, (n + 1) // 2)
        else:
            lo = n - m_size
        size = rng.randint(min(lo, n), n)
        rows.append(rng.sample(universe, size))
    return KnmInstance(n, Matching.of(pairs), make_lists(rows))


class TestColorKnm:
    def test_single_matched_pair(self):
        inst = KnmInstance(2, Matching.of([(0, 1)]), make_lists([[1], [1]]))
        assert color_knm(inst) == {0: 1, 1: 1}

    def test_disjoint_pair_sdr(self):
        inst = KnmInstance(
            3, Matching.of([(0, 1)]), make_lists([[1, 2], [3], [1, 3]])
        )
        c = color_knm(inst)
        g = inst.graph()
        assert is_proper(g, inst.lists, c)

    def test_hypothesis_violation(self):
        inst = KnmInstance(
            4, Matching.of([(0, 1), (2, 3)]), make_lists([[1], [1], [1], [1]])
        )
        assert inst.violated_hypotheses()
        with pytest.raises(HypothesisError):
            color_knm(inst)

    def test_shared_color_recursion(self):
        inst = KnmInstance(
            4,
            Matching.of([(0, 1), (2, 3)]),
            make_lists([[1, 2], [1, 3], [2, 4], [4, 5]]),
        )
        c = color_knm(inst)
        assert is_proper(inst.graph(), inst.lists, c)
        assert c[0] == c[1] or c[0] != c[1]  # proper either way on the non-edge

    def test_thousand_random_instances(self):
        rng = random.Random(20240817)
        t0 = time.time()
        for _ in range(1000):
            inst = random_valid_instance(rng)
            c = color_knm(inst)
            assert is_proper(inst.graph(), inst.lists, c)
        assert time.time() - t0 < 5.0

    def test_agrees_with_brute_force_existence(self):
        rng = random.Random(7)
        for _ in range(50):
            inst = random_valid_instance(rng, n_max=7)
            color_knm(inst)  # success expected
            ok, _ = brute_force_L_colorable(inst.graph(), inst.lists)
            assert ok

    @pytest.mark.parametrize(
        "sdr",
        [
            lambda vertices, lists: {v: 1 for v in vertices},  # one color on K3
            lambda vertices, lists: {v: 7 for v in vertices[:1]},  # partial, off the lists
            lambda vertices, lists: {},  # nothing colored
            lambda vertices, lists: dict(zip((0, 1, 3), (1, 2, 3))),  # a key outside K3
        ],
    )
    def test_a_solver_fault_is_caught(self, monkeypatch, sdr):
        monkeypatch.setattr(exact, "_distinct_representatives", sdr)
        with pytest.raises(RuntimeError, match="solver fault"):
            color_knm(KnmInstance(3, Matching.of([]), uniform_lists(3, 3)))


class TestDensityAudit:
    def test_k3_critical(self):
        g = Graph.from_edges(3, [(0, 1), (0, 2), (1, 2)])
        L = uniform_lists(3, 2)
        rec = density_audit(g, L, frozenset(range(3)), Matching.of([]))
        assert rec.lhs == 0 and rec.rhs == -3 and rec.holds

    def test_empty_subset(self):
        g = Graph.from_edges(3, [(0, 1)])
        rec = density_audit(g, uniform_lists(3, 1), frozenset(), Matching.of([]))
        assert rec.lhs == 0 and rec.rhs == 0 and rec.holds

    def test_c5_critical(self):
        g = Graph.from_edges(5, [(i, (i + 1) % 5) for i in range(5)])
        L = uniform_lists(5, 2)
        assert is_L_critical(g, L)
        m = max_antimatching(g, range(5))
        rec = density_audit(g, L, frozenset(range(5)), m)
        assert rec.lhs == 5 and rec.rhs == 2 * 3 - 5 and rec.holds

    def test_rejects_non_antimatching(self):
        g = Graph.from_edges(3, [(0, 1), (1, 2)])
        with pytest.raises(ValueError):
            density_audit(g, uniform_lists(3, 2), frozenset(range(3)), Matching.of([(0, 1)]))
