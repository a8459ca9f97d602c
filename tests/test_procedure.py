import dataclasses
import hashlib
import itertools
import math
import os
import random
import re
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from localcolor import correspondence, experiment, procedure
from localcolor.correspondence import (
    CorrespondenceAssignment,
    identity_correspondence,
    is_lm_coloring,
    make_total,
)
from localcolor.generators import gen_gnp
from localcolor.graph import Graph
from localcolor.lists import make_lists, uniform_lists
from localcolor.experiment import run_estimate
from localcolor.procedure import (
    FLIP_BLOCK,
    CompiledInstance,
    PreconditionError,
    ProcedureParams,
    batch_draws,
    check_equalization_precondition,
    compile_instance,
    compile_lists,
    default_rho,
    draw_trials,
    greedy_complete,
    keep_constant,
    keep_frequency,
    keep_probability,
    keep_table,
    pipeline_color,
    settle_trials,
)
from scalar_reference import (
    PartialColoring,
    _uncolored_naive,
    complete_reference,
    list_size_order,
    residual,
    sample_equalized,
    sample_naive,
    savings_of,
)
from stacked import stack_trials, stacked_batch


def path(n):
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def star(leaves):
    return Graph.from_edges(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def rng_of(seed):
    return np.random.default_rng(np.random.Philox(seed))


@pytest.fixture
def correspondence_calls(monkeypatch):
    """Names of the CorrespondenceAssignment.pairs, identity_correspondence and
    make_total calls made from here on, whichever module looks them up."""
    calls = []
    pairs = CorrespondenceAssignment.pairs

    def counted(self, u, v):
        calls.append("pairs")
        return pairs(self, u, v)

    monkeypatch.setattr(CorrespondenceAssignment, "pairs", counted)
    for module in (correspondence, experiment, procedure):
        for name in ("identity_correspondence", "make_total"):
            monkeypatch.setattr(
                module, name, lambda *a, name=name: calls.append(name), raising=False
            )
    return calls


@pytest.fixture
def evaluator_calls(monkeypatch):
    """Names of the evaluator calls made from here on, whichever module looks
    them up: the row evaluator uncolored_trials and savings_rows (with its
    _pairs_trips), and settle_trials."""
    calls = []
    names = ("uncolored_trials", "savings_rows", "_pairs_trips", "settle_trials")
    for module in (procedure, experiment):
        for name in names:
            if not hasattr(module, name):
                continue

            def counted(*args, name=name, real=getattr(module, name), **kwargs):
                calls.append(name)
                return real(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)
    return calls


class TestKeepConstant:
    def test_rho_zero(self):
        assert keep_constant(0, 0) == 0

    def test_eps_zero_rho_one(self):
        assert keep_constant(0, 1) == pytest.approx(0.999 / math.e, abs=1e-5)

    def test_defaults(self):
        rho = default_rho(Fraction(1, 50))
        assert rho == pytest.approx(1 - 1 / (51 * math.e), abs=1e-12)
        assert keep_constant(Fraction(1, 330), rho) == pytest.approx(0.3664, abs=1e-4)

    def test_domain(self):
        with pytest.raises(ValueError):
            keep_constant(1, 0.5)
        with pytest.raises(ValueError):
            keep_constant(0, 2)


class TestKeepProbability:
    def test_isolated(self):
        g = Graph.from_edges(1, [])
        ca = identity_correspondence(g, make_lists([[0]]))
        assert keep_probability(g, ca, 0.7, 0, 0) == 0.7

    def test_single_edge_shared(self):
        g = path(2)
        ca = identity_correspondence(g, uniform_lists(2, 2))
        assert keep_probability(g, ca, 1.0, 0, 0) == pytest.approx(0.5)

    def test_unmatched_color(self):
        g = path(2)
        ca = identity_correspondence(g, make_lists([[0, 1], [2, 3]]))
        assert keep_probability(g, ca, 0.6, 0, 0) == 0.6

    def test_color_not_in_list(self):
        g = path(2)
        ca = identity_correspondence(g, uniform_lists(2, 2))
        with pytest.raises(ValueError):
            keep_probability(g, ca, 0.5, 0, 9)

    def test_subservient_neighbor_no_threat(self):
        g = path(2)
        ca = identity_correspondence(g, make_lists([[0, 1, 2], [0, 1]]))
        # neighbor's list is smaller, so it never uncolors vertex 0
        assert keep_probability(g, ca, 1.0, 0, 0) == 1.0

    def test_matches_empirical(self):
        g = path(3)
        ca = make_total(g, identity_correspondence(g, uniform_lists(3, 3)))
        rho = 0.8
        exact = keep_probability(g, ca, rho, 1, 0)
        trials = 200_000
        batch = stacked_batch(
            compile_instance(g, ca), ProcedureParams(rho=rho), trials, 5,
            equalize=False,
        )
        sel = batch.phi_idx[1] == 0
        emp = (~batch.uncolored[1])[sel].mean()
        se = math.sqrt(exact * (1 - exact) / sel.sum())
        assert abs(emp - exact) <= 3 * se


class TestSampleNaive:
    def test_rho_zero(self):
        g = path(3)
        ca = identity_correspondence(g, uniform_lists(3, 2))
        pc = sample_naive(g, ca, 0.0, rng_of(1))
        assert pc.uncolored == frozenset(range(3)) and not pc.activated

    def test_rho_one_empty_matchings(self):
        g = path(3)
        ca = CorrespondenceAssignment(
            uniform_lists(3, 2), {(0, 1): frozenset(), (1, 2): frozenset()}
        )
        pc = sample_naive(g, ca, 1.0, rng_of(2))
        assert pc.uncolored == frozenset()

    def test_single_edge_conflict_rate(self):
        g = path(2)
        ca = identity_correspondence(g, uniform_lists(2, 3))
        trials = 100_000
        batch = stacked_batch(
            compile_instance(g, ca), ProcedureParams(rho=1.0), trials, 11,
            equalize=False,
        )
        freq = batch.uncolored[0].mean()
        se = math.sqrt((1 / 3) * (2 / 3) / trials)
        assert abs(freq - 1 / 3) <= 3 * se


class TestSampleEqualized:
    def test_precondition_failure_names_offender(self):
        # 2-color lists on K4 are too short for (1 - eps) d(v)
        g = Graph.from_edges(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
        ca = identity_correspondence(g, uniform_lists(4, 2))
        want = "vertex 0: |L(v)| = 2 < (1 - eps) d(v)"
        with pytest.raises(PreconditionError, match=f"^{re.escape(want)}$"):
            sample_equalized(g, ca, ProcedureParams(), rng_of(0))
        # and at the center of a star, vertex 1, only
        g = Graph.from_edges(4, [(1, 0), (1, 2), (1, 3)])
        ca = identity_correspondence(g, make_lists([[0], [0, 1], [0], [0]]))
        want = "vertex 1: |L(v)| = 2 < (1 - eps) d(v)"
        with pytest.raises(PreconditionError, match=f"^{re.escape(want)}$"):
            sample_equalized(g, ca, ProcedureParams(), rng_of(0))
        # the first keep probability below K is not at vertex 0: two isolated
        # vertices, then a star whose three leaves share two colors with its
        # center, so the first shared one is the offender.  With leaves
        # [11, 12, 15] it is at color index 1; with [10, 11, 15] at index 0,
        # the first entry of vertex 2 in the flat table.
        g = Graph.from_edges(6, [(2, 3), (2, 4), (2, 5)])
        params = ProcedureParams()
        for leaf, c in (([11, 12, 15], 11), ([10, 11, 15], 10)):
            ca = identity_correspondence(g, make_lists([[0], [0], [10, 11, 12]] + [leaf] * 3))
            p = keep_probability(g, ca, params.rho, 2, c)
            want = f"keep probability {p:.6f} of vertex 2, color {c} "
            want += f"is below K = {params.keep:.6f}"
            with pytest.raises(PreconditionError, match=f"^{re.escape(want)}$"):
                sample_equalized(g, ca, params, rng_of(0))

    @pytest.mark.parametrize(
        "eps", [Fraction(1, 10**30), Fraction(1, 3), Fraction(1, 4), Fraction(2, 7)]
    )
    def test_list_size_check_is_exact(self, eps):
        # the center of a star of d leaves, with lists around (1 - eps) d,
        # some exactly (1 - eps) d long; at rho = 0 every keep probability and
        # K are 0, so only the list-size check can fail
        params = ProcedureParams(eps=eps, rho=0.0)
        for d in range(1, 15):
            for size in range(max(1, d - 3), d + 2):
                inst = compile_lists(star(d), make_lists([range(size)] + [[0]] * d))
                if Fraction(size) < (1 - eps) * d:
                    want = f"vertex 0: |L(v)| = {size} < (1 - eps) d(v)"
                    with pytest.raises(PreconditionError, match=f"^{re.escape(want)}$"):
                        check_equalization_precondition(inst, params)
                else:
                    check_equalization_precondition(inst, params)

    def test_isolated_keep_rate_is_k(self):
        g = Graph.from_edges(2, [])
        ca = identity_correspondence(g, uniform_lists(2, 2))
        params = ProcedureParams(rho=1.0)
        k = params.keep
        trials = 100_000
        batch = stacked_batch(compile_instance(g, ca), params, trials, 3)
        freq = (~batch.uncolored[0]).mean()
        se = math.sqrt(k * (1 - k) / trials)
        assert abs(freq - k) <= 3 * se

    def test_rho_zero_all_uncolored(self):
        g = Graph.from_edges(2, [])
        ca = identity_correspondence(g, uniform_lists(2, 2))
        pc = sample_equalized(g, ca, ProcedureParams(rho=0.0), rng_of(4))
        assert pc.uncolored == frozenset({0, 1})

    def test_conditional_keep_rate_is_k(self):
        g = star(3)
        L = make_lists([[0, 1, 2, 3]] + [[0, 1, 2, 3, 4]] * 3)
        inst = compile_lists(g, L)
        params = ProcedureParams()
        batch = stacked_batch(inst, params, 100_000, 9)
        k = params.keep
        for c, (freq, m) in keep_frequency(batch.phi_idx, batch.uncolored, inst, 0).items():
            se = math.sqrt(k * (1 - k) / m)
            assert abs(freq - k) <= 4 * se


class TestSavings:
    def params(self):
        return ProcedureParams()

    def make_pc(self, g, phi, uncolored, activated):
        return PartialColoring(tuple(phi), frozenset(uncolored), frozenset(activated))

    def test_all_uncolored_only_unact(self):
        g = star(3)
        L = make_lists([[0, 1, 2, 3]] + [[0, 1]] * 3)
        ca = identity_correspondence(g, L)
        pc = self.make_pc(g, (0, 0, 0, 0), range(4), [])
        s = savings_of(g, ca, self.params(), list_size_order(L), pc)
        assert s.aberrance == (0, 0, 0, 0)
        assert s.pairs == (0, 0, 0, 0) and s.trips == (0, 0, 0, 0)
        assert s.unact[0] == 3  # three non-activated subservient leaves

    def test_pair_of_matched_leaves(self):
        g = star(2)
        L = uniform_lists(3, 2)
        ca = identity_correspondence(g, L)
        pc = self.make_pc(g, (0, 1, 1), {0}, {1, 2})
        s = savings_of(g, ca, self.params(), list_size_order(L), pc)
        assert s.pairs[0] == 1 and s.trips[0] == 0

    def test_three_matched_leaves(self):
        g = star(3)
        L = uniform_lists(4, 2)
        ca = identity_correspondence(g, L)
        pc = self.make_pc(g, (0, 1, 1, 1), {0}, {1, 2, 3})
        s = savings_of(g, ca, self.params(), list_size_order(L), pc)
        assert s.pairs[0] == 3 and s.trips[0] == 1

    def test_aberrance_counts_unmatched_colors(self):
        g = star(2)
        L = make_lists([[0, 1], [0, 5], [1, 6]])
        ca = identity_correspondence(g, L)
        pc = self.make_pc(g, (0, 5, 6), {0}, {1, 2})
        s = savings_of(g, ca, self.params(), list_size_order(L), pc)
        assert s.aberrance[0] == 2

    def test_savings_identity(self):
        g = star(3)
        ca = make_total(g, identity_correspondence(g, uniform_lists(4, 4)))
        pc = sample_equalized(g, ca, self.params(), rng_of(42))
        s = savings_of(g, ca, self.params(), list_size_order(ca.lists), pc)
        for v in range(4):
            assert s.savings[v] == s.aberrance[v] + s.unact[v] + s.pairs[v] - s.trips[v]


class TestUnactExpectation:
    @pytest.mark.parametrize("rho", [0.0, 0.3, float(1 - 1 / (51 * math.e)), 1.0])
    def test_star_with_subservient_leaves(self, rho):
        g = star(3)
        L = make_lists([[0, 1, 2, 3]] + [[0, 1]] * 3)
        trials = 50_000
        batch = stacked_batch(
            compile_lists(g, L), ProcedureParams(rho=rho), trials, 21,
            equalize=False,
        )
        mean = batch.unact[0].mean()
        expect = (1 - rho) * 3
        var = batch.unact[0].var(ddof=1)
        se = math.sqrt(var / trials) if var > 0 else 0.0
        assert abs(mean - expect) <= max(3 * se, 1e-12)


class TestPipeline:
    def test_generous_lists_first_round(self):
        g = star(4)
        L = make_lists([list(range(len(g.adj[v]) + 1)) for v in range(g.n)])
        report = pipeline_color(g, L, ProcedureParams(), 20, rng_of(0))
        assert report.succeeded
        ca = identity_correspondence(g, L)
        assert is_lm_coloring(g, ca, report.coloring)

    def test_c5_three_lists(self):
        g = Graph.from_edges(5, [(i, (i + 1) % 5) for i in range(5)])
        L = uniform_lists(5, 3)
        report = pipeline_color(g, L, ProcedureParams(), 50, rng_of(3))
        assert report.succeeded
        assert is_lm_coloring(g, identity_correspondence(g, L), report.coloring)

    def test_precondition(self):
        g = Graph.from_edges(6, [(i, j) for i in range(6) for j in range(i + 1, 6)])
        with pytest.raises(PreconditionError):
            pipeline_color(g, uniform_lists(6, 2), ProcedureParams(), 5, rng_of(0))

    def test_failure_report(self):
        # equal 3-lists on K4 pass the list-size precondition but keep
        # probabilities fall below K, so equalization refuses the instance
        g = Graph.from_edges(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
        with pytest.raises(PreconditionError):
            pipeline_color(g, uniform_lists(4, 3), ProcedureParams(), 5, rng_of(0))

    def test_determinism(self):
        g = star(4)
        L = make_lists([list(range(len(g.adj[v]) + 1)) for v in range(g.n)])
        r1 = pipeline_color(g, L, ProcedureParams(), 20, rng_of(77))
        r2 = pipeline_color(g, L, ProcedureParams(), 20, rng_of(77))
        assert r1 == r2

    def test_lists_of_64_or_more_colors(self):
        g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        L = make_lists([range(64), range(70), range(5, 70), range(66)])
        report = pipeline_color(g, L, ProcedureParams(), 20, rng_of(8))
        assert report.succeeded
        assert is_lm_coloring(g, make_total(g, identity_correspondence(g, L)), report.coloring)

    @pytest.mark.parametrize("rounds", [0, -2])
    def test_round_budget_below_one_is_named(self, rounds):
        g = star(4)
        L = make_lists([list(range(len(g.adj[v]) + 1)) for v in range(g.n)])
        with pytest.raises(ValueError, match=f"got {rounds}"):
            pipeline_color(g, L, ProcedureParams(), rounds, rng_of(0))

    def test_builds_no_correspondence_assignment(self, correspondence_calls):
        # lists compile straight to index arrays and the coloring is checked
        # on the lists, so no frozenset pair is built or walked
        g = gen_gnp(40, 0.2, 2)
        L = make_lists([list(range(len(g.adj[v]) + 1)) for v in range(g.n)])
        report = pipeline_color(g, L, ProcedureParams(), 20, rng_of(5))
        assert report.succeeded
        assert correspondence_calls == []

    def test_settles_without_the_savings_components(self, evaluator_calls):
        # the savings check reads uncolored, unact and save_drop only
        g = gen_gnp(40, 0.2, 2)
        L = make_lists([list(range(len(g.adj[v]) + 1)) for v in range(g.n)])
        report = pipeline_color(g, L, ProcedureParams(), 20, rng_of(5))
        assert report.succeeded
        assert evaluator_calls == ["settle_trials"] * report.rounds_used

    def test_blocked_completion_is_a_fault(self, monkeypatch):
        # the savings check guarantees greedy completion, so a block must surface
        monkeypatch.setattr(procedure, "greedy_complete", lambda inst, phi_idx, unc: (None, 3))
        g = star(4)
        L = make_lists([list(range(len(g.adj[v]) + 1)) for v in range(g.n)])
        with pytest.raises(RuntimeError, match="vertex 3"):
            pipeline_color(g, L, ProcedureParams(), 20, rng_of(0))


class TestDeterminism:
    def test_batches_reproduce(self):
        g = star(5)
        inst = compile_lists(g, uniform_lists(6, 6))
        params = ProcedureParams()
        b1 = stacked_batch(inst, params, 500, 123)
        b2 = stacked_batch(inst, params, 500, 123)
        assert (b1.phi_idx == b2.phi_idx).all()
        assert (b1.uncolored == b2.uncolored).all()

    def test_estimate_builds_no_correspondence_assignment(self, correspondence_calls, tmp_path):
        g = gen_gnp(40, 0.2, 2)
        L = make_lists([list(range(len(g.adj[v]) + 1)) for v in range(g.n)])
        run_estimate(g, L, {}, 50, 0, tmp_path, {})
        assert correspondence_calls == []

    def test_estimate_computes_no_save_drop(self, evaluator_calls, tmp_path):
        # estimate reduces each vertex's savings rows as they arrive: it runs
        # the row evaluator once and computes no save_drop
        g = gen_gnp(40, 0.2, 2)
        L = make_lists([list(range(len(g.adj[v]) + 1)) for v in range(g.n)])
        run_estimate(g, L, {}, 50, 0, tmp_path, {})
        # 50 trials are one chunk: one _pairs_trips call per vertex
        assert evaluator_calls == ["uncolored_trials", "savings_rows"] + ["_pairs_trips"] * g.n

    @pytest.mark.parametrize("trials", [0, 1])
    def test_fewer_than_two_trials_is_named(self, trials, tmp_path):
        with pytest.raises(ValueError, match=f"trials={trials}"):
            run_estimate(star(5), uniform_lists(6, 6), {}, trials, 0, tmp_path / "out", {})
        assert not (tmp_path / "out").exists()


def gnm(n, m, seed):
    """A uniform graph with n vertices and exactly m edges."""
    pairs = list(itertools.combinations(range(n), 2))
    return Graph.from_edges(n, random.Random(seed).sample(pairs, m))


def _estimate_instance():
    """G(12, 1/3) plus the isolated vertex 12; vertices 0-3 have lists of 64 or
    more colors, the others deg + 1 + (0 to 2) colors."""
    g = gen_gnp(12, 1 / 3, 5)
    g = Graph.from_edges(13, g.edges())
    rng = random.Random(5)
    rows = [range(64 + v) for v in range(4)]
    rows += [range(len(g.adj[v]) + 1 + rng.randint(0, 2)) for v in range(4, 13)]
    return g, make_lists(rows)


class TestEstimateRows:
    @pytest.mark.parametrize("trials", [2, 1023, 1024, 1025, 2500])
    @pytest.mark.parametrize("sigma", [Fraction(0), Fraction(1, 4)])
    def test_equal_the_batch_formula(self, trials, sigma):
        # the rows reduced one vertex at a time equal, bit for bit, the means
        # and standard errors taken over axis 1 of the stacked batch
        g, L = _estimate_instance()
        params = ProcedureParams(sigma=sigma)
        batch = stacked_batch(compile_lists(g, L), params, trials, 17)

        def mean_se(x):
            return x.mean(axis=1), np.sqrt(x.var(axis=1, ddof=1) / trials)

        (ab, ab_se), (pa, pa_se), (tr, tr_se), (un, un_se) = (
            mean_se(x) for x in (batch.aberrance, batch.pairs, batch.trips, batch.unact)
        )
        want = []
        for v in range(g.n):
            want += [
                [v, "aberrance", ab[v], ab_se[v]],
                [v, "pairs_minus_trips", pa[v] - tr[v], math.hypot(pa_se[v], tr_se[v])],
                [v, "unact", un[v], un_se[v]],
            ]
        want = [[v, name, repr(float(m)), repr(float(se))] for v, name, m, se in want]
        got = [row[:4] for row in experiment._estimate_rows(g, L, params, trials, 17)]
        assert got == want
        # the isolated vertex saves nothing
        names = ("aberrance", "pairs_minus_trips", "unact")
        assert got[-3:] == [[12, name, "0.0", "0.0"] for name in names]

    def test_memory_per_trial_cell(self, tmp_path):
        # estimate holds the draws (10 bytes per (vertex, trial) cell) and the
        # uncolored mask (1 byte); a batch of savings would add 32 more
        g = gnm(100, 495, 3)
        L = make_lists([range(len(g.adj[v]) + 1) for v in range(g.n)])
        trials = 20_000
        tracemalloc.start()
        try:
            run_estimate(g, L, {}, trials, 0, tmp_path, {})
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / (g.n * trials) <= 16


class TestDrawTrials:
    @pytest.mark.parametrize("trials", [1, 7, FLIP_BLOCK // 3 + 1])
    @pytest.mark.parametrize("rho", [0.0, 0.9])
    @pytest.mark.parametrize("equalize", [True, False])
    def test_flip_blocks_equal_one_array_draw(self, trials, rho, equalize):
        # at the largest width each flip block holds two rows of five
        g = Graph.from_edges(5, [(0, 1), (1, 2), (2, 0), (0, 3)])
        L = make_lists([range(3), range(66), range(2, 6), range(64), range(1)])
        inst = compile_lists(g, L)
        params = ProcedureParams(rho=rho)
        table = keep_table(inst, rho) if equalize else None
        ours = rng_of(31)
        got = draw_trials(inst, params, table, trials, ours)
        rng = rng_of(31)
        act = rng.random((5, trials)) < rho
        phi_idx = np.stack([rng.integers(size, size=trials) for size in inst.sizes.tolist()])
        heads = np.zeros((5, trials), dtype=bool)
        if equalize:
            pflip = np.where(table > 0, 1 - params.keep / np.where(table > 0, table, 1.0), 0.0)
            heads = rng.random((5, trials)) < pflip[inst.start[:-1, None] + phi_idx]
        for a, b in zip(got, (act, phi_idx, heads)):
            assert a.dtype == b.dtype and np.array_equal(a, b)
        if equalize and rho and trials > 1:
            assert heads.any() and not heads.all()
        # both took the same doubles from the stream
        assert ours.random(3).tolist() == rng.random(3).tolist()


@st.composite
def sampler_instance(draw):
    """A small graph with random partial matchings completed by make_total;
    some lists have 64 or more colors."""
    n = draw(st.integers(1, 7))
    possible = list(itertools.combinations(range(n), 2))
    edges = draw(st.lists(st.sampled_from(possible), unique=True)) if possible else []
    g = Graph.from_edges(n, edges)
    rows = []
    for _ in range(n):
        size = draw(st.one_of(st.integers(1, 4), st.integers(64, 67)))
        start = draw(st.integers(0, 3))
        rows.append(range(start, start + size))
    L = make_lists(rows)
    matchings = {}
    for u, v in g.edges():
        cu = draw(st.permutations(sorted(L[u])))
        cv = draw(st.permutations(sorted(L[v])))
        k = draw(st.integers(0, min(len(cu), len(cv))))
        matchings[(u, v)] = frozenset(zip(cu[:k], cv[:k]))
    ca = make_total(g, CorrespondenceAssignment(L, matchings))
    # at sigma = 1/3 a 2-list is egalitarian to a 3-list exactly at the threshold
    sigmas = [Fraction(0), Fraction(1, 4), Fraction(1, 3), Fraction(1, 10**30)]
    params = ProcedureParams(
        sigma=draw(st.sampled_from(sigmas)),
        rho=draw(st.sampled_from([0.0, 0.5, 0.9, 1.0])),
    )
    return g, ca, params, draw(st.booleans()), draw(st.integers(0, 2**32 - 1))


def _edgeless_case():
    g = Graph.from_edges(4, [])
    ca = CorrespondenceAssignment(make_lists([range(2), range(65), range(1), range(3, 70)]), {})
    return g, ca, ProcedureParams(rho=0.9), True, 1


def _isolated_vertex_case():
    """A triangle with one permuted matching, and vertex 3 on its own."""
    g = Graph.from_edges(4, [(0, 1), (1, 2), (0, 2)])
    L = make_lists([range(3), range(66), range(2, 5), range(64)])
    matchings = {(0, 1): frozenset({(0, 5), (2, 0)}), (1, 2): frozenset(), (0, 2): frozenset()}
    ca = make_total(g, CorrespondenceAssignment(L, matchings))
    return g, ca, ProcedureParams(sigma=Fraction(1, 4), rho=0.9), True, 2


# color ids: dense, wide enough for lists of 64 or more, and sparse with
# several at 2**63 or more
PALETTES = (
    tuple(range(8)),
    tuple(range(80)),
    (0, 3, 2**40) + tuple(2**63 + 7 * i for i in range(80)),
)


@st.composite
def list_instance(draw):
    """A small graph, often with isolated vertices or no edges, and lists that
    are all equal, pairwise disjoint or drawn at random from one palette;
    some lists have 64 or more colors."""
    n = draw(st.integers(1, 7))
    possible = list(itertools.combinations(range(n), 2))
    edges = draw(st.lists(st.sampled_from(possible), unique=True)) if possible else []
    g = Graph.from_edges(n, edges)
    palette = draw(st.sampled_from(PALETTES))
    sizes = [
        min(len(palette), draw(st.one_of(st.integers(1, 4), st.integers(64, 67))))
        for _ in range(n)
    ]
    kind = draw(st.sampled_from(["equal", "disjoint", "random"]))
    if kind == "equal":
        rows = [palette[: sizes[0]]] * n
    elif kind == "disjoint":
        rows = [[c * n + v for c in palette[:k]] for v, k in enumerate(sizes)]
    else:
        rows = [draw(st.permutations(palette))[:k] for k in sizes]
    return g, make_lists(rows)


class TestCompileLists:
    @given(list_instance())
    @settings(max_examples=150, deadline=None)
    def test_equals_compiled_identity_made_total(self, case):
        g, L = case
        got = compile_lists(g, L)
        want = compile_instance(g, make_total(g, identity_correspondence(g, L)))
        for field in dataclasses.fields(CompiledInstance):
            a, b = getattr(got, field.name), getattr(want, field.name)
            if isinstance(a, np.ndarray):
                assert a.dtype == b.dtype and np.array_equal(a, b), field.name
            else:
                assert a == b, field.name


class TestSamplerMatchesReference:
    @given(list_instance(), st.sampled_from([0.0, 0.5, 0.9, 1.0]))
    @settings(max_examples=60, deadline=None)
    def test_keep_table_of_compiled_lists(self, case, rho):
        g, L = case
        ca = make_total(g, identity_correspondence(g, L))
        inst = compile_lists(g, L)
        table = keep_table(inst, rho)
        for v in range(g.n):
            for i, c in enumerate(inst.lists[v]):
                assert table[inst.start[v] + i] == keep_probability(g, ca, rho, v, c)

    @given(sampler_instance())
    @example(_edgeless_case())
    @example(_isolated_vertex_case())
    @settings(max_examples=80, deadline=None)
    def test_per_trial(self, inst_case):
        g, ca, params, equalize, seed = inst_case
        inst = compile_instance(g, ca)
        table = keep_table(inst, params.rho)
        for v in range(g.n):
            for i, c in enumerate(inst.lists[v]):
                assert table[inst.start[v] + i] == keep_probability(g, ca, params.rho, v, c)
        prec = list_size_order(ca.lists)
        trials = 6
        act, phi_idx, heads = draw_trials(
            inst, params, table if equalize else None, trials, np.random.default_rng(seed)
        )
        batch = stack_trials(inst, params, act, phi_idx, heads)
        uncolored_settled, unact_settled, save_drop = settle_trials(inst, act, phi_idx, heads)
        assert np.array_equal(uncolored_settled, batch.uncolored)
        assert np.array_equal(unact_settled, batch.unact)
        for t in range(trials):
            phi = tuple(inst.lists[v][i] for v, i in enumerate(phi_idx[:, t].tolist()))
            uncolored = frozenset(
                _uncolored_naive(g, ca, phi, act[:, t])
                | set(np.flatnonzero(heads[:, t]).tolist())
            )
            assert set(np.flatnonzero(batch.uncolored[:, t]).tolist()) == uncolored
            pc = PartialColoring(phi, uncolored, frozenset(np.flatnonzero(act[:, t]).tolist()))
            s = savings_of(g, ca, params, prec, pc)
            assert batch.aberrance[:, t].tolist() == list(s.aberrance)
            assert batch.pairs[:, t].tolist() == list(s.pairs)
            assert batch.trips[:, t].tolist() == list(s.trips)
            assert batch.unact[:, t].tolist() == list(s.unact)
            res = residual(g, ca, phi, uncolored)
            for v in res.vertices:
                d_res = sum(1 for u in g.adj[v] if u in uncolored)
                save_full = len(g.adj[v]) + 1 - len(ca.lists[v])
                save_res = d_res + 1 - len(res.lists[v])
                assert save_drop[v, t] == save_full - save_res
            # the completion, on every trial: those that pass the savings
            # check (the ones pipeline_color completes) and those that block
            color, blocked = greedy_complete(inst, phi_idx[:, t], batch.uncolored[:, t])
            want, want_blocked = complete_reference(g, ca, phi, uncolored)
            assert blocked == want_blocked
            if want is None:
                assert color is None
            else:
                assert {v: inst.lists[v][i] for v, i in enumerate(color.tolist())} == want


# SHA-256 of each stacked batch field (dtype, bytes) of the instance below,
# and of the save_drop settle_trials computes on the same draws.  They pin the
# random stream and every value of uncolored_trials and savings_rows, which
# `estimate` output depends on byte for byte.  2500 trials span several evaluation chunks, the
# last one partial.
GOLDEN_BATCH = {
    "phi_idx": ("<i8", "6221cf91a36e198894c9f5ee8e5769537b7a43c01b58dd9b1605a32e84b09f4f"),
    "activated": ("|b1", "a1fd49c4175b116bcf59d7e014be658c36465212a082e2086411a6001d40dc13"),
    "uncolored": ("|b1", "685a954145223e2efea6c69295cf73cbabe0c98786ed2d67b313e596e10b4ca7"),
    "aberrance": ("<i8", "20eae3c2a82105795614248044a112ce003df7606f616733454688a1c174fdba"),
    "pairs": ("<i8", "9d4c4a9b5cc2dba5acf708f1c07b74df99420a45202623237e258094ac6aa79f"),
    "trips": ("<i8", "3f285860b95c19d3e480eda2c9c6fe175694098bcaf0acdb5b75ce144b9248d0"),
    "unact": ("<i8", "6b9f1449134be7a5e9a6aeaf805e2cedf1e7ab76a136617d24251f35f3c6f8dd"),
    "save_drop": ("<i8", "5bc33e838552e59a0c0c4fd0675b7aa68c4c5cf658e581ca3475ecaf0956fd18"),
}


def test_batch_golden():
    assert 2 * procedure.TRIAL_CHUNK < 2500
    g = gen_gnp(30, 0.2, 3)
    rng = random.Random(3)
    L = make_lists([list(range(len(g.adj[v]) + 1 + rng.randint(0, 2))) for v in range(g.n)])
    inst, params = compile_lists(g, L), ProcedureParams(sigma=Fraction(1, 4))
    draws = batch_draws(inst, params, 2500, 11)
    batch = stack_trials(inst, params, *draws)
    uncolored, unact, save_drop = settle_trials(inst, *draws)
    assert np.array_equal(uncolored, batch.uncolored) and np.array_equal(unact, batch.unact)
    got = {
        name: (a.dtype.str, hashlib.sha256(a.tobytes()).hexdigest())
        for name, a in {**vars(batch), "save_drop": save_drop}.items()
    }
    assert got == GOLDEN_BATCH


# Checks settle_trials' save_drop against residual() on lists of 70 colors,
# on naive trials.  It runs under `python -O`, so a check that lives in an
# assert would be gone.
SAVE_DROP_SCRIPT = """
import sys
import numpy as np
from localcolor.correspondence import identity_correspondence, make_total
from localcolor.graph import Graph
from localcolor.lists import make_lists
from localcolor.procedure import ProcedureParams, compile_lists, draw_trials, settle_trials
from scalar_reference import residual

g = Graph.from_edges(70, [(0, i) for i in range(1, 70)])
L = make_lists([range(70)] * 70)
ca = make_total(g, identity_correspondence(g, L))
inst = compile_lists(g, L)
rng = np.random.default_rng(np.random.Philox(5))
act, phi_idx, heads = draw_trials(inst, ProcedureParams(rho=0.9), None, 300, rng)
uncolored, _, save_drop = settle_trials(inst, act, phi_idx, heads)
lists = [sorted(row) for row in L]
bad = 0
for t in range(300):
    phi = [lists[v][i] for v, i in enumerate(phi_idx[:, t].tolist())]
    unc = frozenset(np.flatnonzero(uncolored[:, t]).tolist())
    res = residual(g, ca, phi, unc)
    for v in res.vertices:
        d_res = sum(1 for u in g.adj[v] if u in unc)
        want = (len(g.adj[v]) + 1 - len(L[v])) - (d_res + 1 - len(res.lists[v]))
        bad += int(save_drop[v, t] != want)
print("optimize", sys.flags.optimize, "mismatches", bad)
"""


def test_save_drop_under_python_O():
    here = Path(__file__).resolve().parent
    path = [str(here.parent / "src"), str(here), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", SAVE_DROP_SCRIPT],
        env=env, capture_output=True, text=True, timeout=300, check=False,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["optimize", "1", "mismatches", "0"]
