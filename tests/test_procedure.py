import dataclasses
import hashlib
import itertools
import math
import os
import random
import re
import subprocess
import sys
import tempfile
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import scalar_reference
from localcolor import bounds, experiment, procedure
from localcolor.generators import gen_c5_blowup, gen_gnp
from localcolor.graph import Graph
from localcolor.lists import make_lists, uniform_lists
from localcolor.experiment import run_estimate
from localcolor.procedure import (
    ROW_DRAWS,
    TRIAL_CHUNK,
    CompiledInstance,
    PreconditionError,
    ProcedureParams,
    check_equalization_precondition,
    compile_lists,
    default_rho,
    draw_left,
    draw_trials,
    greedy_complete,
    keep_constant,
    keep_table,
    match_blocks,
    pipeline_color,
    savings_rows,
    settle_trials,
    uncolored_trials,
)
from scalar_reference import (
    CorrespondenceAssignment,
    PartialColoring,
    _uncolored_naive,
    compile_instance,
    complete_reference,
    draw_color_indices,
    identity_correspondence,
    is_lm_coloring,
    keep_probability,
    list_size_order,
    make_total,
    residual,
    sample_equalized,
    sample_naive,
    savings_of,
)
from stacked import (
    chunked_draws,
    equalized_draws,
    keep_frequency,
    phi_left,
    plan_of,
    sorted_lists,
    stack_chunks,
    stack_trials,
    stacked_batch,
)


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
    for module in (scalar_reference, experiment, procedure):
        for name in ("identity_correspondence", "make_total"):
            monkeypatch.setattr(
                module, name, lambda *a, name=name: calls.append(name), raising=False
            )
    return calls


@pytest.fixture
def evaluator_calls(monkeypatch):
    """Names of the evaluator calls made from here on, whichever module looks
    them up: estimate_plan, which builds the plan the row evaluators read,
    the row evaluator uncolored_trials and savings_rows (with its
    _pairs_trips), and settle_trials."""
    calls = []
    names = ("estimate_plan", "uncolored_trials", "savings_rows", "_pairs_trips", "settle_trials")
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
        # the compiled check and the scalar reference's own name the same
        # offender; the reference also names the keep probability's color
        def both_raise(g, L, want, want_ref=None):
            with pytest.raises(PreconditionError, match=f"^{re.escape(want)}$"):
                check_equalization_precondition(compile_lists(g, L), ProcedureParams())
            ca = make_total(g, identity_correspondence(g, L))
            with pytest.raises(PreconditionError, match=f"^{re.escape(want_ref or want)}$"):
                sample_equalized(g, ca, ProcedureParams(), rng_of(0))

        # 2-color lists on K4 are too short for (1 - eps) d(v)
        g = Graph.from_edges(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
        both_raise(g, uniform_lists(4, 2), "vertex 0: |L(v)| = 2 < (1 - eps) d(v)")
        # and at the center of a star, vertex 1, only
        g = Graph.from_edges(4, [(1, 0), (1, 2), (1, 3)])
        both_raise(g, make_lists([[0], [0, 1], [0], [0]]), "vertex 1: |L(v)| = 2 < (1 - eps) d(v)")
        # the first keep probability below K is not at vertex 0: two isolated
        # vertices, then a star whose three leaves have lists as large as its
        # center's, so made total they threaten every color of it: the
        # center, vertex 2, is the offender, at its first color for the
        # reference, and no leaf is
        g = Graph.from_edges(6, [(2, 3), (2, 4), (2, 5)])
        L = make_lists([[0], [0], [10, 11, 12]] + [[11, 12, 15]] * 3)
        ca, params = make_total(g, identity_correspondence(g, L)), ProcedureParams()
        p = keep_probability(g, ca, params.rho, 2, 10)
        assert all(keep_probability(g, ca, params.rho, 2, c) == p for c in (11, 12))
        assert keep_probability(g, ca, params.rho, 3, 11) >= params.keep
        below = f"is below K = {params.keep:.6f}"
        both_raise(g, L, f"keep probability {p:.6f} of vertex 2 {below}",
                   f"keep probability {p:.6f} of vertex 2, color 10 {below}")

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

    def test_batches_stop_doubling_at_the_trial_chunk(self, monkeypatch):
        # C5 blowup t=10 with 26-color lists at eps 1/5 fails every round
        monkeypatch.setattr(procedure, "TRIAL_CHUNK", 4)
        drawn = []
        draw = procedure.draw_trials

        def recorded(inst, params, table, trials, rng):
            drawn.append(trials)
            return draw(inst, params, table, trials, rng)

        monkeypatch.setattr(procedure, "draw_trials", recorded)
        params = ProcedureParams(eps=Fraction(1, 5))
        report = pipeline_color(gen_c5_blowup(10), uniform_lists(50, 26), params, 40, rng_of(1))
        assert not report.succeeded
        assert drawn == [1, 2] + [4] * 9 + [1]

    def test_builds_no_correspondence_assignment(self, correspondence_calls):
        # lists compile straight to index arrays and the coloring is checked
        # on the lists, so no frozenset pair is built or walked
        g = gen_gnp(40, 0.2, 2)
        L = make_lists([list(range(len(g.adj[v]) + 1)) for v in range(g.n)])
        report = pipeline_color(g, L, ProcedureParams(), 20, rng_of(5))
        assert report.succeeded
        assert correspondence_calls == []

    def test_reads_the_graph_as_its_csr(self):
        # neither the compile nor the final check builds the adj frozenset view
        g = gen_gnp(40, 0.2, 2)
        L = make_lists([list(range(d + 1)) for d in np.diff(g.ptr).tolist()])
        assert "adj" not in vars(g)
        assert pipeline_color(g, L, ProcedureParams(), 20, rng_of(5)).succeeded
        assert "adj" not in vars(g)

    def test_settles_without_the_savings_components(self, evaluator_calls):
        # the savings check reads uncolored, unact and save_drop only
        g = gen_gnp(40, 0.2, 2)
        L = make_lists([list(range(len(g.adj[v]) + 1)) for v in range(g.n)])
        report = pipeline_color(g, L, ProcedureParams(), 20, rng_of(5))
        assert report.succeeded
        assert evaluator_calls == ["settle_trials"] * report.rounds_used

    def test_blocked_completion_is_a_fault(self, monkeypatch):
        # the savings check guarantees greedy completion, so a block must surface
        monkeypatch.setattr(
            procedure, "greedy_complete", lambda inst, phi_idx, unc, removed: (None, 3)
        )
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
        run_estimate(g, L, ProcedureParams(), 50, 0, tmp_path, {})
        assert correspondence_calls == []

    def test_estimate_computes_no_save_drop(self, evaluator_calls, tmp_path):
        # estimate reduces each vertex's savings rows as they arrive: it runs
        # the row evaluator once and computes no save_drop
        g = gen_gnp(40, 0.2, 2)
        L = make_lists([list(range(len(g.adj[v]) + 1)) for v in range(g.n)])
        run_estimate(g, L, ProcedureParams(), 50, 0, tmp_path, {})
        # 50 trials are one chunk: one _pairs_trips call per vertex
        assert evaluator_calls == (
            ["estimate_plan", "uncolored_trials", "savings_rows"] + ["_pairs_trips"] * g.n
        )

    def test_estimate_builds_its_plan_once(self, evaluator_calls, tmp_path):
        # three chunks, each evaluated through the one plan built before the first draw
        g = gen_gnp(40, 0.2, 2)
        L = make_lists([list(range(len(g.adj[v]) + 1)) for v in range(g.n)])
        run_estimate(g, L, ProcedureParams(), 2 * TRIAL_CHUNK + 3, 0, tmp_path, {})
        chunk = ["uncolored_trials", "savings_rows"] + ["_pairs_trips"] * g.n
        assert evaluator_calls == ["estimate_plan"] + chunk * 3

    @pytest.mark.parametrize("trials", [0, 1])
    def test_fewer_than_two_trials_is_named(self, trials, tmp_path):
        with pytest.raises(ValueError, match=f"trials={trials}"):
            run_estimate(
                star(5), uniform_lists(6, 6), ProcedureParams(), trials, 0, tmp_path / "out", {}
            )
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


def _exact_mean_se(x: np.ndarray) -> tuple[float, float]:
    """The mean and standard error of the samples x, each an exact Fraction
    rounded once to a float (the se's square, before its root is taken)."""
    t = len(x)
    values, counts = (a.tolist() for a in np.unique(x, return_counts=True))
    mean = Fraction(sum(k * c for k, c in zip(values, counts)), t)
    squares = sum(c * (k - mean) ** 2 for k, c in zip(values, counts))
    return float(mean), math.sqrt(float(squares / (t * (t - 1))))


def _exact_rows(batch) -> list[list]:
    """The vertex, var, mean and se columns of estimate, from the stacked
    per-trial rows of `batch` in exact arithmetic."""
    rows = []
    for v in range(batch.aberrance.shape[0]):
        (ab, ab_se), (pa, pa_se), (tr, tr_se), (un, un_se) = (
            _exact_mean_se(x[v]) for x in (batch.aberrance, batch.pairs, batch.trips, batch.unact)
        )
        rows += [
            [v, "aberrance", repr(ab), repr(ab_se)],
            [v, "pairs_minus_trips", repr(pa - tr), repr(math.hypot(pa_se, tr_se))],
            [v, "unact", repr(un), repr(un_se)],
        ]
    return rows


class TestEstimateRows:
    @pytest.mark.parametrize("trials", [2, 1023, 1024, 1025, 2500])
    @pytest.mark.parametrize("sigma", [Fraction(0), Fraction(1, 4)])
    def test_equal_the_batch_formula(self, trials, sigma):
        # the rows folded chunk by chunk into integer sums equal, bit for bit,
        # exact means and standard errors over the stacked per-trial rows of
        # the same chunked draws
        g, L = _estimate_instance()
        params = ProcedureParams(sigma=sigma)
        inst = compile_lists(g, L)
        table = check_equalization_precondition(inst, params)
        lower = experiment._lower_bounds(g, inst, params)
        batch = stack_chunks(inst, params, chunked_draws(inst, params, table, trials, rng_of(17)))
        rows = experiment._estimate_rows(inst, params, table, trials, 17, lower)
        got = [row[:4] for row in rows]
        assert got == _exact_rows(batch)
        # the isolated vertex saves nothing, and each of its bounds is 0
        names = ("aberrance", "pairs_minus_trips", "unact")
        assert got[-3:] == [[12, name, "0.0", "0.0"] for name in names]
        assert [row[4] for row in rows[-3:]] == ["0.0"] * 3

    def test_sums_squares_in_python_ints_past_degree_829(self, monkeypatch):
        # a savings value of the center is at most C(830, 3), and
        # C(830, 3)^2 * TRIAL_CHUNK passes 2^63: its full chunks sum their
        # squares in Python ints, its 3-trial last chunk in int64.  Its 830
        # colors hold the 9 of each leaf, egalitarian at sigma = 99/100, so
        # about 92 leaves share each color and pairs and trips are large.
        d = 830
        assert math.comb(d, 3) ** 2 * TRIAL_CHUNK >= 2**63 > math.comb(d - 1, 3) ** 2 * TRIAL_CHUNK
        g, L = star(d), make_lists([range(d)] + [range(9)] * d)
        params = ProcedureParams(sigma=Fraction(99, 100))
        inst = compile_lists(g, L)
        table = check_equalization_precondition(inst, params)
        lower = experiment._lower_bounds(g, inst, params)
        trials = 2 * TRIAL_CHUNK + 3
        batch = stack_chunks(inst, params, chunked_draws(inst, params, table, trials, rng_of(4)))
        rows = experiment._estimate_rows(inst, params, table, trials, 4, lower)
        assert [row[:4] for row in rows] == _exact_rows(batch)
        assert batch.pairs[0].any() and batch.trips[0].any()
        # the center at its largest values in every trial: an int64 sum of
        # its squares would wrap around, the Python-int one gives se = 0
        top = np.array([d, math.comb(d, 2), math.comb(d, 3), d])[:, None]

        def center_at_top(*args):
            for v, x in enumerate(savings_rows(*args)):
                yield np.broadcast_to(top, x.shape) if v == 0 else x

        monkeypatch.setattr(procedure, "savings_rows", center_at_top)
        rows = experiment._estimate_rows(inst, params, table, trials, 4, lower)
        want = [float(d), float(math.comb(d, 2) - math.comb(d, 3)), float(d)]
        assert [row[2:4] for row in rows[:3]] == [[repr(m), "0.0"] for m in want]

    def test_memory_is_flat_in_the_trial_count(self, tmp_path):
        # only one chunk of draws is alive at once
        g = gnm(100, 495, 3)
        L = make_lists([range(len(g.adj[v]) + 1) for v in range(g.n)])

        def peak(trials):
            tracemalloc.start()
            try:
                run_estimate(g, L, ProcedureParams(), trials, 0, tmp_path, {})
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        # the first call in a process makes one-time allocations; keep them
        # out of the base
        run_estimate(g, L, ProcedureParams(), 2, 0, tmp_path, {})
        base = peak(2 * TRIAL_CHUNK)
        assert peak(20_000) <= 1.25 * base and peak(100_000) <= 1.25 * base

    def test_memory_per_trial_cell(self, tmp_path):
        # estimate holds one chunk of draws whatever the trial count; a batch
        # of savings of every trial (32 bytes per (vertex, trial) cell) would
        # not fit
        g = gnm(100, 495, 3)
        L = make_lists([range(len(g.adj[v]) + 1) for v in range(g.n)])
        trials = 20_000
        tracemalloc.start()
        try:
            run_estimate(g, L, ProcedureParams(), trials, 0, tmp_path, {})
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / (g.n * trials) <= 16

    def test_chunk_loop_memory_per_cell(self):
        # estimate's chunk loop holds one chunk at a time: its activations and
        # int32 color indices (5 bytes per (vertex, trial) cell), its flips
        # and uncolored mask while they are drawn, and the plan, built once.
        # A previous chunk still bound while the next is drawn, or int64
        # indices, would add 5 or 4 bytes; float (n, width) temporaries for
        # the flips, or a coded table rebuilt per chunk, about 18
        g = gnm(100, 495, 3)
        L = make_lists([range(len(g.adj[v]) + 1) for v in range(g.n)])
        inst, params = compile_lists(g, L), ProcedureParams()
        table = check_equalization_precondition(inst, params)
        lower = experiment._lower_bounds(g, inst, params)
        # one-time allocations stay out of the peak
        experiment._estimate_rows(inst, params, table, 2 * TRIAL_CHUNK, 0, lower)
        tracemalloc.start()
        try:
            experiment._estimate_rows(inst, params, table, 3 * TRIAL_CHUNK, 0, lower)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / (g.n * TRIAL_CHUNK) <= 16

    def test_every_bound_is_known_before_the_first_draw(self, tmp_path, monkeypatch):
        # run_estimate calls each bound evaluator once per vertex before
        # draw_trials draws anything
        g = gnm(30, 80, 5)
        L = make_lists([range(len(g.adj[v]) + 1) for v in range(g.n)])
        calls = []

        def record(module, name):
            fn = getattr(module, name)

            def recorded(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)

            monkeypatch.setattr(module, name, recorded)

        names = ("aberrance_lower_bound", "pairs_trips_lower_bound", "unact_expectation")
        for module, name in [(procedure, "draw_trials"), *((bounds, b) for b in names)]:
            record(module, name)
        run_estimate(g, L, ProcedureParams(), TRIAL_CHUNK + 1, 0, tmp_path, {})
        first = calls.index("draw_trials")
        assert calls[first:] == ["draw_trials"] * 2
        assert sorted(calls[:first]) == sorted(names * g.n)


class TestDrawTrials:
    @pytest.mark.parametrize("trials", [1, 7, 2_000, 21_846])
    @pytest.mark.parametrize("rho", [0.0, 0.9])
    @pytest.mark.parametrize("equalize", [True, False])
    def test_flip_blocks_equal_one_array_draw(self, trials, rho, equalize):
        # the flips of all five rows are one draw, at every width
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
            heads = rng.random((5, trials)) < pflip[:, None]
        for a, b in zip(got, (act, phi_idx, heads)):
            assert np.array_equal(a, b)
        assert [a.dtype for a in got] == [np.bool_, np.int32, np.bool_]
        if equalize and rho and trials > 1:
            assert heads.any() and not heads.all()
        # both took the same doubles from the stream
        assert ours.random(3).tolist() == rng.random(3).tolist()

    @pytest.mark.parametrize("equalize", [True, False])
    def test_zero_trials_draw_nothing(self, equalize):
        # (n, 0) arrays, and the generator is left where it was
        g = Graph.from_edges(5, [(0, 1), (1, 2), (2, 0), (0, 3)])
        inst = compile_lists(g, make_lists([range(3), range(66), range(2, 6), range(64), range(1)]))
        params = ProcedureParams()
        table = keep_table(inst, params.rho) if equalize else None
        ours = rng_of(31)
        got = draw_trials(inst, params, table, 0, ours)
        assert [a.shape for a in got] == [(5, 0)] * 3
        assert [a.dtype for a in got] == [np.bool_, np.int32, np.bool_]
        ref = rng_of(31)
        for draw in (lambda r: r.integers(1000, size=3, dtype=np.int32), lambda r: r.random(3)):
            assert np.array_equal(draw(ours), draw(ref))


def _one_color_case():
    """A path and a star sharing vertex 1, whose leaves 0, 2 and 5 have 1-color
    lists, and the isolated vertex 6."""
    g = Graph.from_edges(7, [(0, 1), (1, 3), (3, 2), (1, 5)])
    return g, make_lists([range(1), range(3), range(1), range(4), range(2), range(1), range(2)])


def test_draw_left_writes_the_uncolored_mask_into_the_draws():
    """Each chunk draw_left yields, its activations and phi_left, equals
    draw_trials then uncolored_trials on the same stream, chunk by chunk:
    each chunk's coins and int32 color indices take the numbers draw_trials
    takes, lists of one color drawing no index, and leave the generator
    where it leaves it.
    Every chunk is a fresh array, read through one plan as wide as the
    first chunk.  Across trial counts on both sides of a chunk boundary,
    lists of 64 or more colors, lists of one color, and rho 0."""
    cases = [(_estimate_instance, None), (_one_color_case, None), (_estimate_instance, 0.0)]
    widths = [2, 7, TRIAL_CHUNK, TRIAL_CHUNK + 1, 2 * TRIAL_CHUNK + 3]
    for (case, rho), trials in itertools.product(cases, widths):
        g, L = case()
        inst, params = compile_lists(g, L), ProcedureParams(sigma=Fraction(1, 4), rho=rho)
        table = check_equalization_precondition(inst, params)
        ours, ref = rng_of(8), rng_of(8)
        got = list(draw_left(inst, params, table, trials, ours))
        chunks = chunked_draws(inst, params, table, trials, ref)
        assert [act.shape[1] for _, act, _ in got] == [act.shape[1] for act, _, _ in chunks]
        assert ours.random(3).tolist() == ref.random(3).tolist()
        plan = got[0][0]
        assert plan.stride == min(trials, TRIAL_CHUNK)
        arrays = []
        for (got_plan, got_act, got_left), (act, phi_idx, heads) in zip(got, chunks, strict=True):
            assert got_plan is plan
            want = phi_left(inst, phi_idx, uncolored_trials(plan, act, phi_idx, heads))
            assert got_act.dtype == act.dtype and got_left.dtype == np.int32
            assert np.array_equal(got_act, act) and np.array_equal(got_left, want)
            arrays += [got_act, got_left]
        assert not any(np.shares_memory(a, b) for a, b in itertools.combinations(arrays, 2))
        left = np.concatenate([left for _, _, left in got], axis=1)
        if rho == 0:
            assert (left == inst.sizes[:, None]).all()
        else:
            # some vertex is uncolored in some trial and colored in another
            assert (left == inst.sizes[:, None]).any() and (left < inst.sizes[:, None]).any()


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


# block boundaries of compile_lists and keep_table: no edges, one vertex,
# isolated first and last vertices (dense lookup, and a binary search when
# their colors make the (vertex, color rank) table larger than match), and
# colors below 0 and at or above 2**63
EDGELESS = (Graph.from_edges(4, []), make_lists([[3], range(70), [-1, 5], [2**63, 0]]))
ONE_VERTEX = (Graph.from_edges(1, []), make_lists([[7, -7]]))
ISOLATED_ENDS = (
    Graph.from_edges(6, [(1, 2), (2, 3), (3, 4), (1, 3)]),
    make_lists([[0, 1], [0, 1, 2], [0, 1, 2, 3], [1, 2], [2, 1, 0, 3], [3]]),
)
ISOLATED_ENDS_SPARSE = (
    Graph.from_edges(6, [(1, 2), (2, 3), (3, 4), (1, 3)]),
    make_lists([[-(2**70)], [0, 1, 2], [1, 3], [1, 2], [2, 5], [2**64 + 3, 2**64]]),
)
SIGNED_AND_HUGE = (
    Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)]),
    make_lists([
        [-3, -1, 2**63, 2**63 + 5], [-1, 2**63 + 5], [-(2**63), -3, 0, 2**63, 2**64],
        [2**63 - 1, 2**63, -1],
    ]),
)
# nested neighbor lists (0-1, 3-4: one side has no free color, nothing to
# zip) beside partly overlapping ones (1-2, 2-3, 2-5: free colors at both
# ends, zipped), so one instance has both kinds of edge
NESTED_AND_OVERLAPPING = (
    Graph.from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4), (2, 5)]),
    make_lists([[0, 1], [0, 1, 2], [1, 2, 5, 6], [5, 6, 7], [5, 6, 7, 8], [0, 6, 9, 10]]),
)
# the same kinds of edge where the (vertex, color rank) table is dense:
# 0-1, 1-2 and 0-2 zip, 2-3 is nested
DENSE_OVERLAPPING = (
    Graph.from_edges(4, [(0, 1), (1, 2), (0, 2), (2, 3)]),
    make_lists([[0, 1, 2], [1, 2, 3], [0, 3], [0, 1, 2, 3]]),
)
COMPILE_EDGE_CASES = (
    EDGELESS, ONE_VERTEX, ISOLATED_ENDS, ISOLATED_ENDS_SPARSE, SIGNED_AND_HUGE,
    NESTED_AND_OVERLAPPING, DENSE_OVERLAPPING,
)


def _compiled_fields_equal(a: CompiledInstance, b: CompiledInstance) -> None:
    for field in dataclasses.fields(CompiledInstance):
        x, y = getattr(a, field.name), getattr(b, field.name)
        if isinstance(x, np.ndarray):
            assert x.dtype == y.dtype and np.array_equal(x, y), field.name
        else:
            assert x == y, field.name


def _made_total(g: Graph, L) -> CompiledInstance:
    return compile_instance(g, make_total(g, identity_correspondence(g, L)))


def _match(inst: CompiledInstance) -> np.ndarray:
    """The flat map of every directed edge, laid out by match_blocks."""
    return match_blocks(inst, np.arange(len(inst.tail)))


def _searched(inst: CompiledInstance) -> CompiledInstance:
    """`inst` without its dense table, so that lookups search the sorted keys."""
    return dataclasses.replace(inst, where=None)


def _dense(inst: CompiledInstance) -> CompiledInstance:
    """`inst` with a dense (vertex, color rank) table, however large."""
    n, colors = len(inst.sizes), inst.colors
    owner = np.repeat(np.arange(n), inst.sizes)
    where = np.full(n * colors, -1)
    where[owner * colors + inst.ranks] = np.arange(len(owner)) - inst.start[owner]
    return dataclasses.replace(inst, where=where)


def _with_examples(cases, **fixed):
    """The test with an @example for each case (and the `fixed` arguments)."""
    def decorate(test):
        for case in reversed(cases):
            test = example(case=case, **fixed)(test)
        return test
    return decorate


class TestCompileLists:
    @given(list_instance())
    @_with_examples(COMPILE_EDGE_CASES)
    @settings(max_examples=150, deadline=None)
    def test_equals_compiled_identity_made_total(self, case):
        # the fields, and the maps both lookups lay out from them
        g, L = case
        inst, want = compile_lists(g, L), _made_total(g, L)
        _compiled_fields_equal(inst, want)
        for a in (_dense(inst), _searched(inst)):
            assert np.array_equal(_match(a), _match(want))

    @given(list_instance(), st.sampled_from([1, 2, 3, 17]))
    @_with_examples(COMPILE_EDGE_CASES, cells=1)
    @settings(max_examples=60, deadline=None)
    def test_common_colors_in_blocks_of_edges(self, case, cells):
        # blocks of a few up-edges' packed rows count what one block counts
        want = compile_lists(*case)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(procedure, "SLICE", cells)
            _compiled_fields_equal(compile_lists(*case), want)

    @given(list_instance())
    @_with_examples(COMPILE_EDGE_CASES)
    @settings(max_examples=100, deadline=None)
    def test_no_big_edge_cell_is_unmatched(self, case):
        # keep_table's one product per vertex rests on this
        inst = compile_lists(*case)
        assert (_match(inst)[np.repeat(inst.big, inst.sizes[inst.tail])] >= 0).all()


def _cell_map(g: Graph, ca: CorrespondenceAssignment) -> list[int]:
    """Every cell's match read off the pairs themselves: for each directed
    edge (v, u) in CSR order and each color of v, the index in u's sorted
    list of the color matched to it, or -1."""
    lists = [sorted(ca.lists[v]) for v in range(g.n)]
    out = []
    for v in range(g.n):
        for u in sorted(g.adj[v]):
            pairs = dict(ca.pairs(v, u))
            out += [lists[u].index(pairs[c]) if c in pairs else -1 for c in lists[v]]
    return out


@given(sampler_instance())
@example(_isolated_vertex_case())
@settings(max_examples=80, deadline=None)
def test_lookup_of_general_correspondences(inst_case):
    """On general correspondences made total, whose explicit pairs may hold
    any value, -1 included, through a dense table and by binary search: the
    laid-out map equals the pairs cell by cell; settle_trials gives the same
    on both, and greedy_complete with every vertex uncolored (every edge
    read) gives the scalar reference's."""
    g, ca, params, _, seed = inst_case
    inst = compile_instance(g, ca)
    want, ordered = _cell_map(g, ca), sorted_lists(inst)
    draws = draw_trials(inst, params, None, 4, rng_of(seed))
    phi_idx = np.array([seed % size for size in inst.sizes.tolist()], dtype=np.int64)
    phi = tuple(ordered[v][i] for v, i in enumerate(phi_idx.tolist()))
    completed, blocked = complete_reference(g, ca, phi, frozenset(range(g.n)))
    settled = []
    for x in (_dense(inst), _searched(inst)):
        assert _match(x).tolist() == want
        settled.append(settle_trials(x, *draws))
        removed = np.zeros(int(inst.start[-1]), dtype=bool)
        color, got_blocked = greedy_complete(x, phi_idx, np.ones(g.n, dtype=bool), removed)
        assert got_blocked == blocked
        assert color is None if completed is None else (
            {v: ordered[v][i] for v, i in enumerate(color.tolist())} == completed
        )
    assert all(np.array_equal(a, b) for a, b in zip(*settled, strict=True))


def test_equal_graphs_compile_equally():
    """One G(200, 1/10) from its edge list and from that list reversed, each
    edge's ends swapped: equal graphs, so equal arrays and keep tables."""
    edges = gen_gnp(200, 0.1, 3).edges()
    g = Graph.from_edges(200, edges)
    flipped = Graph.from_edges(200, [(v, u) for u, v in reversed(edges)])
    assert g == flipped and hash(g) == hash(flipped)
    L = make_lists([range(len(g.adj[v]) + 1) for v in range(g.n)])
    a, b = compile_lists(g, L), compile_lists(flipped, L)
    _compiled_fields_equal(a, b)
    rho = default_rho(Fraction(1, 50))
    assert np.array_equal(keep_table(a, rho), keep_table(b, rho))


def test_compile_lists_lookup_on_both_sides():
    """compile_lists looks colors up in a dense (vertex, color rank) table when
    n * (distinct colors) is at most the number of cells, and by
    searchsorted otherwise.  Isolated vertices whose one-color lists are
    spaced 10**6 apart add vertices and colors but no cells, so the padded
    instance takes searchsorted and must agree with the plain one on every
    array of the shared vertices, and both with the make_total oracle."""
    g = gen_gnp(30, 0.3, 1)
    rows = [list(range(len(g.adj[v]) + 1)) for v in range(g.n)]
    pad = 40
    padded_g = Graph.from_edges(g.n + pad, g.edges())
    padded_rows = rows + [[10**6 * (j + 1)] for j in range(pad)]
    insts = []
    for graph, L, dense in ((g, rows, True), (padded_g, padded_rows, False)):
        L = make_lists(L)
        inst = compile_lists(graph, L)
        colors = len(set().union(*L))
        assert (graph.n * colors <= inst.sizes[inst.tail].sum()) == dense
        assert (inst.where is not None) == dense
        _compiled_fields_equal(inst, _made_total(graph, L))
        insts.append(inst)
    plain, padded = insts
    assert len(plain.zmap) == 0
    for name in ("tail", "head", "big", "rev", "zoff", "zmap"):
        assert np.array_equal(getattr(plain, name), getattr(padded, name)), name
    assert np.array_equal(_match(plain), _match(padded))
    for name in ("start", "ptr"):
        assert np.array_equal(getattr(plain, name), getattr(padded, name)[: g.n + 1]), name
    assert np.array_equal(padded.values[: plain.start[-1]], plain.values)


@st.composite
def relabeled_instance(draw):
    """A small graph with lists of d(v) + 1 to d(v) + 3 colors from 0..15,
    perhaps padded as test_compile_lists_lookup_on_both_sides pads it, and
    an increasing relabeling c -> a c + b, b often past -2^63 or 2^63 - 1."""
    n = draw(st.integers(2, 8))
    edges = draw(st.lists(st.sampled_from(list(itertools.combinations(range(n), 2))), unique=True))
    g = Graph.from_edges(n, edges)
    rows = [
        draw(st.lists(st.integers(0, 15), min_size=len(g.adj[v]) + 1,
                      max_size=len(g.adj[v]) + 3, unique=True))
        for v in range(n)
    ]
    padded = draw(st.booleans())
    if padded:
        rows += [[10**6 * (j + 1)] for j in range(40)]
        g = Graph.from_edges(n + 40, g.edges())
    a = draw(st.integers(1, 9))
    b = draw(st.one_of(st.integers(-9, 9), st.integers(2**63 - 10**9, 2**64),
                       st.integers(-(2**64), -(2**63) - 1)))
    return g, rows, padded, (a, b)


def _outputs(g: Graph, L, seed: int):
    """`estimate`'s CSV and `color`'s report on (g, L), or the precondition
    error they raise."""
    params = ProcedureParams(eps=Fraction(1, 20), rho=0.4)
    with tempfile.TemporaryDirectory() as out:
        try:
            run_estimate(g, L, params, 16, seed, out, {})
        except PreconditionError as exc:
            return str(exc)
        csv_text = (Path(out) / "estimate_results.csv").read_bytes()
    return csv_text, pipeline_color(g, L, params, 20, rng_of(seed))


@given(relabeled_instance(), st.integers(0, 2**32))
@example(
    case=(Graph.from_edges(3, [(0, 1), (1, 2)]), [[0, 3], [1, 3, 5], [2, 5]], False, (2, 2**63)),
    seed=1,
)
@example(
    case=(Graph.from_edges(43, [(0, 1), (1, 2)]),
          [[0, 3], [1, 3, 5], [2, 5]] + [[10**6 * (j + 1)] for j in range(40)], True,
          (1, 2**63 - 4)),
    seed=2,
)
@settings(max_examples=40, deadline=None)
def test_outputs_are_invariant_under_an_increasing_relabeling(case, seed):
    """Colors only enter through their order: relabeled by c -> a c + b (a >= 1),
    the lists take the same lookup, `estimate` writes the same CSV and
    `color` reports the same rounds and violations, its coloring relabeled;
    the relabeled lists are Python ints wherever a color leaves int64."""
    g, rows, padded, (a, b) = case
    L = make_lists(rows)
    moved = make_lists([[a * c + b for c in row] for row in rows])
    wide = any(not -(2**63) <= a * c + b < 2**63 for row in rows for c in row)
    assert L.colors.dtype == np.int64 and moved.colors.dtype == (object if wide else np.int64)
    dense = [compile_lists(g, x).where is not None for x in (L, moved)]
    assert dense[0] == dense[1] and not (padded and dense[0])
    base, other = _outputs(g, L, seed), _outputs(g, moved, seed)
    if isinstance(base, str):
        assert other == base
        return
    (csv_base, got), (csv_other, want) = base, other
    assert csv_other == csv_base
    assert (want.rounds_used, want.violations_per_round) == (got.rounds_used, got.violations_per_round)
    relabeled = None if got.coloring is None else {v: a * c + b for v, c in got.coloring.items()}
    assert want.coloring == relabeled


def test_color_holds_no_array_with_a_cell_per_edge_and_color():
    """compile_lists and a one-round pipeline_color on G(200, 1/10) with
    deg+1 lists, traced together, peak below one int64 per (directed edge,
    tail color) cell: no cells-long int64 array is alive at any point.  The
    instance they hold (the lists, the color ranks, the dense table and the
    per-edge arrays) is 0.38 of that by itself here, and the call peaks near
    0.73 of it; with a per-cell `match` it peaked at 2.6 times it."""
    g = gen_gnp(200, 0.1, 1)
    L = make_lists([range(len(g.adj[v]) + 1) for v in range(g.n)])
    cells = sum(len(g.adj[v]) * len(L[v]) for v in range(g.n))
    params = ProcedureParams()
    pipeline_color(g, L, params, 1, rng_of(0))  # one-time allocations stay out of the peak
    tracemalloc.start()
    try:
        compile_lists(g, L)
        report = pipeline_color(g, L, params, 1, rng_of(0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.succeeded
    assert peak < cells * 8


def test_color_memory_is_flat_once_rounds_fail():
    """K_60 with 59-color lists passes the precondition at eps 1/50 but is not
    colorable, so every round fails and 2,047 rounds reach a 1,024-trial
    batch.  pipeline_color settles it in trial slices, so the traced call
    peaks below that batch's draws (6 bytes per (vertex, trial)) plus 16
    slices of int64; it peaked near 1.5 MB of the bound's 4.6 MB.  A removed
    mask over the whole batch took 3.6 MB by itself, and (edge, trial)
    arrays over the whole batch peaked at 373 slices more."""
    n = 60
    g = Graph.from_edges(n, list(itertools.combinations(range(n), 2)))
    L, params = uniform_lists(n, n - 1), ProcedureParams(eps=Fraction(1, 50))
    pipeline_color(g, L, params, 1, rng_of(0))  # one-time allocations stay out of the peak
    tracemalloc.start()
    try:
        report = pipeline_color(g, L, params, 2 * TRIAL_CHUNK - 1, rng_of(0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not report.succeeded and report.rounds_used == 2 * TRIAL_CHUNK - 1
    assert peak < n * TRIAL_CHUNK * 6 + 16 * procedure.SLICE * 8


# Vertices 0 and 9 are isolated (empty edge segments first and last, each
# beside a big edge), the path 1-2-3 has lists of 2, 3 and 2 colors (1 and 3
# have no small edge, 2 no big edge), and 4-8, a 5-cycle with a chord, has
# lists of 3 of 6 colors, most of whose edges zip
SLICED = (
    Graph.from_edges(10, [(1, 2), (2, 3), (4, 5), (5, 6), (6, 7), (7, 8), (4, 8), (4, 6)]),
    make_lists([
        [0], [0, 1], [0, 1, 2], [1, 2], [0, 1, 3], [1, 2, 4], [0, 3, 5], [2, 4, 5],
        [1, 3, 5], [7, 8],
    ]),
)


@pytest.mark.parametrize("table", [_dense, _searched])
def test_settle_trials_matches_the_scalar_reference(table):
    """Batches of 1, 3, 4, 5 and 14 trials give what the same draws give
    settled one column at a time, and every trial matches the scalar
    reference: the uncolored set and unact, and save_drop and the removed
    colors of each uncolored vertex."""
    g, L = SLICED
    ca = make_total(g, identity_correspondence(g, L))
    inst, params = table(compile_lists(g, L)), ProcedureParams(rho=0.7)
    ordered = sorted_lists(inst)
    assert len(inst.zmap) and not inst.big.all() and (np.diff(inst.ptr) == 0).any()
    prec, rng, seen = list_size_order(ca.lists), rng_of(7), []
    for trials in (1, 3, 4, 5, 14):
        draws = draw_trials(inst, params, keep_table(inst, params.rho), trials, rng)
        uncolored, unact, save_drop, removed = settled = settle_trials(inst, *draws)
        columns = [settle_trials(inst, *(a[:, t : t + 1] for a in draws)) for t in range(trials)]
        for got, want in zip(settled, zip(*columns), strict=True):
            assert np.array_equal(got, np.concatenate(want, axis=1))
        act, phi_idx, heads = draws
        for t in range(trials):
            phi = tuple(ordered[v][i] for v, i in enumerate(phi_idx[:, t].tolist()))
            unc = frozenset(
                _uncolored_naive(g, ca, phi, act[:, t]) | set(np.flatnonzero(heads[:, t]).tolist())
            )
            assert set(np.flatnonzero(uncolored[:, t]).tolist()) == unc
            pc = PartialColoring(phi, unc, frozenset(np.flatnonzero(act[:, t]).tolist()))
            assert unact[:, t].tolist() == list(savings_of(g, ca, params, prec, pc).unact)
            res = residual(g, ca, phi, unc)
            for v in res.vertices:
                d_res = sum(1 for u in g.adj[v] if u in unc)
                drop = (len(g.adj[v]) - d_res) - (len(ca.lists[v]) - len(res.lists[v]))
                assert save_drop[v, t] == drop
                lost = np.flatnonzero(removed[inst.start[v] : inst.start[v + 1], t])
                assert {ordered[v][i] for i in lost.tolist()} == ca.lists[v] - res.lists[v]
        seen.append(settled)
    # the draws reach every count: some vertex uncolored, some colored, some
    # unact, save_drop and removed color
    for got in zip(*seen):
        assert any(a.any() for a in got)
    assert not all(a.all() for a in next(zip(*seen)))


@pytest.mark.parametrize("table", [_dense, _searched])
def test_pipeline_color_stops_at_the_first_good_slice(monkeypatch, table):
    """With slices of at most cap = 4 trials, pipeline_color reports what it
    reports with one slice per batch.  It settles each batch in the slices
    of the equal-width rule, in trial order, and no column after the slice
    that holds the good trial.  The cases place that trial in the first, a
    middle and the last slice of a batch (once a short last slice), and one
    budget has no good trial, its last batch 5 trials in 3 + 2."""
    g, L = SLICED
    compile_, draw, settle = procedure.compile_lists, procedure.draw_trials, procedure.settle_trials
    batches = []  # per drawn batch, its trials and the widths settle_trials was given

    def drawn(inst, params, table, trials, rng):
        batches.append((trials, []))
        return draw(inst, params, table, trials, rng)

    def settled(inst, act, phi_idx, heads):
        batches[-1][1].append(phi_idx.shape[1])
        return settle(inst, act, phi_idx, heads)

    monkeypatch.setattr(procedure, "compile_lists", lambda g, L: table(compile_(g, L)))
    monkeypatch.setattr(procedure, "draw_trials", drawn)
    monkeypatch.setattr(procedure, "settle_trials", settled)
    params, edges, cap, placed = ProcedureParams(eps=Fraction(1, 5), rho=0.2), len(g.nbr), 4, []
    for seed, rounds in ((2, 200), (6, 200), (10, 200), (0, 12), (1, 12)):
        monkeypatch.setattr(procedure, "SLICE", TRIAL_CHUNK * edges)
        want = pipeline_color(g, L, params, rounds, rng_of(seed))
        monkeypatch.setattr(procedure, "SLICE", cap * edges)
        batches.clear()
        assert pipeline_color(g, L, params, rounds, rng_of(seed)) == want
        cuts = []
        for trials, _ in batches:
            width = -(-trials // -(-trials // cap))
            cuts.append([min(width, trials - s) for s in range(0, trials, width)])
        if want.succeeded:
            t = want.rounds_used - sum(trials for trials, _ in batches[:-1]) - 1
            k = int(np.searchsorted(np.cumsum(cuts[-1]), t, side="right"))
            placed.append((k, len(cuts[-1])))
            cuts[-1] = cuts[-1][: k + 1]
        else:
            placed.append(None)
        assert [widths for _, widths in batches] == cuts
    # (the good trial's slice, the slices of its batch): the first of 8 trials'
    # two, the second of 16 trials' four, the last of 8's and of 5's 3 + 2
    assert placed == [(0, 2), (1, 4), (1, 2), (1, 2), None]


class _CountingRng:
    """A Generator whose method calls are recorded by name."""

    def __init__(self, rng):
        self.rng, self.calls = rng, []

    def __getattr__(self, name):
        method = getattr(self.rng, name)

        def counted(*args, **kwargs):
            self.calls.append(name)
            return method(*args, **kwargs)

        return counted


@pytest.mark.parametrize(
    "trials", [1, 2, ROW_DRAWS - 1, ROW_DRAWS, TRIAL_CHUNK - 1, TRIAL_CHUNK, TRIAL_CHUNK + 1]
)
def test_color_draws_follow_the_per_vertex_stream(trials):
    """draw_trials' color indices, and the generator state it leaves, equal a
    per-vertex rng.integers reference, for lists of size 1 and of 64 or more;
    it draws every index in one call below ROW_DRAWS trials, and from there
    one call per list of two or more colors."""
    sizes = [1, 64, 1, 100, 67, 1]
    g = Graph.from_edges(len(sizes), [])
    inst = compile_lists(g, make_lists([range(k) for k in sizes]))
    params = ProcedureParams()
    rng = _CountingRng(rng_of(11))
    act, phi_idx, _ = draw_trials(inst, params, None, trials, rng)
    assert rng.calls.count("integers") == (1 if trials < ROW_DRAWS else sum(k > 1 for k in sizes))
    ref = rng_of(11)
    assert np.array_equal(act, ref.random((len(sizes), trials)) < params.rho)
    assert np.array_equal(phi_idx, draw_color_indices(sizes, trials, ref))
    assert phi_idx.dtype == np.int32
    for draw in (lambda r: r.integers(1000, size=3), lambda r: r.random(3)):
        assert np.array_equal(draw(rng.rng), draw(ref))


class TestSamplerMatchesReference:
    @given(list_instance(), st.sampled_from([0.0, 0.5, 0.9, 1.0]))
    @_with_examples(COMPILE_EDGE_CASES, rho=0.9)
    @settings(max_examples=60, deadline=None)
    def test_keep_table_of_compiled_lists(self, case, rho):
        g, L = case
        ca = make_total(g, identity_correspondence(g, L))
        inst = compile_lists(g, L)
        table = keep_table(inst, rho)
        assert table.shape == (g.n,)
        for v in range(g.n):
            for c in L[v]:
                assert table[v] == keep_probability(g, ca, rho, v, c)

    @given(sampler_instance())
    @example(_edgeless_case())
    @example(_isolated_vertex_case())
    @settings(max_examples=80, deadline=None)
    def test_per_trial(self, inst_case):
        g, ca, params, equalize, seed = inst_case
        inst = compile_instance(g, ca)
        table, ordered = keep_table(inst, params.rho), sorted_lists(inst)
        for v in range(g.n):
            for c in ordered[v]:
                assert table[v] == keep_probability(g, ca, params.rho, v, c)
        prec = list_size_order(ca.lists)
        trials = 6
        act, phi_idx, heads = draw_trials(
            inst, params, table if equalize else None, trials, np.random.default_rng(seed)
        )
        batch = stack_trials(inst, params, act, phi_idx, heads)
        uncolored_settled, unact_settled, save_drop, removed = settle_trials(
            inst, act, phi_idx, heads
        )
        assert np.array_equal(uncolored_settled, batch.uncolored)
        assert np.array_equal(unact_settled, batch.unact)
        assert removed.shape == (inst.start[-1], trials) and removed.dtype == bool
        for t in range(trials):
            phi = tuple(ordered[v][i] for v, i in enumerate(phi_idx[:, t].tolist()))
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
                # the colors v loses to its colored neighbors: L(v) minus L'(v)
                lost = np.flatnonzero(removed[inst.start[v] : inst.start[v + 1], t])
                assert {ordered[v][i] for i in lost.tolist()} == ca.lists[v] - res.lists[v]
            # the completion, on every trial: those that pass the savings
            # check (the ones pipeline_color completes) and those that block
            color, blocked = greedy_complete(
                inst, phi_idx[:, t], batch.uncolored[:, t], removed[:, t]
            )
            want, want_blocked = complete_reference(g, ca, phi, uncolored)
            assert blocked == want_blocked
            if want is None:
                assert color is None
            else:
                assert {v: ordered[v][i] for v, i in enumerate(color.tolist())} == want


def _narrow_chunk_case():
    """A general correspondence at sigma = 1/4: vertex 0 has three egalitarian
    neighbors, one with a color matched to none of its own, and a smaller
    non-egalitarian one; vertex 5 is isolated."""
    g = Graph.from_edges(6, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (2, 3)])
    L = make_lists([range(3), range(4), range(3), range(1, 5), range(2), range(3)])
    matchings = {
        (0, 1): frozenset({(0, 3), (2, 0)}),
        (0, 2): frozenset({(1, 2)}),
        (0, 3): frozenset(),
        (0, 4): frozenset({(2, 1)}),
        (1, 2): frozenset(),
        (2, 3): frozenset({(0, 4)}),
    }
    ca = make_total(g, CorrespondenceAssignment(L, matchings))
    return g, ca, ProcedureParams(sigma=Fraction(1, 4), rho=0.9)


def test_savings_per_trial_across_a_narrow_last_chunk():
    """The coded table is scaled by the widest chunk's width: at TRIAL_CHUNK + 3
    trials, drawn chunk by chunk as draw_left draws them, the last chunk is 3
    trials wide and is read through the plan of the first.  Every trial
    matches the scalar reference, on an uncolored set it computes itself."""
    g, ca, params = _narrow_chunk_case()
    inst = compile_instance(g, ca)
    ordered = sorted_lists(inst)
    trials = TRIAL_CHUNK + 3
    chunks = chunked_draws(inst, params, keep_table(inst, params.rho), trials, rng_of(10))
    assert [act.shape[1] for act, _, _ in chunks] == [TRIAL_CHUNK, 3]
    act, phi_idx, heads = (np.concatenate(a, axis=1) for a in zip(*chunks))
    batch = stack_chunks(inst, params, chunks)
    prec = list_size_order(ca.lists)
    want = np.empty((4, g.n, trials), dtype=np.int64)
    for t in range(trials):
        phi = tuple(ordered[v][i] for v, i in enumerate(phi_idx[:, t].tolist()))
        unc = frozenset(
            _uncolored_naive(g, ca, phi, act[:, t]) | set(np.flatnonzero(heads[:, t]).tolist())
        )
        assert set(np.flatnonzero(batch.uncolored[:, t]).tolist()) == unc
        pc = PartialColoring(phi, unc, frozenset(np.flatnonzero(act[:, t]).tolist()))
        s = savings_of(g, ca, params, prec, pc)
        want[:, :, t] = s.aberrance, s.pairs, s.trips, s.unact
    # every component is exercised, the last chunk's aberrance and unact too
    assert want.any(axis=(1, 2)).all() and want[[0, 3], :, TRIAL_CHUNK:].any(axis=(1, 2)).all()
    got = np.stack([batch.aberrance, batch.pairs, batch.trips, batch.unact])
    assert np.array_equal(got, want)


def test_evaluators_only_read_the_draws():
    """uncolored_trials, savings_rows, settle_trials and greedy_complete take
    read-only arrays and give what they give on writeable copies, and leave
    the caller's arrays as they were: the draws they are handed are reused.
    Color indices in int32, as draw_trials draws them, give what int64 ones
    give."""
    g = gen_gnp(30, 0.2, 3)
    L = make_lists([range(len(g.adj[v]) + 1) for v in range(g.n)])
    inst, params = compile_lists(g, L), ProcedureParams(sigma=Fraction(1, 4))
    act, phi_idx, heads = equalized_draws(inst, params, 2 * TRIAL_CHUNK + 3, 5)
    kept = [a.copy() for a in (act, phi_idx, heads)]
    want = stack_trials(inst, params, act.copy(), phi_idx.copy(), heads.copy())
    settled = settle_trials(inst, act.copy(), phi_idx.copy(), heads.copy())
    plan = plan_of(inst, params, 2 * TRIAL_CHUNK + 3)
    completed = []
    for dtype in (np.int64, np.int32):
        draws = (act, phi_idx.astype(dtype), heads)
        for a in draws:
            a.flags.writeable = False
        uncolored = uncolored_trials(plan, *draws)
        left = phi_left(inst, draws[1], uncolored).astype(dtype)
        left.flags.writeable = False
        got = np.stack(list(savings_rows(plan, act, left)), axis=1)
        assert np.array_equal(uncolored, want.uncolored)
        assert np.array_equal(got, [want.aberrance, want.pairs, want.trips, want.unact])
        got_settled = settle_trials(inst, *draws)
        assert all(np.array_equal(a, b) for a, b in zip(got_settled, settled, strict=True))
        removed = got_settled[3]
        removed.flags.writeable = False
        runs = [
            greedy_complete(inst, draws[1][:, t], uncolored[:, t], removed[:, t])
            for t in range(draws[1].shape[1])
        ]
        completed.append([(None if c is None else c.tolist(), b) for c, b in runs])
        assert all(np.array_equal(a, b) for a, b in zip(draws, kept, strict=True))
    assert completed[0] == completed[1]
    assert any(c is not None for c, _ in completed[0])


def test_uncolored_trials_compares_coded_rows_in_int64():
    """The coded row of v's color index i is (i + 2) * stride, past 2^31 for
    int32 indices from i = 2^21 at 1,024 trials, so it is taken in int64.  A
    hand-built plan: vertex 1 threatens vertex 0, and its color 0 matches
    v's index 2^21 (trial 0), its color 1 none (trial 1)."""
    i, stride = 1 << 21, TRIAL_CHUNK
    code = np.array([(i + 2) * stride, stride])  # vertex 1's block, no sentinel read
    empty = np.zeros(0, dtype=np.int64)
    plan = procedure.EstimatePlan(
        stride, threats=(np.array([1]), np.array([[0]]), [0, 1, 1]),
        egal=(empty, empty[:, None], [0, 0, 0]), small=(empty, [0, 0, 0]), code=code,
    )
    phi_idx = np.array([[i, i], [0, 1]], dtype=np.int32)
    act, heads = np.ones((2, 2), dtype=bool), np.zeros((2, 2), dtype=bool)
    assert uncolored_trials(plan, act, phi_idx, heads).tolist() == [[True, False], [False, False]]


def test_savings_rows_names_a_chunk_wider_than_its_plan():
    # the count grids' rows are the plan's stride long, so a wider chunk
    # would spill each trial's counts into the next row
    inst, params = compile_lists(star(5), uniform_lists(6, 6)), ProcedureParams()
    act, phi_idx, _ = equalized_draws(inst, params, 3, 0)
    with pytest.raises(ValueError, match="3 trials"):
        next(savings_rows(plan_of(inst, params, 2), act, phi_idx))


def _blocked_k4_case():
    """K4 with one 2-color list and three 3-color lists, every color shared:
    the three larger lists are completed first and use all of 0, 1, 2, so
    vertex 0, last in the order, is blocked."""
    g = Graph.from_edges(4, itertools.combinations(range(4), 2))
    L = make_lists([range(2), range(3), range(3), range(3)])
    return g, make_total(g, identity_correspondence(g, L)), ProcedureParams(), True, 0


@given(sampler_instance())
@example(_blocked_k4_case())
@example(_isolated_vertex_case())
@settings(max_examples=80, deadline=None)
def test_greedy_complete_with_every_vertex_uncolored(inst_case):
    """The completion where it reads the most edges between uncolored
    vertices, and no kept neighbor clears a color: every vertex uncolored,
    against the frozenset residual path, blocked vertex included."""
    g, ca, _, _, seed = inst_case
    inst = compile_instance(g, ca)
    phi_idx = np.array([seed % size for size in inst.sizes.tolist()], dtype=np.int64)
    ordered = sorted_lists(inst)
    phi = tuple(ordered[v][i] for v, i in enumerate(phi_idx.tolist()))
    removed = np.zeros(int(inst.start[-1]), dtype=bool)
    color, blocked = greedy_complete(inst, phi_idx, np.ones(g.n, dtype=bool), removed)
    want, want_blocked = complete_reference(g, ca, phi, frozenset(range(g.n)))
    assert blocked == want_blocked
    if want is None:
        assert color is None
    else:
        assert {v: ordered[v][i] for v, i in enumerate(color.tolist())} == want


# SHA-256 of each stacked batch field (dtype, bytes) of the instance below,
# and of the save_drop settle_trials computes on the same draws.  They pin the
# random stream of draw_trials and every value of uncolored_trials and
# savings_rows, which `estimate` output depends on byte for byte.  The 2500
# trials are drawn and evaluated in one pass, wider than estimate's chunks.
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
    draws = equalized_draws(inst, params, 2500, 11)
    batch = stack_trials(inst, params, *draws)
    uncolored, unact, save_drop, _ = settle_trials(inst, *draws)
    assert np.array_equal(uncolored, batch.uncolored) and np.array_equal(unact, batch.unact)
    got = {
        name: (a.dtype.str, hashlib.sha256(a.tobytes()).hexdigest())
        for name, a in {
            **vars(batch), "phi_idx": batch.phi_idx.astype("<i8"), "save_drop": save_drop
        }.items()
    }
    assert got == GOLDEN_BATCH


# Checks settle_trials' save_drop against residual() on lists of 70 colors,
# on naive trials.  It runs under `python -O`, so a check that lives in an
# assert would be gone.
SAVE_DROP_SCRIPT = """
import sys
import numpy as np
from localcolor.graph import Graph
from localcolor.lists import make_lists
from localcolor.procedure import ProcedureParams, compile_lists, draw_trials, settle_trials
from scalar_reference import identity_correspondence, make_total, residual

g = Graph.from_edges(70, [(0, i) for i in range(1, 70)])
L = make_lists([range(70)] * 70)
ca = make_total(g, identity_correspondence(g, L))
inst = compile_lists(g, L)
rng = np.random.default_rng(np.random.Philox(5))
act, phi_idx, heads = draw_trials(inst, ProcedureParams(rho=0.9), None, 300, rng)
uncolored, _, save_drop, _ = settle_trials(inst, act, phi_idx, heads)
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
