"""Acceptance gate: twelve end-to-end criteria, one pass/fail line each.

Each test prints its verdict through capsys.disabled() so the line reaches
the terminal even under output capture, then asserts it.
"""

import itertools
import math
import random
import time
from fractions import Fraction

import networkx as nx
import numpy as np
import pytest

from exact import (
    KnmInstance,
    brute_force_L_colorable,
    class_of,
    clique_search,
    color_knm,
    is_L_critical,
    rivin_triangle_bound,
    triangle_count,
)
from localcolor.bounds import (
    aberrance_lower_bound,
    ky_bound,
    minor_constants_check,
    pairs_trips_lower_bound,
    savings_gap_certificate,
    talagrand_tail,
    unact_expectation,
)
from localcolor.extraction import extract_dense_subgraph
from localcolor.generators import gen_c5_blowup, gen_gnp
from localcolor.graph import Graph, Matching, average_degree
from localcolor.knm import density_audit
from localcolor.lists import is_proper, make_lists, uniform_lists
from localcolor.procedure import (
    TRIAL_CHUNK,
    PreconditionError,
    ProcedureParams,
    check_equalization_precondition,
    compile_lists,
    default_rho,
    keep_constant,
    pipeline_color,
    savings_rows,
    settle_trials,
    uncolored_trials,
)
from scalar_reference import identity_correspondence, is_lm_coloring, make_total
from stacked import (
    equalized_draws,
    keep_frequency,
    naive_draws,
    phi_left,
    plan_of,
    stack_trials,
    stacked_batch,
)

PARAMS = ProcedureParams()


def report(capsys, num, ok, detail):
    with capsys.disabled():
        print(f"ACCEPTANCE {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def random_knm_instance(rng: random.Random, n_max=12) -> KnmInstance:
    n = rng.randint(2, n_max)
    verts = list(range(n))
    rng.shuffle(verts)
    m_size = rng.randint(0, n // 2)
    pairs = [(verts[2 * i], verts[2 * i + 1]) for i in range(m_size)]
    matched = {v for p in pairs for v in p}
    rows = []
    universe = list(range(n + 3))
    for v in range(n):
        lo = max(m_size, (n + 1) // 2) if v in matched else n - m_size
        rows.append(rng.sample(universe, rng.randint(min(lo, n), n)))
    return KnmInstance(n, Matching.of(pairs), make_lists(rows))


def test_01_knm_solver_thousand_instances(capsys):
    rng = random.Random(424242)
    t0 = time.time()
    bad = 0
    for _ in range(1000):
        inst = random_knm_instance(rng)
        c = color_knm(inst)
        if not is_proper(inst.graph(), inst.lists, c):
            bad += 1
    elapsed = time.time() - t0
    ok = bad == 0 and elapsed < 5.0
    report(capsys, 1, ok, f"1000 instances, {bad} improper, {elapsed:.2f}s (< 5s)")


def all_maximal_antimatchings(g: Graph, subset):
    edges = [(u, v) for u, v in itertools.combinations(sorted(subset), 2) if not g.has_edge(u, v)]

    results = set()

    def rec(current, used, rest):
        extendable = [
            (u, v) for u, v in rest if u not in used and v not in used
        ]
        if not extendable:
            results.add(frozenset(current))
            return
        for i, (u, v) in enumerate(extendable):
            rec(current | {(u, v)}, used | {u, v}, extendable[i + 1 :])
        # also the branch skipping every remaining edge is maximal only if
        # nothing extends, which the base case above already covers

    rec(frozenset(), frozenset(), edges)
    return [Matching.of(m) for m in results]


def test_02_density_audit_exhaustive(capsys):
    instances = []
    for G in nx.graph_atlas_g():
        n = G.number_of_nodes()
        if n == 0 or n > 6:
            continue
        g = Graph.from_edges(n, G.edges())
        for k in (1, 2, 3):
            L = uniform_lists(n, k)
            if is_L_critical(g, L):
                instances.append((g, L))
    # explicit equal-list cases
    c5 = Graph.from_edges(5, [(i, (i + 1) % 5) for i in range(5)])
    k3 = Graph.from_edges(3, [(0, 1), (0, 2), (1, 2)])
    instances += [(c5, uniform_lists(5, 2)), (k3, uniform_lists(3, 2))]

    violations = checked = 0
    for g, L in instances:
        for r in range(g.n + 1):
            for subset in itertools.combinations(range(g.n), r):
                s = frozenset(subset)
                for m in all_maximal_antimatchings(g, s):
                    rec = density_audit(g, L, s, m)
                    checked += 1
                    if not rec.holds:
                        violations += 1
    ok = violations == 0 and len(instances) >= 4
    report(
        capsys, 2, ok,
        f"{len(instances)} critical instances, {checked} audits, {violations} violations",
    )


def _generous_instance(seed, n=8, p=0.5):
    g = gen_gnp(n, p, seed)
    rng = random.Random(seed)
    rows = [list(range(len(g.adj[v]) + 1 + rng.randint(0, 2))) for v in range(g.n)]
    return compile_lists(g, make_lists(rows))


def test_03_equalized_keep_probability(capsys):
    k = PARAMS.keep
    failures = 0
    tested = 0
    seed = 0
    while tested < 50:
        seed += 1
        inst = _generous_instance(1000 + seed)
        try:
            check_equalization_precondition(inst, PARAMS)
        except PreconditionError:
            continue
        tested += 1
        # only the uncolored pass: the keep rate needs no savings
        draws = equalized_draws(inst, PARAMS, 10**5, seed)
        uncolored = uncolored_trials(plan_of(inst, PARAMS, 10**5), *draws)
        # one designated (vertex, color) per instance: vertex 0, least color
        c0 = inst.values[0].item()
        freq, m = keep_frequency(draws[1], uncolored, inst, 0)[c0]
        se = math.sqrt(k * (1 - k) / m)
        if abs(freq - k) > 3 * se:
            failures += 1
    ok = failures == 0
    report(capsys, 3, ok, f"50 instances at 1e5 trials, {failures} outside 3 SE of K")


def test_04_unact_exact_expectation(capsys):
    star = Graph.from_edges(9, [(0, i) for i in range(1, 9)])
    L = make_lists([list(range(9))] + [list(range(4))] * 8)
    inst = compile_lists(star, L)
    bad = []
    for rho in (0.0, 0.3, float(default_rho(Fraction(1, 50))), 1.0):
        params = ProcedureParams(rho=rho)
        batch = stacked_batch(inst, params, 50_000, 4042, equalize=False)
        mean = batch.unact[0].mean()
        want = unact_expectation(rho, 8)
        var = batch.unact[0].var(ddof=1)
        se = math.sqrt(var / batch.unact.shape[1])
        if abs(mean - want) > max(3 * se, 1e-12):
            bad.append(rho)
    report(capsys, 4, not bad, f"E[Unact] vs (1-rho)*8 across 4 rho values, bad={bad}")


def _savings_corpus():
    corpus = []
    # star with weakly egalitarian, lordlier, and strongly egalitarian leaves
    star = Graph.from_edges(52, [(0, i) for i in range(1, 52)])
    rows = (
        [list(range(51))]
        + [list(range(52))] * 20
        + [list(range(53))] * 20
        + [list(range(51))] * 11
    )
    corpus.append((star, make_lists(rows), (0,)))
    # uniform-list blowups: pairs-minus-trips territory
    for t in (2, 3):
        g = gen_c5_blowup(t)
        corpus.append((g, uniform_lists(g.n, 3 * t + 1), tuple(range(g.n))))
    # generous random instance
    g = gen_gnp(9, 0.5, 77)
    corpus.append(
        (g, make_lists([list(range(len(g.adj[v]) + 2)) for v in range(g.n)]), tuple(range(g.n)))
    )
    return corpus


def test_05_savings_lower_bounds(capsys):
    k = PARAMS.keep
    failures = []
    for idx, (g, L, verts) in enumerate(_savings_corpus()):
        batch = stacked_batch(compile_lists(g, L), PARAMS, 40_000, 500 + idx)
        T = batch.aberrance.shape[1]
        for v in verts:
            d = len(g.adj[v])
            gap_v = d + 1 - clique_search(g, v)
            code = [class_of(len(L[u]), len(L[v]), gap_v, PARAMS.alpha, PARAMS.beta)
                    for u in sorted(g.adj[v])]
            ab_bound = aberrance_lower_bound(
                k, PARAMS.alpha, PARAMS.beta, gap_v, d, code.count(3), code.count(2),
            )
            mean = batch.aberrance[v].mean()
            se = math.sqrt(batch.aberrance[v].var(ddof=1) / T)
            if mean < ab_bound - 3 * se:
                failures.append((idx, v, "aberrance"))
            egal = [u for u, c in zip(sorted(g.adj[v]), code) if c in (1, 2)]
            e1 = sum(1 for u, w in itertools.combinations(egal, 2) if w not in g.adj[u])
            e2 = d * (d - 1) // 2
            pt_bound = pairs_trips_lower_bound(k, PARAMS.alpha, len(L[v]), e1, e2)
            pt = batch.pairs[v] - batch.trips[v]
            mean = pt.mean()
            se = math.sqrt(pt.var(ddof=1) / T)
            if mean < pt_bound - 3 * se:
                failures.append((idx, v, "pairs-trips"))
    report(capsys, 5, not failures, f"corpus bound checks, failures={failures[:4]}")


def test_06_per_trial_save_inequality(capsys):
    checked = bad = 0
    seed = 0
    while checked < 10**6:
        seed += 1
        inst = _generous_instance(9000 + seed, n=10)
        draws = equalized_draws(inst, PARAMS, 120_000, seed)
        batch = stack_trials(inst, PARAMS, *draws)
        rhs = batch.aberrance + batch.pairs - batch.trips
        # settled in slices: its (edge, trial) arrays span every trial at once
        for start in range(0, 120_000, TRIAL_CHUNK):
            t = slice(start, start + TRIAL_CHUNK)
            unc, _, lhs, _ = settle_trials(inst, *(a[:, t] for a in draws))
            bad += int((unc & (lhs < rhs[:, t])).sum())
            checked += int(unc.sum())
    ok = bad == 0
    report(capsys, 6, ok, f"{checked} (trial, vertex) pairs, {bad} violations")


def test_07_constant_certification(capsys):
    rho = float(default_rho(Fraction(1, 50)))
    cert = savings_gap_certificate(1 / 50, 1 / 50, 1 / 330, rho)
    minor = minor_constants_check(Fraction(499, 1000), Fraction(99982, 100000))
    ky_ok = ky_bound(4, 4) == 6 and ky_bound(5, 5) == 10
    ok = cert.holds and minor.holds and ky_ok
    report(
        capsys, 7, ok,
        f"certificate {cert.lhs:.6f} >= {cert.rhs:.6f}; minor holds={minor.holds}; ky ok={ky_ok}",
    )


def test_08_epsilon_sharpness(capsys):
    g = gen_c5_blowup(2)
    ok4, _ = brute_force_L_colorable(g, uniform_lists(10, 4))
    ok5, _ = brute_force_L_colorable(g, uniform_lists(10, 5))
    chi_is_5 = (not ok4) and ok5
    # (1 - eps)(Delta + 1) + eps * omega at eps = 0.55
    rhs = 0.45 * 6 + 0.55 * 4
    ok = chi_is_5 and 5 > rhs
    report(capsys, 8, ok, f"chi(C5[K2]) = 5 > {rhs} at eps=0.55")


def test_09_rivin_bound(capsys):
    rng = np.random.default_rng(99)
    violations = 0
    for i in range(10_000):
        n = int(rng.integers(1, 31))
        p = float(rng.random())
        g = gen_gnp(n, p, int(rng.integers(2**31)))
        if triangle_count(g) > rivin_triangle_bound(g.edge_count()) + 1e-9:
            violations += 1
    report(capsys, 9, violations == 0, f"10000 graphs n<=30, {violations} violations")


def test_10_extraction_500(capsys):
    rng = random.Random(321)
    alpha, eps = Fraction(1, 4), Fraction(1, 100)
    faults = 0
    done = 0
    while done < 500:
        d = rng.choice([4, 6, 8, 10])
        n = rng.choice([12, 16, 20, 24])
        G = nx.random_regular_graph(d, n, seed=rng.randrange(10**6))
        g = Graph.from_edges(n, G.edges())
        if rng.random() < 0.3:
            # pepper in an extra non-edge if it keeps the precondition
            non = [
                (u, v)
                for u, v in itertools.combinations(range(n), 2)
                if not g.has_edge(u, v)
            ]
            u, v = rng.choice(non)
            g2 = Graph.from_edges(n, g.edges() + [(u, v)])
            if average_degree(g2) <= (1 + eps) * g2.min_degree():
                g = g2
        done += 1
        try:
            res = extract_dense_subgraph(g, alpha, eps)
        except (ValueError, RuntimeError):
            faults += 1
            continue
        kept = set(res.kept)
        delta = g.min_degree()
        if not kept:
            faults += 1
            continue
        for v in res.kept:
            dk = sum(1 for u in g.adj[v] if u in kept)
            if dk < Fraction(1 - alpha, 2) * delta:
                faults += 1
            if len(g.adj[v]) > (1 + (1 + alpha) / (alpha - eps) * eps) * delta:
                faults += 1
    report(capsys, 10, faults == 0, f"500 extractions, {faults} faults")


def test_11_pipeline_never_improper(capsys):
    # the asymptotic guarantee needs maximum degree beyond log^10 thresholds,
    # far out of desk scale; the substituted check is soundness plus success
    # on the generous-list corpus.  Soundness is checked on the identity
    # correspondence made total, which forbids more pairs than equal colors:
    # pipeline_color itself checks only that the coloring is proper from L.
    corpus = []
    for seed in range(6):
        g = gen_gnp(8, 0.5, 600 + seed)
        corpus.append(
            (g, make_lists([list(range(len(g.adj[v]) + 1)) for v in range(g.n)]))
        )
    c5 = Graph.from_edges(5, [(i, (i + 1) % 5) for i in range(5)])
    corpus.append((c5, uniform_lists(5, 3)))
    totals = [make_total(g, identity_correspondence(g, L)) for g, L in corpus]
    runs = 0
    improper = over_budget = 0
    rng = np.random.default_rng(np.random.Philox(2024))
    while runs < 10_000:
        for (g, L), ca in zip(corpus, totals):
            if runs >= 10_000:
                break
            rep = pipeline_color(g, L, PARAMS, 20, rng)
            runs += 1
            if not rep.succeeded:
                over_budget += 1
            elif not is_lm_coloring(g, ca, rep.coloring):
                improper += 1
    # |L(v)| = d(v) at the center of a big star: the tightest instance that
    # still clears the keep-probability precondition
    star = Graph.from_edges(52, [(0, i) for i in range(1, 52)])
    Ls = make_lists([list(range(51))] + [list(range(52))] * 51)
    ca = make_total(star, identity_correspondence(star, Ls))
    for _ in range(100):
        rep = pipeline_color(star, Ls, PARAMS, 20, rng)
        runs += 1
        if not rep.succeeded:
            over_budget += 1
        elif not is_lm_coloring(star, ca, rep.coloring):
            improper += 1
    ok = improper == 0 and over_budget == 0
    report(
        capsys, 11, ok,
        f"{runs} pipeline runs, {improper} improper, {over_budget} over 20 rounds",
    )


def test_12_talagrand_star(capsys):
    # X = Unact at the center of a 50-leaf star, certifiable with r=1, chg=1
    star = Graph.from_edges(51, [(0, i) for i in range(1, 51)])
    L = make_lists([list(range(51))] + [list(range(4))] * 50)
    inst = compile_lists(star, L)

    def center_unact(trials, seed):
        """stacked_batch(inst, PARAMS, trials, seed, equalize=False).unact[0]:
        the row evaluator stops after the center, vertex 0."""
        act, phi_idx, heads = naive_draws(inst, PARAMS, trials, seed)
        plan = plan_of(inst, PARAMS, trials)
        uncolored = uncolored_trials(plan, act, phi_idx, heads)
        return next(savings_rows(plan, act, phi_left(inst, phi_idx, uncolored)))[3]

    samples = [center_unact(50_000, 7000 + chunk) for chunk in range(20)]
    x = np.concatenate(samples).astype(float)
    assert x.size == 10**6
    ex = x.mean()
    sup_x = 50.0
    exceed = 0
    tested = 0
    for t in (1.0, 2.0, 5.0, 10.0, 50.0, 100.0, 200.0, 500.0):
        rep = talagrand_tail(t, 1, 1.0, ex, 0.0, sup_x)
        if not rep.holds:
            continue  # below the applicability threshold
        tested += 1
        emp = float((np.abs(x - ex) > t).mean())
        if emp > rep.lhs:
            exceed += 1
    ok = exceed == 0 and tested >= 1
    report(
        capsys, 12, ok,
        f"1e6 trials, {tested} applicable t values, {exceed} above the bound",
    )
