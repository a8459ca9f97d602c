import itertools
import json
import random
from fractions import Fraction

import networkx as nx
import pytest

from exact import induced
from localcolor.cli import main
from localcolor.extraction import extract_dense_subgraph
from localcolor.formats import emit_dimacs
from localcolor.graph import Graph, average_degree


def complete(n):
    return Graph.from_edges(n, itertools.combinations(range(n), 2))


ALPHA = Fraction(1, 4)
EPS = Fraction(1, 100)


class TestExtraction:
    def test_complete_graph_keeps_everything(self):
        res = extract_dense_subgraph(complete(8), ALPHA, EPS)
        assert res.kept == tuple(range(8))
        assert not res.removed_high and not res.removed_peel

    def test_regular_graph_keeps_everything(self):
        G = nx.random_regular_graph(4, 12, seed=1)
        g = Graph.from_edges(12, G.edges())
        res = extract_dense_subgraph(g, ALPHA, EPS)
        assert res.kept == tuple(range(12))

    def test_pendant_violates_precondition(self):
        # two K5's plus a pendant: delta = 1 but ad is far above 2
        edges = list(itertools.combinations(range(5), 2))
        edges += [(5 + u, 5 + v) for u, v in itertools.combinations(range(5), 2)]
        edges.append((0, 10))
        g = Graph.from_edges(11, edges)
        assert average_degree(g) > (1 + EPS) * g.min_degree()
        with pytest.raises(ValueError, match="average degree"):
            extract_dense_subgraph(g, ALPHA, EPS)

    def test_partition(self):
        G = nx.random_regular_graph(6, 20, seed=3)
        g = Graph.from_edges(20, G.edges())
        res = extract_dense_subgraph(g, ALPHA, EPS)
        pieces = set(res.kept) | set(res.removed_high) | set(res.removed_peel)
        assert pieces == set(range(20))
        assert len(res.kept) + len(res.removed_high) + len(res.removed_peel) == 20

    def test_degree_bounds_exact(self):
        rng = random.Random(5)
        for _ in range(25):
            d = rng.choice([4, 6, 8])
            n = rng.choice([12, 16, 20])
            G = nx.random_regular_graph(d, n, seed=rng.randrange(10**6))
            g = Graph.from_edges(n, G.edges())
            res = extract_dense_subgraph(g, ALPHA, EPS)
            assert res.kept
            kept = set(res.kept)
            delta = g.min_degree()
            for v in res.kept:
                dk = sum(1 for u in g.adj[v] if u in kept)
                assert dk >= Fraction(1 - ALPHA, 2) * delta
                assert len(g.adj[v]) <= (1 + (1 + ALPHA) / (ALPHA - EPS) * EPS) * delta

    def test_idempotent(self):
        G = nx.random_regular_graph(6, 14, seed=9)
        g = Graph.from_edges(14, G.edges())
        res = extract_dense_subgraph(g, ALPHA, EPS)
        sub = induced(g, res.kept)
        res2 = extract_dense_subgraph(sub, ALPHA, EPS)
        assert res2.kept == tuple(range(sub.n))

    def test_domain(self):
        with pytest.raises(ValueError):
            extract_dense_subgraph(complete(4), Fraction(1, 100), Fraction(1, 4))


def extract_oracle(g, alpha, eps):
    """(kept, removed_high, removed_peel) by the definition: drop the vertices
    above the high cutoff, then, recounting every degree at each step, remove
    the lowest-id vertex below the low cutoff until none is."""
    delta = min(len(g.adj[v]) for v in range(g.n))
    high = (1 + (1 + alpha) / (alpha - eps) * eps) * delta
    low = Fraction(1 - alpha, 2) * delta
    removed_high = [v for v in range(g.n) if len(g.adj[v]) > high]
    alive = [v for v in range(g.n) if v not in removed_high]
    removed_peel = []
    while below := [v for v in alive if sum(u in alive for u in g.adj[v]) < low]:
        removed_peel.append(below[0])
        alive.remove(below[0])
    return tuple(alive), tuple(removed_high), tuple(removed_peel)


def circulant_plus(n, steps, extra):
    """The circulant graph joining v to v +- s (mod n) for s in steps, plus the
    `extra` edges."""
    return Graph.from_edges(n, [(v, (v + s) % n) for v in range(n) for s in steps] + extra)


PEEL_CASES = {
    # 4-regular, plus four edges that lift every neighbor of vertex 0 to degree
    # 6 > 11/2: once they are dropped vertex 0 is isolated, below the cutoff 1.
    # The average degree 22/5 is exactly (1 + eps) delta.
    "isolated": (
        circulant_plus(20, (1, 5), [(1, 5), (5, 19), (19, 15), (15, 1)]),
        Fraction(1, 2), Fraction(1, 10), (1, 5, 15, 19), (0,),
    ),
    # 6-regular, plus two edges that lift four neighbors of vertex 0 to degree
    # 7 > 34/5: vertex 0 keeps two neighbors, below the cutoff 12/5, and its
    # removal leaves vertex 1 with one, so the peel lowers a live degree
    "cascade": (
        circulant_plus(34, (1, 2, 3), [(2, 32), (3, 33)]),
        Fraction(1, 5), Fraction(1, 50), (2, 3, 32, 33), (0, 1),
    ),
}


@pytest.mark.parametrize("name", PEEL_CASES)
def test_peel_matches_the_oracle(name):
    g, alpha, eps, high, peel = PEEL_CASES[name]
    assert average_degree(g) <= (1 + eps) * g.min_degree()
    res = extract_dense_subgraph(g, alpha, eps)
    assert (res.removed_high, res.removed_peel) == (high, peel)
    assert (res.kept, res.removed_high, res.removed_peel) == extract_oracle(g, alpha, eps)


def test_peel_through_the_cli(tmp_path, monkeypatch, capsys):
    g, alpha, eps, _, _ = PEEL_CASES["isolated"]
    monkeypatch.chdir(tmp_path)
    (tmp_path / "g.col").write_text(emit_dimacs(g))
    capsys.readouterr()
    assert main(["extract", "--graph", "g.col", "--alpha", str(alpha), "--eps", str(eps)]) == 0
    kept, removed_high, removed_peel = extract_oracle(g, alpha, eps)
    assert json.loads(capsys.readouterr().out) == {
        "kept": list(kept), "removed_high": list(removed_high), "removed_peel": list(removed_peel),
    }
