"""Simple undirected graphs and the exact combinatorial primitives built on them.

Vertices are integers 0..n-1.  Graphs are immutable after construction, so
every operation here is a pure function and safe for concurrent reads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from typing import Iterable

import networkx as nx


class GraphError(ValueError):
    """Raised for malformed graphs or out-of-range vertex ids."""


@dataclass(frozen=True)
class Graph:
    """Adjacency-set graph.  No self-loops, symmetric adjacency."""

    n: int
    adj: tuple[frozenset[int], ...]

    def __post_init__(self):
        if self.n < 0 or len(self.adj) != self.n:
            raise GraphError("adjacency length must equal vertex count")
        for v, nbrs in enumerate(self.adj):
            for u in nbrs:
                if not (0 <= u < self.n):
                    raise GraphError(f"neighbor {u} of {v} out of range")
                if u == v:
                    raise GraphError(f"self-loop at {v}")
                if v not in self.adj[u]:
                    raise GraphError(f"asymmetric edge {v}-{u}")

    @staticmethod
    def from_edges(n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        adj = [set() for _ in range(n)]
        for u, v in edges:
            if u == v:
                raise GraphError(f"self-loop at {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise GraphError(f"edge ({u},{v}) out of range")
            adj[u].add(v)
            adj[v].add(u)
        return Graph(n, tuple(frozenset(a) for a in adj))

    def edges(self) -> list[tuple[int, int]]:
        return [(u, v) for u in range(self.n) for v in self.adj[u] if u < v]

    def edge_count(self) -> int:
        return sum(len(a) for a in self.adj) // 2

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.adj[u]

    def min_degree(self) -> int:
        return min((len(a) for a in self.adj), default=0)

    def subgraph(self, vertices: Iterable[int]) -> "Graph":
        """Induced subgraph, relabeled to 0..k-1 in sorted vertex order."""
        vs = sorted(set(vertices))
        index = {v: i for i, v in enumerate(vs)}
        return Graph.from_edges(
            len(vs),
            ((index[u], index[v]) for u, v in self.edges() if u in index and v in index),
        )

    def to_networkx(self) -> nx.Graph:
        g = nx.Graph()
        g.add_nodes_from(range(self.n))
        g.add_edges_from(self.edges())
        return g


@dataclass(frozen=True)
class Matching:
    """A set of vertex-disjoint unordered pairs."""

    edges: frozenset[tuple[int, int]] = field(default_factory=frozenset)

    def __post_init__(self):
        seen: set[int] = set()
        for u, v in self.edges:
            if u >= v:
                raise GraphError(f"matching pair ({u},{v}) must be ordered u < v")
            if u in seen or v in seen:
                raise GraphError("matching pairs must be vertex-disjoint")
            seen.update((u, v))

    @staticmethod
    def of(pairs: Iterable[tuple[int, int]]) -> "Matching":
        return Matching(frozenset((min(p), max(p)) for p in pairs))

    def vertices(self) -> frozenset[int]:
        return frozenset(x for e in self.edges for x in e)

    def __len__(self) -> int:
        return len(self.edges)


def _check_vertex(g: Graph, v: int) -> None:
    if not (0 <= v < g.n):
        raise GraphError(f"vertex {v} out of range [0, {g.n})")


def degree(g: Graph, v: int) -> int:
    _check_vertex(g, v)
    return len(g.adj[v])


def _max_clique_in(g: Graph, candidates: frozenset[int]) -> int:
    """Size of a maximum clique within the candidate set (Bron-Kerbosch with pivot)."""
    best = 0

    def extend(r: int, p: set[int], x: set[int]) -> None:
        nonlocal best
        if not p and not x:
            best = max(best, r)
            return
        if r + len(p) <= best:
            return
        pivot = max(p | x, key=lambda u: len(g.adj[u] & p))
        for v in list(p - g.adj[pivot]):
            extend(r + 1, p & g.adj[v], x & g.adj[v])
            p.remove(v)
            x.add(v)

    extend(0, set(candidates), set())
    return best


def local_clique_number(g: Graph, v: int) -> int:
    """Size of a largest clique containing v; exact search over N(v)."""
    _check_vertex(g, v)
    return 1 + _max_clique_in(g, g.adj[v])


def max_clique_size(g: Graph) -> int:
    if g.n == 0:
        return 0
    return max(local_clique_number(g, v) for v in range(g.n))


def complement_edge_count(g: Graph, s: Iterable[int]) -> int:
    """Edge count of the complement of the subgraph induced on s."""
    vs = sorted(set(s))
    for v in vs:
        _check_vertex(g, v)
    inside = sum(1 for u, v in combinations(vs, 2) if g.has_edge(u, v))
    k = len(vs)
    return k * (k - 1) // 2 - inside


def triangle_count(g: Graph) -> int:
    count = 0
    for u, v in g.edges():
        count += sum(1 for w in g.adj[u] & g.adj[v] if w > v)
    return count


def rivin_triangle_bound(edge_count: int) -> float:
    """Upper bound (2m)^(3/2)/6 on the number of triangles of an m-edge graph."""
    return (2 * edge_count) ** 1.5 / 6


def complement_subgraph(g: Graph, s: Iterable[int]) -> tuple[Graph, list[int]]:
    """Complement of g[s], relabeled 0..k-1; returns the graph and original labels."""
    vs = sorted(set(s))
    k = len(vs)
    edges = [
        (i, j)
        for i, j in combinations(range(k), 2)
        if not g.has_edge(vs[i], vs[j])
    ]
    return Graph.from_edges(k, edges), vs


def max_antimatching(g: Graph, s: Iterable[int]) -> Matching:
    """Maximum matching in the complement of g[s] (blossom algorithm)."""
    comp, labels = complement_subgraph(g, s)
    mate = nx.max_weight_matching(comp.to_networkx(), maxcardinality=True)
    return Matching.of((labels[a], labels[b]) for a, b in mate)


def average_degree(g: Graph) -> Fraction:
    if g.n == 0:
        raise GraphError("average degree of the empty graph is undefined")
    return Fraction(2 * g.edge_count(), g.n)


def _denser_subset(g: Graph, target: Fraction) -> list[int] | None:
    """Nonempty S with 2|E(S)|/|S| > target, or None.

    Goldberg's max-flow construction with integer-scaled capacities, so the
    strict comparison is exact.
    """
    m = g.edge_count()
    if m == 0:
        return None
    # Test m(S)/|S| > p/q where p/q = target/2.
    half = target / 2
    p, q = half.numerator, half.denominator
    net = nx.DiGraph()
    for v in range(g.n):
        net.add_edge("s", v, capacity=m * q)
        net.add_edge(v, "t", capacity=m * q + 2 * p - q * len(g.adj[v]))
    for u, v in g.edges():
        net.add_edge(u, v, capacity=q)
        net.add_edge(v, u, capacity=q)
    cut_value, (source_side, _) = nx.minimum_cut(net, "s", "t")
    if cut_value >= m * g.n * q:
        return None
    dense = sorted(v for v in source_side if v != "s")
    return dense or None


def mad_exact(g: Graph) -> Fraction:
    """Maximum average degree over all nonempty subgraphs, as an exact rational."""
    if g.n < 1:
        raise GraphError("mad requires at least one vertex")
    if g.edge_count() == 0:
        return Fraction(0)
    best = average_degree(g)
    while True:
        better = _denser_subset(g, best)
        if better is None:
            return best
        sub = g.subgraph(better)
        candidate = average_degree(sub)
        if candidate <= best:  # cannot happen; guards against a flow bug
            raise RuntimeError("densest-subgraph improvement step failed to improve")
        best = candidate
