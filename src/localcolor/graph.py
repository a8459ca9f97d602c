"""Simple undirected graphs and the exact combinatorial primitives built on them.

Vertices are integers 0..n-1.  A graph is a sorted CSR: the neighbors of v
are nbr[ptr[v]:ptr[v + 1]], in ascending order, so adjacency order does not
depend on the order the edges were given in.  Graphs are immutable after
construction, so every operation here is a pure function and safe for
concurrent reads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from typing import Iterable

import networkx as nx
import numpy as np


class GraphError(ValueError):
    """Raised for malformed graphs or out-of-range vertex ids."""


@dataclass(frozen=True, eq=False)
class Graph:
    """Sorted-CSR graph: int64 arrays ptr (n + 1 offsets) and nbr (each
    vertex's neighbors, ascending).  No self-loops, symmetric adjacency;
    equality and hash compare the arrays."""

    n: int
    ptr: np.ndarray
    nbr: np.ndarray

    def __post_init__(self):
        n = self.n
        ptr, nbr = np.array(self.ptr, dtype=np.int64), np.array(self.nbr, dtype=np.int64)
        if n < 0:
            raise GraphError(f"vertex count {n} is negative")
        if ptr.shape != (n + 1,) or nbr.ndim != 1 or ptr[0] != 0 or ptr[-1] != len(nbr):
            raise GraphError("ptr must hold n + 1 offsets from 0 to len(nbr)")
        deg = np.diff(ptr)
        if (deg < 0).any():
            raise GraphError("ptr must be nondecreasing")
        tail = np.repeat(np.arange(n), deg)
        if nbr.size and (nbr.min() < 0 or nbr.max() >= n or (nbr == tail).any()):
            i = int(np.flatnonzero((nbr < 0) | (nbr >= n) | (nbr == tail))[0])
            v, u = int(tail[i]), int(nbr[i])
            raise GraphError(f"self-loop at {v}" if u == v else f"neighbor {u} of {v} out of range")
        key = tail * n + nbr
        if (key[1:] <= key[:-1]).any():
            raise GraphError("the neighbors of each vertex must be strictly ascending")
        if (np.sort(nbr * n + tail) != key).any():
            raise GraphError("adjacency must be symmetric")
        ptr.flags.writeable = nbr.flags.writeable = False
        object.__setattr__(self, "ptr", ptr)
        object.__setattr__(self, "nbr", nbr)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return (
            self.n == other.n
            and np.array_equal(self.ptr, other.ptr)
            and np.array_equal(self.nbr, other.nbr)
        )

    def __hash__(self) -> int:
        return hash((self.n, self.ptr.tobytes(), self.nbr.tobytes()))

    @staticmethod
    def from_edges(n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        """The graph on 0..n-1 with these edges; repeats, in either direction,
        are dropped.  The first self-loop or out-of-range edge is an error."""
        pairs = edges if isinstance(edges, np.ndarray) else list(edges)
        try:
            uv = np.array(pairs, dtype=np.int64)
        except OverflowError:  # an end beyond int64; clipped, it stays out of range
            uv = np.array([[min(max(x, -1), n) for x in e] for e in pairs], dtype=np.int64)
        if uv.size == 0:
            uv = uv.reshape(0, 2)
        if uv.ndim != 2 or uv.shape[1] != 2:
            raise GraphError("edges must be (u, v) pairs")
        u, v = uv.T
        if uv.size and (uv.min() < 0 or uv.max() >= n or (u == v).any()):
            i = int(np.flatnonzero((u == v) | (u < 0) | (u >= n) | (v < 0) | (v >= n))[0])
            a, b = (int(x) for x in pairs[i])
            raise GraphError(f"self-loop at {a}" if a == b else f"edge ({a},{b}) out of range")
        # each edge in both directions as one (tail, head) key, sorted and unique;
        # a sort and an adjacent compare, as np.unique's hashing is 10x slower here
        key = np.sort(np.concatenate((u * n + v, v * n + u)))
        first = np.ones(len(key), dtype=bool)
        np.not_equal(key[1:], key[:-1], out=first[1:])
        tail, nbr = np.divmod(key[first], max(n, 1))
        ptr = np.zeros(max(n, 0) + 1, dtype=np.int64)
        np.cumsum(np.bincount(tail, minlength=max(n, 0)), out=ptr[1:])
        return Graph(n, ptr, nbr)

    @cached_property
    def adj(self) -> tuple[frozenset[int], ...]:
        """Each vertex's neighbor set, derived from the CSR once."""
        ptr, nbr = self.ptr.tolist(), self.nbr.tolist()
        return tuple(frozenset(nbr[ptr[v] : ptr[v + 1]]) for v in range(self.n))

    def edges(self) -> list[tuple[int, int]]:
        """Every edge once as (u, v) with u < v, ascending."""
        tail = np.repeat(np.arange(self.n), np.diff(self.ptr))
        up = tail < self.nbr
        return list(zip(tail[up].tolist(), self.nbr[up].tolist()))

    def edge_count(self) -> int:
        return len(self.nbr) // 2

    def has_edge(self, u: int, v: int) -> bool:
        _check_vertex(self, u)
        _check_vertex(self, v)
        return v in self.adj[u]

    def min_degree(self) -> int:
        return int(np.diff(self.ptr).min()) if self.n else 0

    def subgraph(self, vertices: Iterable[int]) -> "Graph":
        """Induced subgraph, relabeled to 0..k-1 in sorted vertex order."""
        vs = _vertex_set(self, vertices)
        index = {v: i for i, v in enumerate(vs)}
        return Graph.from_edges(
            len(vs), [(i, index[u]) for i, v in enumerate(vs) for u in self.adj[v] if u in index]
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


def _vertex_set(g: Graph, s: Iterable[int]) -> list[int]:
    """The distinct ids of s, ascending; the smallest one outside g is an error."""
    vs = sorted(set(s))
    for v in vs:
        _check_vertex(g, v)
    return vs


def degree(g: Graph, v: int) -> int:
    _check_vertex(g, v)
    return int(g.ptr[v + 1] - g.ptr[v])


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
    vs = _vertex_set(g, s)
    inside = set(vs)
    k = len(vs)
    return k * (k - 1) // 2 - sum(len(g.adj[v] & inside) for v in vs) // 2


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
    vs = _vertex_set(g, s)
    edges = [(i, j) for i, j in combinations(range(len(vs)), 2) if vs[j] not in g.adj[vs[i]]]
    return Graph.from_edges(len(vs), edges), vs


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
