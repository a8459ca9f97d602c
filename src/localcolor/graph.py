"""Simple undirected graphs and the exact primitives the commands use on them:
local clique numbers (one bitset branch and bound pass per graph, cached),
complement edge counts and maximum antimatchings (Edmonds' blossom
algorithm).  Both searches run on explicit stacks and queues, so no input
size meets Python's recursion limit.

Vertices are integers 0..n-1.  A graph is a sorted CSR: the neighbors of v
are nbr[ptr[v]:ptr[v + 1]], in ascending order, so adjacency order does not
depend on the order the edges were given in.  Graphs are immutable after
construction, so every operation here is a pure function and safe for
concurrent reads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Iterable

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
        are dropped.  The first self-loop or out-of-range edge is an error, and
        so is an n above isqrt(2**63 - 1), checked before any array is made."""
        if n > (most := math.isqrt(2**63 - 1)):  # so that each key u * n + v fits in int64
            raise GraphError(f"{n} vertices: more than {most}, the int64 edge-key limit")
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

    @cached_property
    def clique_numbers(self) -> tuple[int, ...]:
        """ω(v), the size of a largest clique containing v, of every vertex:
        one _clique_pass over the graph, made when first read."""
        return _clique_pass(self)

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


def _clique_pass(g: Graph) -> tuple[int, ...]:
    """ω(v) of every vertex by a branch and bound over each neighborhood in
    turn, in descending degree order.

    best[u] is the largest clique through u found so far and top[u] a bound
    on ω(u): 1 + d(u), and ω(u) itself once u is searched.  Each clique found
    raises best[] of all its members, so later searches start warm; v is not
    searched at all once best[v] reaches top[v], and its search drops the
    neighbors u with top[u] <= best[v], which lie on no larger clique through v.

    The search runs over v's remaining neighbors relabelled 0..k-1 in the
    same order, as k-bit int masks: candidate sets are ints, and mask[i] holds
    i's candidate neighbors.  It is Tomita's: each depth colors its candidates
    greedily (_colored) and branches on them from the highest color down, a
    branch whose clique size plus color cannot beat best[v] ending the frame.
    One explicit stack frame per depth makes its children one at a time:
    [clique mask, clique size, colored order, colors, cursor, candidates].
    """
    adj, deg = g.adj, np.diff(g.ptr).tolist()
    order = sorted(range(g.n), key=lambda v: (-deg[v], v))
    rank = {v: i for i, v in enumerate(order)}
    best, top = [1] * g.n, [d + 1 for d in deg]
    for v in order:
        floor = best[v]
        cand = sorted((u for u in adj[v] if top[u] > floor), key=rank.__getitem__)
        if len(cand) >= floor:  # else v and all of cand make no larger clique
            bit, inside = {u: 1 << i for i, u in enumerate(cand)}, frozenset(cand)
            mask = [sum(map(bit.__getitem__, inside & adj[u])) for u in cand]
            full = (1 << len(cand)) - 1
            colored, colors = _colored(full, mask, floor)
            stack = [[0, 1, colored, colors, len(colored), full]]
            while stack:
                frame = stack[-1]
                clique, size, colored, colors, i, left = frame
                i -= 1
                if i < 0 or size + colors[i] <= floor:
                    stack.pop()
                    continue
                u = colored[i]
                low = 1 << u
                frame[4], frame[5] = i, left ^ low
                sub = left & mask[u]
                if sub:
                    colored, colors = _colored(sub, mask, floor - size)
                    if colored:
                        stack.append([clique | low, size + 1, colored, colors, len(colored), sub])
                elif size + 1 > floor:
                    floor, clique = size + 1, clique | low
                    while clique:
                        w = cand[(clique & -clique).bit_length() - 1]
                        best[w] = max(best[w], floor)
                        clique &= clique - 1
        best[v] = top[v] = floor
    return tuple(best)


def _colored(left: int, mask: list[int], least: int) -> tuple[list[int], list[int]]:
    """Greedy coloring of the candidates in `left`: each color class takes the
    lowest candidate, then the lowest one adjacent to none taken, until none
    is left.  Returns the candidates of color >= least, and their colors, in
    ascending color: a lesser color cannot lift a branch above the best."""
    colored, colors, color = [], [], 0
    while left:
        color += 1
        free = left
        while free:
            low = free & -free
            u = low.bit_length() - 1
            free &= ~mask[u]
            free ^= low
            left ^= low
            if color >= least:
                colored.append(u)
                colors.append(color)
    return colored, colors


def complement_edge_count(g: Graph, s: Iterable[int]) -> int:
    """Edge count of the complement of the subgraph induced on s."""
    vs = _vertex_set(g, s)
    inside = set(vs)
    k = len(vs)
    return k * (k - 1) // 2 - sum(len(g.adj[v] & inside) for v in vs) // 2


def max_antimatching(g: Graph, s: Iterable[int]) -> Matching:
    """Maximum matching in the complement of g[s]: _max_matching of the
    complement on s relabelled 0..|s|-1, its pairs mapped back to g's ids."""
    vs = _vertex_set(g, s)
    mate = _max_matching([[j for j, u in enumerate(vs) if u != v and u not in g.adj[v]] for v in vs])
    return Matching.of((vs[i], vs[j]) for i, j in enumerate(mate) if i < j)


def _max_matching(nbrs: list[list[int]]) -> list[int]:
    """A maximum-cardinality matching of the graph on 0..k-1 whose neighbor
    lists are nbrs, as mate[v] (-1 for a free vertex): Edmonds' blossom
    algorithm.

    Each free root runs one breadth-first search for an augmenting path over
    alternating trees.  An edge that closes an odd cycle contracts the cycle
    (a blossom) by pointing base[] of its vertices at the cycle's base, found
    as the lowest common ancestor of the edge's ends; the path found is
    flipped along parent[] and mate[].  A root with no augmenting path never
    gets one later, so one search per root suffices: O(k^3), no recursion.
    """
    k = len(nbrs)
    mate = [-1] * k
    for root in range(k):
        if mate[root] >= 0:
            continue
        parent, base, seen = [-1] * k, list(range(k)), [False] * k
        seen[root], queue, head, end = True, [root], 0, -1
        while head < len(queue) and end < 0:
            v = queue[head]
            head += 1
            for u in nbrs[v]:
                if base[v] == base[u] or mate[v] == u:
                    continue
                if u == root or mate[u] >= 0 and parent[mate[u]] >= 0:  # both ends outer
                    # the blossom's base: the first base on u's way to the root
                    # that is also on v's
                    path, x = [False] * k, base[v]
                    path[x] = True
                    while mate[x] >= 0:
                        x = base[parent[mate[x]]]
                        path[x] = True
                    top = base[u]
                    while not path[top]:
                        top = base[parent[mate[top]]]
                    blossom = [False] * k
                    for a, child in ((v, u), (u, v)):
                        while base[a] != top:
                            blossom[base[a]] = blossom[base[mate[a]]] = True
                            parent[a], child = child, mate[a]
                            a = parent[mate[a]]
                    for w in range(k):
                        if blossom[base[w]]:
                            base[w] = top
                            if not seen[w]:
                                seen[w] = True
                                queue.append(w)
                elif parent[u] < 0:
                    parent[u] = v
                    if mate[u] < 0:
                        end = u
                        break
                    seen[mate[u]] = True
                    queue.append(mate[u])
        while end >= 0:
            v = parent[end]
            nxt = mate[v]
            mate[end], mate[v] = v, end
            end = nxt
    return mate


def average_degree(g: Graph) -> Fraction:
    if g.n == 0:
        raise GraphError("average degree of the empty graph is undefined")
    return Fraction(2 * g.edge_count(), g.n)
