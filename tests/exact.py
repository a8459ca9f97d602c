"""Exact oracles the acceptance tests check paper claims with.

Backtracking list-colorability and L-criticality, the constructive list
coloring of K_n minus a matching under its list-size hypotheses, the
triangle count with Rivin's bound, a plain edge walk that checks a
coloring, a branch and bound for the local clique number ω(v), the induced
subgraph and the neighbor classes one neighbor at a time in Fractions.  All
are exact and meant for desk-scale instances; no command calls them.
"""

from __future__ import annotations

from dataclasses import dataclass

import networkx as nx

from localcolor.graph import Graph, Matching, _check_vertex, _vertex_set
from localcolor.lists import Color, Coloring, ListAssignment, check_list_count, is_proper


def brute_force_L_colorable(g: Graph, L: ListAssignment) -> tuple[bool, Coloring | None]:
    """Exact list-colorability by backtracking with forward checking.

    Vertices are processed smallest-list-first (fail-first).  The search is
    exponential and has no node limit.
    """
    check_list_count(g, L)
    order = sorted(range(g.n), key=lambda v: (len(L[v]), v))
    domains = {v: set(L[v]) for v in range(g.n)}
    coloring: Coloring = {}

    def assign(idx: int) -> bool:
        if idx == g.n:
            return True
        # fail-first: re-pick the uncolored vertex with the fewest live colors
        v = min((u for u in order if u not in coloring), key=lambda u: len(domains[u]))
        for c in sorted(domains[v]):
            pruned = []
            for u in g.adj[v]:
                if u not in coloring and c in domains[u]:
                    domains[u].remove(c)
                    pruned.append(u)
            if all(domains[u] for u in g.adj[v] if u not in coloring):
                coloring[v] = c
                if assign(idx + 1):
                    return True
                del coloring[v]
            for u in pruned:
                domains[u].add(c)
        return False

    if assign(0):
        return True, dict(coloring)
    return False, None


def induced(g: Graph, vertices) -> Graph:
    """g[vertices], relabelled 0..k-1 in ascending vertex order; an id outside
    g is a GraphError."""
    vs = _vertex_set(g, vertices)
    index = {v: i for i, v in enumerate(vs)}
    pairs = [(index[v], index[u]) for v in vs for u in g.adj[v] if u in index]
    return Graph.from_edges(len(vs), pairs)


def class_of(size_u, size_v, gap_v, alpha, beta):
    """neighbor_classes for one neighbor, in Fractions: 0 subservient,
    1 strongly egalitarian, 2 weakly egalitarian, 3 lordlier."""
    if size_u < size_v:
        return 0
    if size_u >= (1 + alpha) * size_v:
        return 3
    if size_u < size_v + beta * gap_v:
        return 1
    return 2


def is_L_critical(g: Graph, L: ListAssignment) -> bool:
    """Not L-colorable, but every vertex-deleted induced subgraph is."""
    if brute_force_L_colorable(g, L)[0]:
        return False
    for v in range(g.n):
        keep = [u for u in range(g.n) if u != v]
        if not brute_force_L_colorable(induced(g, keep), tuple(L[u] for u in keep))[0]:
            return False
    return True


# --- K_n minus a matching ----------------------------------------------------


class HypothesisError(ValueError):
    """An instance violates the solver's stated hypotheses."""


@dataclass(frozen=True)
class KnmInstance:
    """K_n minus the given matching, with one list per vertex."""

    n: int
    matching: Matching
    lists: ListAssignment

    def __post_init__(self):
        if len(self.lists) != self.n:
            raise ValueError("need one list per vertex")
        for v in sorted(self.matched()):
            if not 0 <= v < self.n:
                raise ValueError(f"matching vertex {v} out of range [0, {self.n})")

    def matched(self) -> frozenset[int]:
        """The vertices the matching covers."""
        return frozenset(x for e in self.matching.edges for x in e)

    def graph(self) -> Graph:
        edges = [
            (u, v)
            for u in range(self.n)
            for v in range(u + 1, self.n)
            if (u, v) not in self.matching.edges
        ]
        return Graph.from_edges(self.n, edges)

    def violated_hypotheses(self) -> list[str]:
        """Empty iff the solvability hypotheses hold."""
        m = len(self.matching)
        bad = []
        for a, b in sorted(self.matching.edges):
            if len(self.lists[a]) < m or len(self.lists[b]) < m:
                bad.append(f"matched pair ({a},{b}): both lists must have size >= |M| = {m}")
            if len(self.lists[a]) + len(self.lists[b]) < self.n:
                bad.append(
                    f"matched pair ({a},{b}): list sizes must sum to >= n = {self.n}"
                )
        matched = self.matched()
        for v in range(self.n):
            if v not in matched and len(self.lists[v]) < self.n - m:
                bad.append(f"unmatched vertex {v}: list size must be >= n - |M| = {self.n - m}")
        return bad


def _distinct_representatives(vertices: list[int], lists: dict[int, set[Color]]) -> Coloring:
    """System of distinct representatives via bipartite maximum matching."""
    b = nx.Graph()
    b.add_nodes_from(vertices, bipartite=0)
    for v in vertices:
        for c in lists[v]:
            b.add_edge(v, ("color", c))
    mate = nx.algorithms.bipartite.hopcroft_karp_matching(b, top_nodes=vertices)
    if any(v not in mate for v in vertices):
        raise RuntimeError(
            "no system of distinct representatives exists; the hypotheses guarantee "
            f"one, so this is a solver fault. vertices={vertices} "
            f"lists={ {v: sorted(l) for v, l in lists.items()} }"
        )
    return {v: mate[v][1] for v in vertices}


def color_knm(inst: KnmInstance) -> Coloring:
    """Proper list coloring of K_n - M under the solvability hypotheses.

    Recursion: while some matched pair shares a color, give both endpoints
    the least shared color of the lexicographically least such pair, delete
    them, and strike that color from all other lists; once all matched pairs
    have disjoint lists, finish with a system of distinct representatives.
    """
    bad = inst.violated_hypotheses()
    if bad:
        raise HypothesisError("; ".join(bad))

    alive = list(range(inst.n))
    lists: dict[int, set[Color]] = {v: set(inst.lists[v]) for v in alive}
    matched = {min(e): max(e) for e in inst.matching.edges}
    coloring: Coloring = {}

    while True:
        pick = None
        for a in sorted(matched):
            b = matched[a]
            common = lists[a] & lists[b]
            if common:
                pick = (a, b, min(common))
                break
        if pick is None:
            break
        a, b, c = pick
        coloring[a] = coloring[b] = c
        del matched[a]
        alive = [v for v in alive if v not in (a, b)]
        for v in alive:
            lists[v].discard(c)

    if alive:
        coloring.update(_distinct_representatives(alive, lists))

    if coloring.keys() != set(range(inst.n)) or not is_proper(inst.graph(), inst.lists, coloring):
        raise RuntimeError("the coloring is not a proper total list coloring; solver fault")
    return coloring


# --- cliques and triangles --------------------------------------------------


def clique_search(g: Graph, v: int) -> int:
    """Size of a largest clique containing v: an exact branch and bound over
    N(v) on an explicit stack of (clique size, common candidates), so no
    recursion limit applies.  An entry branches on the candidates outside the
    neighborhood of its pivot, the candidate with the most candidate
    neighbors, and is dropped if all its candidates cannot beat the best."""
    _check_vertex(g, v)
    adj, best, stack = g.adj, 0, [(0, g.adj[v])]
    while stack:
        size, cand = stack.pop()
        if size + len(cand) <= best:
            continue
        if not cand:
            best = size
            continue
        pivot = max(cand, key=lambda u: len(adj[u] & cand))
        rest, children = set(cand), []
        for u in cand - adj[pivot]:
            children.append((size + 1, adj[u] & rest))
            rest.remove(u)  # a later sibling's cliques hold no earlier branch
        stack += reversed(children)  # popped in branch order
    return 1 + best


def triangle_count(g: Graph) -> int:
    count = 0
    for u, v in g.edges():
        count += sum(1 for w in g.adj[u] & g.adj[v] if w > v)
    return count


def rivin_triangle_bound(edge_count: int) -> float:
    """Upper bound (2m)^(3/2)/6 on the number of triangles of an m-edge graph."""
    return (2 * edge_count) ** 1.5 / 6


def is_proper_walk(g: Graph, L: ListAssignment, coloring: Coloring) -> bool:
    """is_proper as a plain walk over each colored vertex's neighbor set: every
    color from its vertex's list, no two adjacent colored vertices with equal
    colors.  Keys must be vertices of g."""
    for v, c in coloring.items():
        if c not in L[v]:
            return False
        for u in g.adj[v]:
            if u in coloring and coloring[u] == c:
                return False
    return True
