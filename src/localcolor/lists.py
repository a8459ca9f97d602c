"""List assignments, vertex profiles, and exact coloring oracles.

The oracles here (backtracking list-colorability, criticality, choosability)
are the ground truth the randomized procedure is audited against.  They are
exact and intended for desk-scale instances only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Sequence

from .graph import Graph, GraphError, degree, local_clique_number

Color = int
ListAssignment = tuple[frozenset[Color], ...]
Coloring = dict[int, Color]


class BudgetExceeded(RuntimeError):
    """Backtracking search exceeded its node budget."""


def make_lists(lists: Sequence[Sequence[Color]]) -> ListAssignment:
    out = tuple(frozenset(l) for l in lists)
    for v, l in enumerate(out):
        if not l:
            raise ValueError(f"list of vertex {v} is empty")
    return out


def uniform_lists(n: int, k: int) -> ListAssignment:
    return make_lists([range(k)] * n)


def gap(g: Graph, v: int) -> int:
    """d(v) + 1 - omega(v): slack between greedy-sufficiency and the clique at v."""
    return degree(g, v) + 1 - local_clique_number(g, v)


def save(g: Graph, L: ListAssignment, v: int) -> int:
    """d(v) + 1 - |L(v)|: deficit of the list below greedy-sufficiency."""
    return degree(g, v) + 1 - len(L[v])


@dataclass(frozen=True)
class VertexProfile:
    """Neighbor taxonomy of one vertex under a list assignment.

    Neighbors are partitioned by list size relative to |L(v)|: strictly
    smaller (subservient), within [|L(v)|, |L(v)| + beta*gap) (strongly
    egalitarian), up to (1+alpha)|L(v)| (weakly egalitarian), and at least
    (1+alpha)|L(v)| (lordlier).
    """

    vertex: int
    degree: int
    gap: int
    subservient: frozenset[int]
    strong_egal: frozenset[int]
    weak_egal: frozenset[int]
    lordlier: frozenset[int]

    @property
    def egalitarian(self) -> frozenset[int]:
        return self.strong_egal | self.weak_egal


def profile(g: Graph, L: ListAssignment, v: int, alpha: Fraction, beta: Fraction) -> VertexProfile:
    if alpha <= 0 or beta <= 0:
        raise ValueError("alpha and beta must be positive")
    d = degree(g, v)
    gap_v = d + 1 - local_clique_number(g, v)
    size_v = len(L[v])
    strong_cut = size_v + beta * gap_v        # exact rational thresholds
    lord_cut = (1 + alpha) * size_v
    sub, strong, weak, lord = set(), set(), set(), set()
    for u in g.adj[v]:
        size_u = len(L[u])
        if size_u < size_v:
            sub.add(u)
        elif size_u >= lord_cut:
            lord.add(u)
        elif size_u < strong_cut:
            strong.add(u)
        else:
            weak.add(u)
    return VertexProfile(
        vertex=v,
        degree=d,
        gap=gap_v,
        subservient=frozenset(sub),
        strong_egal=frozenset(strong),
        weak_egal=frozenset(weak),
        lordlier=frozenset(lord),
    )


def local_reed_list_sizes(g: Graph) -> list[int]:
    """ceil((d(v) + 1 + omega(v)) / 2) for every vertex."""
    return [
        math.ceil((degree(g, v) + 1 + local_clique_number(g, v)) / 2)
        for v in range(g.n)
    ]


def is_proper(g: Graph, L: ListAssignment, coloring: Coloring) -> bool:
    """Proper on its domain and list-respecting."""
    for v, c in coloring.items():
        if c not in L[v]:
            return False
        for u in g.adj[v]:
            if u in coloring and coloring[u] == c:
                return False
    return True


def brute_force_L_colorable(
    g: Graph, L: ListAssignment, budget: int = 10**9
) -> tuple[bool, Coloring | None]:
    """Exact list-colorability by backtracking with forward checking.

    Vertices are processed smallest-list-first (fail-first).  Raises
    BudgetExceeded if the search visits more than `budget` nodes.
    """
    order = sorted(range(g.n), key=lambda v: (len(L[v]), v))
    domains = {v: set(L[v]) for v in range(g.n)}
    coloring: Coloring = {}
    nodes = 0

    def assign(idx: int) -> bool:
        nonlocal nodes
        if idx == g.n:
            return True
        # fail-first: re-pick the uncolored vertex with the fewest live colors
        v = min((u for u in order if u not in coloring), key=lambda u: len(domains[u]))
        for c in sorted(domains[v]):
            nodes += 1
            if nodes > budget:
                raise BudgetExceeded(f"backtracking exceeded {budget} nodes")
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


def delete_vertex(g: Graph, L: ListAssignment, v: int) -> tuple[Graph, ListAssignment]:
    keep = [u for u in range(g.n) if u != v]
    return g.subgraph(keep), tuple(L[u] for u in keep)


def is_L_critical(g: Graph, L: ListAssignment, budget: int = 10**9) -> bool:
    """Not L-colorable, but every vertex-deleted induced subgraph is."""
    colorable, _ = brute_force_L_colorable(g, L, budget)
    if colorable:
        return False
    for v in range(g.n):
        sub_g, sub_L = delete_vertex(g, L, v)
        ok, _ = brute_force_L_colorable(sub_g, sub_L, budget)
        if not ok:
            return False
    return True


# --- exact choosability (tiny graphs only) ---------------------------------


def _connected_subsets(g: Graph) -> list[frozenset[int]]:
    """All vertex subsets of size >= 2 inducing a connected subgraph."""
    out = []
    for k in range(2, g.n + 1):
        for combo in combinations(range(g.n), k):
            if len(_components(g.subgraph(combo))) == 1:
                out.append(frozenset(combo))
    return out


def _components(g: Graph) -> list[list[int]]:
    seen: set[int] = set()
    comps = []
    for start in range(g.n):
        if start in seen:
            continue
        comp = [start]
        seen.add(start)
        stack = [start]
        while stack:
            v = stack.pop()
            for u in g.adj[v]:
                if u not in seen:
                    seen.add(u)
                    comp.append(u)
                    stack.append(u)
        comps.append(sorted(comp))
    return comps


def f_choosable(g: Graph, f: Sequence[int], _memo: dict | None = None) -> bool:
    """Whether g is L-colorable for every list assignment with |L(v)| = f(v).

    Doubly exponential; capped at 8 vertices.  The search space is reduced by
    three sound reductions: vertices with f(v) > d(v) can always be colored
    last; a not-f-choosable vertex-deleted subgraph forces the answer false;
    and once all vertex-deleted subgraphs are choosable, a hypothetical bad
    assignment can be normalized so every color's support induces a connected
    subgraph on at least two vertices (splitting a color across components of
    its support, and coloring a private color's vertex first, both preserve
    uncolorability).
    """
    if g.n > 8:
        raise GraphError("f_choosable is capped at 8 vertices")
    if any(fv < 1 for fv in f):
        raise ValueError("f must be at least 1 everywhere")
    if _memo is None:
        _memo = {}
    key = (g.adj, tuple(f))
    if key in _memo:
        return _memo[key]

    result = _f_choosable_inner(g, list(f), _memo)
    _memo[key] = result
    return result


def _f_choosable_inner(g: Graph, f: list[int], memo: dict) -> bool:
    # peel vertices that can always be colored last
    while True:
        removable = next((v for v in range(g.n) if f[v] > len(g.adj[v])), None)
        if removable is None:
            break
        keep = [u for u in range(g.n) if u != removable]
        g = g.subgraph(keep)
        f = [f[u] for u in keep]
    if g.n == 0:
        return True

    comps = _components(g)
    if len(comps) > 1:
        return all(
            f_choosable(g.subgraph(comp), [f[v] for v in comp], memo) for comp in comps
        )

    for v in range(g.n):
        keep = [u for u in range(g.n) if u != v]
        if not f_choosable(g.subgraph(keep), [f[u] for u in keep], memo):
            return False

    # Every proper subgraph is choosable, so any bad assignment uses only
    # colors whose support is connected with >= 2 vertices.  Enumerate those
    # support multisets and test colorability of each induced assignment.
    supports = _connected_subsets(g)
    need = list(f)

    def bad_assignment_exists(idx: int, chosen: list[frozenset[int]]) -> bool:
        if all(x == 0 for x in need):
            lists = [frozenset(i for i, t in enumerate(chosen) if v in t) for v in range(g.n)]
            colorable, _ = brute_force_L_colorable(g, tuple(lists))
            return not colorable
        if idx == len(supports):
            return False
        t = supports[idx]
        cap = min(need[v] for v in t)
        for count in range(cap, -1, -1):
            for v in t:
                need[v] -= count
            chosen.extend([t] * count)
            if all(x >= 0 for x in need) and bad_assignment_exists(idx + 1, chosen):
                for v in t:
                    need[v] += count
                del chosen[len(chosen) - count :]
                return True
            for v in t:
                need[v] += count
            if count:
                del chosen[len(chosen) - count :]
        return False

    return not bad_assignment_exists(0, [])
