"""Constructive list coloring of K_n minus a matching, and the critical-density audit."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import networkx as nx

from .graph import Graph, Matching, complement_edge_count
from .lists import Color, Coloring, ListAssignment, is_proper, save


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
        for v in sorted(self.matching.vertices()):
            if not 0 <= v < self.n:
                raise ValueError(f"matching vertex {v} out of range [0, {self.n})")

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
        matched = self.matching.vertices()
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


@dataclass(frozen=True)
class DensityAudit:
    """One evaluation of the critical-density inequality on (H, M)."""

    lhs: int
    rhs: int
    holds: bool
    subset: tuple[int, ...]
    matching_size: int
    critical: bool | None  # None when criticality was not established


def density_audit(
    g: Graph,
    L: ListAssignment,
    subset: Sequence[int],
    m: Matching,
    critical: bool | None = None,
) -> DensityAudit:
    """Compare complement edges of g[subset] against |M|(|H| - |M|) - sum Save(u).

    The inequality is only guaranteed for L-critical instances; the audit
    computes both sides unconditionally and records whatever criticality
    status the caller established.
    """
    vs = sorted(set(subset))
    in_subset = set(vs)
    for u, v in m.edges:
        if u not in in_subset or v not in in_subset or g.has_edge(u, v):
            raise ValueError(f"({u},{v}) is not an antimatching pair inside the subset")
    lhs = complement_edge_count(g, vs)
    k = len(m)
    rhs = k * (len(vs) - k) - sum(save(g, L, u) for u in vs)
    return DensityAudit(
        lhs=lhs,
        rhs=rhs,
        holds=lhs >= rhs,
        subset=tuple(vs),
        matching_size=k,
        critical=critical,
    )
