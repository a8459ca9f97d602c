"""Correspondence assignments: per-edge partial matchings between color lists.

A correspondence assignment pairs each edge uv with a matching between the
colors of L(u) and L(v); a coloring is proper when no edge uses a matched
pair jointly.  Identity matchings recover ordinary list coloring.

Matchings are stored sparsely per normalized edge (u < v) as sets of
(c_u, c_v) pairs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .graph import Graph
from .lists import Color, ListAssignment

Edge = tuple[int, int]
Pair = tuple[Color, Color]


class CorrespondenceError(ValueError):
    """Raised for assignments whose per-edge pairs do not form a matching."""


@dataclass(frozen=True)
class CorrespondenceAssignment:
    """Lists plus a per-edge matching; edge keys are exactly E(G), u < v."""

    lists: ListAssignment
    matchings: Mapping[Edge, frozenset[Pair]]

    def pairs(self, u: int, v: int) -> frozenset[Pair]:
        """Matched pairs oriented (c_u, c_v)."""
        if u < v:
            return self.matchings[(u, v)]
        return frozenset((cv, cu) for cu, cv in self.matchings[(v, u)])


def validate(g: Graph, ca: CorrespondenceAssignment) -> None:
    edges = set(g.edges())
    if set(ca.matchings) != edges:
        raise CorrespondenceError("matching keys must be exactly the edge set")
    if len(ca.lists) != g.n:
        raise CorrespondenceError("lists must cover every vertex")
    for (u, v), pairs in ca.matchings.items():
        us = [cu for cu, _ in pairs]
        vs = [cv for _, cv in pairs]
        if len(set(us)) != len(us) or len(set(vs)) != len(vs):
            raise CorrespondenceError(f"pairs on edge ({u},{v}) are not a matching")
        for cu, cv in pairs:
            if cu not in ca.lists[u] or cv not in ca.lists[v]:
                raise CorrespondenceError(
                    f"pair ({cu},{cv}) on edge ({u},{v}) uses a color outside the lists"
                )


def identity_correspondence(g: Graph, L: ListAssignment) -> CorrespondenceAssignment:
    """M_uv = {(c, c) : c in L(u) & L(v)} on every edge."""
    matchings = {
        (u, v): frozenset((c, c) for c in L[u] & L[v]) for u, v in g.edges()
    }
    return CorrespondenceAssignment(L, matchings)


def is_total(g: Graph, ca: CorrespondenceAssignment) -> bool:
    """Every edge's matching saturates at least one endpoint's list."""
    for u, v in g.edges():
        pairs = ca.matchings[(u, v)]
        if len(pairs) < min(len(ca.lists[u]), len(ca.lists[v])):
            return False
    return True


def make_total(g: Graph, ca: CorrespondenceAssignment) -> CorrespondenceAssignment:
    """Extend each edge matching until one side is saturated.

    Identity pairs (c, c) on common colors are added first whenever both
    sides are still unmatched, then remaining unmatched colors are paired in
    ascending order.  The output's pairs are a superset of the input's, so
    every coloring proper for the output is proper for the input; starting
    from an identity correspondence, the output's colorings are therefore
    honest list colorings.
    """
    validate(g, ca)
    new = {}
    for u, v in g.edges():
        pairs = set(ca.matchings[(u, v)])
        used_u = {cu for cu, _ in pairs}
        used_v = {cv for _, cv in pairs}
        for c in sorted(ca.lists[u] & ca.lists[v]):
            if c not in used_u and c not in used_v:
                pairs.add((c, c))
                used_u.add(c)
                used_v.add(c)
        free_u = sorted(ca.lists[u] - used_u)
        free_v = sorted(ca.lists[v] - used_v)
        for cu, cv in zip(free_u, free_v):
            pairs.add((cu, cv))
        new[(u, v)] = frozenset(pairs)
    return CorrespondenceAssignment(ca.lists, new)


def is_lm_coloring(g: Graph, ca: CorrespondenceAssignment, phi: Mapping[int, Color]) -> bool:
    """phi is total, list-respecting, and uses no matched pair jointly."""
    if set(phi) != set(range(g.n)):
        return False
    for v in range(g.n):
        if phi[v] not in ca.lists[v]:
            return False
    for u, v in g.edges():
        if (phi[u], phi[v]) in ca.pairs(u, v):
            return False
    return True
