"""Correspondence assignments: per-edge partial matchings between color lists.

A correspondence assignment pairs each edge uv with a matching between the
colors of L(u) and L(v); a coloring is proper when no edge uses a matched
pair jointly.  Identity matchings recover ordinary list coloring.

Matchings are stored sparsely per normalized edge (u < v) as sets of
(c_u, c_v) pairs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from .graph import Graph
from .lists import Color, Coloring, ListAssignment

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


def is_naive_partial(
    g: Graph,
    ca: CorrespondenceAssignment,
    phi: Sequence[Color],
    uncolored: frozenset[int],
) -> bool:
    """phi is a full color guess, proper off the uncolored set."""
    if len(phi) != g.n:
        return False
    for v in range(g.n):
        if phi[v] not in ca.lists[v]:
            return False
    for u, v in g.edges():
        if u in uncolored or v in uncolored:
            continue
        if (phi[u], phi[v]) in ca.pairs(u, v):
            return False
    return True


@dataclass(frozen=True)
class ResidualAssignment:
    """Correspondence assignment induced on the uncolored set after a partial coloring.

    Vertices keep their original ids; `vertices` is the surviving induced
    set.  Residual lists may be empty (that is exactly the failure mode the
    savings analysis guards against).
    """

    vertices: tuple[int, ...]
    lists: dict[int, frozenset[Color]]
    matchings: dict[Edge, frozenset[Pair]]

    def pairs(self, u: int, v: int) -> frozenset[Pair]:
        if u < v:
            return self.matchings[(u, v)]
        return frozenset((cv, cu) for cu, cv in self.matchings[(v, u)])


def residual(
    g: Graph,
    ca: CorrespondenceAssignment,
    phi: Sequence[Color],
    uncolored: frozenset[int],
) -> ResidualAssignment:
    """Shrink lists by colors matched to colored neighbors; restrict matchings to G[U]."""
    if not is_naive_partial(g, ca, phi, uncolored):
        raise CorrespondenceError("(phi, U) is not a valid naive partial coloring")
    new_lists: dict[int, frozenset[Color]] = {}
    for v in sorted(uncolored):
        dead = set()
        for u in g.adj[v]:
            if u in uncolored:
                continue
            # the color of v (if any) matched to phi(u)
            for cv, cu in ca.pairs(v, u):
                if cu == phi[u]:
                    dead.add(cv)
        new_lists[v] = ca.lists[v] - dead
    new_matchings: dict[Edge, frozenset[Pair]] = {}
    for u, v in g.edges():
        if u in uncolored and v in uncolored:
            new_matchings[(u, v)] = frozenset(
                (cu, cv)
                for cu, cv in ca.matchings[(u, v)]
                if cu in new_lists[u] and cv in new_lists[v]
            )
    return ResidualAssignment(tuple(sorted(uncolored)), new_lists, new_matchings)


def splice(
    g: Graph,
    ca: CorrespondenceAssignment,
    phi: Sequence[Color],
    uncolored: frozenset[int],
    completion: Mapping[int, Color],
) -> Coloring:
    """Combine the colored part of a naive partial coloring with a residual coloring."""
    out: Coloring = {v: phi[v] for v in range(g.n) if v not in uncolored}
    for v in uncolored:
        out[v] = completion[v]
    return out
