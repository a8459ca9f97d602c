"""Scalar, one-trial-at-a-time reference for the vectorized sampler and the
greedy completion.

These functions follow the procedure's definitions directly on the
frozenset correspondence representation.  The tests use them as the oracle
that `localcolor.procedure.uncolored_trials` and `savings_rows` (stacked by
`stacked.stack_trials`), `settle_trials` and `greedy_complete` must match
trial by trial: sampling and savings, then the residual assignment, its
greedy coloring and the splice back onto the colored part.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from localcolor.correspondence import (
    CorrespondenceAssignment,
    CorrespondenceError,
    Edge,
    Pair,
)
from localcolor.graph import Graph
from localcolor.lists import Color, Coloring, ListAssignment
from localcolor.procedure import (
    ProcedureParams,
    check_equalization_precondition,
    compile_instance,
    keep_probability,
)

Precedes = Callable[[int, int], bool]


def list_size_order(lists: ListAssignment) -> Precedes:
    """u precedes v iff |L(u)| < |L(v)| (strict; equal sizes are incomparable)."""

    def prec(u: int, v: int) -> bool:
        return len(lists[u]) < len(lists[v])

    return prec


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


def greedy_residual_color(
    g: Graph, res: ResidualAssignment, order: Sequence[int]
) -> tuple[Coloring | None, int | None]:
    """Greedy correspondence coloring of the residual assignment.

    Each vertex takes its smallest surviving color not matched to an
    already-chosen neighbor color.  Returns (coloring, blocked vertex).
    """
    coloring: Coloring = {}
    for v in order:
        forbidden = set()
        for u in g.adj[v]:
            if u in coloring:
                forbidden.update(cv for cv, cu in res.pairs(v, u) if cu == coloring[u])
        avail = sorted(res.lists[v] - forbidden)
        if not avail:
            return None, v
        coloring[v] = avail[0]
    return coloring, None


def complete_reference(
    g: Graph, ca: CorrespondenceAssignment, phi: Sequence[Color], uncolored: frozenset[int]
) -> tuple[Coloring | None, int | None]:
    """residual -> greedy_residual_color (larger lists first, ties by id) -> splice.
    Returns (full coloring, blocked vertex)."""
    res = residual(g, ca, phi, uncolored)
    order = sorted(res.vertices, key=lambda v: (-len(ca.lists[v]), v))
    completion, blocked = greedy_residual_color(g, res, order)
    if completion is None:
        return None, blocked
    return splice(g, ca, phi, uncolored, completion), None


@dataclass(frozen=True)
class PartialColoring:
    """One sampled outcome: full color guess, uncolored set, activated set."""

    phi: tuple[Color, ...]
    uncolored: frozenset[int]
    activated: frozenset[int]


def _uncolored_naive(
    g: Graph, ca: CorrespondenceAssignment, phi: Sequence[Color], activated: Sequence[bool]
) -> set[int]:
    u_prime: set[int] = set()
    for v in range(g.n):
        if not activated[v]:
            u_prime.add(v)
            continue
        size_v = len(ca.lists[v])
        for u in g.adj[v]:
            if activated[u] and len(ca.lists[u]) >= size_v:
                if (phi[v], phi[u]) in ca.pairs(v, u):
                    u_prime.add(v)
                    break
    return u_prime


def sample_naive(
    g: Graph, ca: CorrespondenceAssignment, rho: float, rng: np.random.Generator
) -> PartialColoring:
    """One trial of the naive procedure (no equalizing flips)."""
    sorted_lists = [sorted(ca.lists[v]) for v in range(g.n)]
    activated = rng.random(g.n) < rho
    phi = tuple(sorted_lists[v][rng.integers(len(sorted_lists[v]))] for v in range(g.n))
    uncolored = _uncolored_naive(g, ca, phi, activated)
    pc = PartialColoring(phi, frozenset(uncolored), frozenset(np.flatnonzero(activated)))
    assert is_naive_partial(g, ca, pc.phi, pc.uncolored)
    return pc


def sample_equalized(
    g: Graph,
    ca: CorrespondenceAssignment,
    params: ProcedureParams,
    rng: np.random.Generator,
) -> PartialColoring:
    """One trial with equalizing coin flips: P[v kept | phi(v) = c] = K exactly."""
    check_equalization_precondition(compile_instance(g, ca), params)
    k = params.keep
    sorted_lists = [sorted(ca.lists[v]) for v in range(g.n)]
    table = [
        {c: keep_probability(g, ca, params.rho, v, c) for c in sorted_lists[v]}
        for v in range(g.n)
    ]
    activated = rng.random(g.n) < params.rho
    phi = tuple(sorted_lists[v][rng.integers(len(sorted_lists[v]))] for v in range(g.n))
    # one flip per (vertex, color); only the flip at the chosen color can
    # uncolor, and with rho = 0 the flips are irrelevant anyway
    heads = [
        {
            c: bool(rng.random() < 1 - k / table[v][c]) if table[v][c] > 0 else False
            for c in sorted_lists[v]
        }
        for v in range(g.n)
    ]
    uncolored = _uncolored_naive(g, ca, phi, activated)
    for v in range(g.n):
        if heads[v][phi[v]]:
            uncolored.add(v)
    pc = PartialColoring(phi, frozenset(uncolored), frozenset(np.flatnonzero(activated)))
    assert is_naive_partial(g, ca, pc.phi, pc.uncolored)
    return pc


@dataclass(frozen=True)
class SavingsSample:
    """Per-vertex savings components of one trial."""

    aberrance: tuple[int, ...]
    pairs: tuple[int, ...]
    trips: tuple[int, ...]
    unact: tuple[int, ...]

    @property
    def savings(self) -> tuple[int, ...]:
        return tuple(
            a + u + p - t
            for a, u, p, t in zip(self.aberrance, self.unact, self.pairs, self.trips)
        )


def savings_of(
    g: Graph,
    ca: CorrespondenceAssignment,
    params: ProcedureParams,
    prec: Precedes,
    pc: PartialColoring,
) -> SavingsSample:
    """Aberrance, pairs, trips, unact for every vertex of one sampled trial."""
    sigma = params.sigma
    aberr, pairs, trips, unact = [], [], [], []
    for v in range(g.n):
        size_v = len(ca.lists[v])
        egal = [u for u in g.adj[v] if len(ca.lists[u]) >= (1 - sigma) * size_v]
        a = 0
        per_color: dict[Color, int] = {}
        for u in egal:
            if u in pc.uncolored:
                continue
            back = {cu: cv for cv, cu in ca.pairs(v, u)}  # u's color -> v's color
            cv = back.get(pc.phi[u])
            if cv is None:
                a += 1
            else:
                per_color[cv] = per_color.get(cv, 0) + 1
        p = sum(k * (k - 1) // 2 for k in per_color.values())
        t = sum(k * (k - 1) * (k - 2) // 6 for k in per_color.values())
        un = sum(1 for u in g.adj[v] if u not in pc.activated and prec(u, v))
        aberr.append(a)
        pairs.append(p)
        trips.append(t)
        unact.append(un)
    return SavingsSample(tuple(aberr), tuple(pairs), tuple(trips), tuple(unact))
