"""Scalar, one-trial-at-a-time reference for the compiled instance, the
vectorized sampler and the greedy completion.

Correspondence assignments pair each edge uv with a matching between the
colors of L(u) and L(v); a coloring is proper when no edge uses a matched
pair jointly, and identity matchings recover list coloring.  They are
stored sparsely per normalized edge (u < v) as frozensets of (c_u, c_v)
pairs.  The functions here follow the procedure's definitions directly on
that representation.  The tests use them as the oracle that
`localcolor.procedure.compile_lists` (against `compile_instance` of the
identity correspondence made total), `keep_table` (against
`keep_probability`), `uncolored_trials` and `savings_rows` (stacked by
`stacked.stack_trials`), `settle_trials` and `greedy_complete` must match:
compiling, sampling and savings, then the residual assignment, its greedy
coloring and the splice back onto the colored part.  `sample_equalized`
checks the precondition from these definitions itself, so no production
precondition code runs in the oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from localcolor.graph import Graph
from localcolor.lists import Color, Coloring, ListAssignment
from localcolor.procedure import CompiledInstance, PreconditionError, ProcedureParams

Edge = tuple[int, int]
Pair = tuple[Color, Color]
Precedes = Callable[[int, int], bool]


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


def keep_probability(
    g: Graph, ca: CorrespondenceAssignment, rho: float, v: int, c: Color
) -> float:
    """Exact P[v survives | phi(v) = c] under the naive procedure.

    v survives iff it is activated and no threatening neighbor u (one with
    |L(u)| >= |L(v)| whose matching carries c into L(u)) is both activated
    and assigned the matched color; the neighbor trials are independent.
    """
    if c not in ca.lists[v]:
        raise ValueError(f"color {c} is not in the list of vertex {v}")
    p = rho
    size_v = len(ca.lists[v])
    for u in sorted(g.adj[v]):  # ascending, as keep_table
        if len(ca.lists[u]) < size_v:
            continue
        if c in dict(ca.pairs(v, u)):
            p *= 1 - rho / len(ca.lists[u])
    return p


def compile_instance(g: Graph, ca: CorrespondenceAssignment) -> CompiledInstance:
    """The index arrays of `ca`, built edge by edge over `g.adj`: every cell's
    match in a list, and from it the laid-out maps, those of the edges whose
    map is not the identity's (at any cell, -1 included).  The sampler reads the
    instance of a total `ca` only: its per-vertex keep table needs every
    cell of a big edge matched."""
    lists = [sorted(ca.lists[v]) for v in range(g.n)]
    index_of = [{c: i for i, c in enumerate(row)} for row in lists]
    start, ptr, tail, head, big, block = [0], [0], [], [], [], []
    cells = 0
    for v in range(g.n):
        start.append(start[-1] + len(lists[v]))
        for u in sorted(g.adj[v]):
            tail.append(v)
            head.append(u)
            big.append(len(lists[u]) >= len(lists[v]))
            block.append(cells)
            cells += len(lists[v])
        ptr.append(len(tail))
    offset = dict(zip(zip(tail, head), block))
    edge = {(v, u): k for k, (v, u) in enumerate(zip(tail, head))}
    rev = [edge[(u, v)] for v, u in zip(tail, head)]
    match = [-1] * cells
    for (u, v), pairs in ca.matchings.items():
        for cu, cv in pairs:
            iu, iv = index_of[u][cu], index_of[v][cv]
            match[offset[(u, v)] + iu] = iv
            match[offset[(v, u)] + iv] = iu
    # each color's rank among all colors, and where each (vertex, rank) sits
    # in its list, as a dense table when it has no more entries than the cells
    rank = {c: r for r, c in enumerate(sorted(set().union(*lists)))}
    ranks = [rank[c] for row in lists for c in row]
    where = None
    if g.n * len(rank) <= cells:
        where = [-1] * (g.n * len(rank))
        for v, row in enumerate(lists):
            for i, c in enumerate(row):
                where[v * len(rank) + rank[c]] = i
    # the laid-out maps: the whole map of each edge whose match differs, at
    # some cell, from the identity's (the head's index of the same color)
    zoff, zmap = [], []
    for v, u, b in zip(tail, head, block):
        row = match[b : b + len(lists[v])]
        if row == [index_of[u].get(c, -1) for c in lists[v]]:
            zoff.append(-1)
        else:
            zoff.append(len(zmap))
            zmap += row

    def ints(x):
        return np.array(x, dtype=np.int64)

    # every color in its list's order, in int64 unless some color leaves it
    values = [c for row in lists for c in row]
    wide = any(not -(2**63) <= c < 2**63 for c in values)
    return CompiledInstance(
        np.array(values, dtype=object if wide else np.int64),
        ints([len(row) for row in lists]), ints(start), ints(ptr), ints(tail),
        ints(head), np.array(big, dtype=bool), ints(rev), ints(ranks), len(rank),
        None if where is None else ints(where), ints(zoff), ints(zmap),
    )


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


def draw_color_indices(sizes: Sequence[int], trials: int, rng: np.random.Generator) -> np.ndarray:
    """The (n, trials) color indices of a batch, drawn vertex by vertex: one
    rng.integers(size, size=trials) call per vertex, in vertex order."""
    out = np.empty((len(sizes), trials), dtype=np.int64)
    for v, size in enumerate(sizes):
        out[v] = rng.integers(size, size=trials)
    return out


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
    """One trial with equalizing coin flips: P[v kept | phi(v) = c] = K exactly.

    The precondition is checked here from the definitions, on any
    correspondence, partial ones included: first |L(v)| >= (1 - eps) d(v) at
    every vertex, then keep_probability(v, c) >= K at every (v, c), the
    first offender named as the compiled check names it (and its color)."""
    for v in range(g.n):
        if len(ca.lists[v]) < (1 - params.eps) * len(g.adj[v]):
            raise PreconditionError(f"vertex {v}: |L(v)| = {len(ca.lists[v])} < (1 - eps) d(v)")
    k = params.keep
    sorted_lists = [sorted(ca.lists[v]) for v in range(g.n)]
    table = [
        {c: keep_probability(g, ca, params.rho, v, c) for c in sorted_lists[v]}
        for v in range(g.n)
    ]
    low = [(v, c) for v in range(g.n) for c in sorted_lists[v] if table[v][c] < k]
    if low:
        v, c = low[0]
        raise PreconditionError(
            f"keep probability {table[v][c]:.6f} of vertex {v}, color {c} is below K = {k:.6f}"
        )
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
