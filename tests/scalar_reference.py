"""Scalar, one-trial-at-a-time reference for the vectorized sampler.

These functions follow the procedure's definitions directly on the
frozenset correspondence representation.  The tests use them as the oracle
that `localcolor.procedure.evaluate_trials` must match trial by trial.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from localcolor.correspondence import CorrespondenceAssignment, is_naive_partial
from localcolor.graph import Graph
from localcolor.lists import Color
from localcolor.procedure import (
    Precedes,
    ProcedureParams,
    check_equalization_precondition,
    keep_probability,
)


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
    check_equalization_precondition(g, ca, params)
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
