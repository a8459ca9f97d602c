"""Small graph generators used by the experiments and tests."""

from __future__ import annotations

import numpy as np

from .graph import Graph


def gen_c5_blowup(t: int) -> Graph:
    """Blow each vertex of a 5-cycle into a clique of size t.

    Vertex t*i + j is the j-th copy of cycle position i; each group is a
    clique and consecutive groups are completely joined.  The result is
    (3t - 1)-regular on 5t vertices with clique number 2t.
    """
    if t < 1:
        raise ValueError("t must be positive")
    edges = []
    for i in range(5):
        for j in range(t):
            for k in range(j + 1, t):
                edges.append((t * i + j, t * i + k))
            for k in range(t):
                edges.append((t * i + j, t * ((i + 1) % 5) + k))
    return Graph.from_edges(5 * t, edges)


def gen_complete_bipartite(a: int, b: int) -> Graph:
    """K_{a,b} with the left side 0..a-1 and the right side a..a+b-1."""
    if a < 0 or b < 0:
        raise ValueError("sides must be nonnegative")
    return Graph.from_edges(a + b, [(i, a + j) for i in range(a) for j in range(b)])


def gen_gnp(n: int, p: float, seed: int) -> Graph:
    """Erdos-Renyi G(n, p), reproducible from the seed.  Pair (u, v), u < v,
    is an edge when its uniform draw is below p; the draws are taken row by
    row, u ascending, which is the stream of one draw per pair in that order."""
    if not (0 <= p <= 1):
        raise ValueError("p must be in [0, 1]")
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    rng = np.random.default_rng(seed)
    heads = [np.flatnonzero(rng.random(n - 1 - u) < p) + u + 1 for u in range(n - 1)]
    if not heads:  # fewer than two vertices
        return Graph.from_edges(n, [])
    tails = np.repeat(np.arange(n - 1), [len(h) for h in heads])
    return Graph.from_edges(n, np.column_stack((tails, np.concatenate(heads))))
