"""List assignments, vertex profiles, and the properness check.

A list assignment holds one nonempty frozenset of colors per vertex, in
vertex order; every entry that takes a graph and lists checks that there is
one list per vertex before it reads any.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .graph import Graph, GraphError, degree, local_clique_number

Color = int
ListAssignment = tuple[frozenset[Color], ...]
Coloring = dict[int, Color]


def make_lists(lists: Sequence[Sequence[Color]]) -> ListAssignment:
    out = tuple(frozenset(l) for l in lists)
    for v, l in enumerate(out):
        if not l:
            raise ValueError(f"list of vertex {v} is empty")
    return out


def uniform_lists(n: int, k: int) -> ListAssignment:
    return make_lists([range(k)] * n)


def check_list_count(g: Graph, L: ListAssignment) -> None:
    """A GraphError unless L holds exactly one list per vertex of g."""
    if len(L) != g.n:
        raise GraphError(f"{len(L)} lists for a graph on {g.n} vertices")


def gap(g: Graph, v: int) -> int:
    """d(v) + 1 - omega(v): slack between greedy-sufficiency and the clique at v."""
    return degree(g, v) + 1 - local_clique_number(g, v)


def save(g: Graph, L: ListAssignment, v: int) -> int:
    """d(v) + 1 - |L(v)|: deficit of the list below greedy-sufficiency."""
    check_list_count(g, L)
    return degree(g, v) + 1 - len(L[v])


def neighbor_classes(size_u, size_v, gap_v, alpha, beta) -> np.ndarray:
    """The class of a neighbor u of v by list size, elementwise over the
    broadcast arrays, as VertexProfile defines them: 0 subservient, 1 strongly
    egalitarian, 2 weakly egalitarian, 3 lordlier.  Both cut-offs are compared
    in Python ints over the exact ratios of the positive rationals alpha and
    beta, so neither is rounded at any size."""
    a, b = alpha.as_integer_ratio()
    c, d = beta.as_integer_ratio()
    su, sv, gv = (np.asarray(x).astype(object) for x in (size_u, size_v, gap_v))
    conditions = [su < sv, su * b >= (a + b) * sv, su * d < sv * d + c * gv]
    return np.select(conditions, [0, 3, 1], 2)  # the first that holds, else weak


@dataclass(frozen=True)
class VertexProfile:
    """Neighbor taxonomy of one vertex under a list assignment.

    Neighbors are partitioned by list size relative to |L(v)|: strictly
    smaller (subservient), at least (1+alpha)|L(v)| (lordlier), and of the
    rest those below |L(v)| + beta*gap (strongly egalitarian) and the others
    (weakly egalitarian).  `egalitarian`, the strong and weak ones, holds
    the pairs - trips bound's e1; unlike the sigma-egalitarian heads that
    savings_rows samples, it reads no sigma and holds no lordlier neighbor.
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
    check_list_count(g, L)
    gap_v = gap(g, v)
    nbrs = g.nbr[g.ptr[v] : g.ptr[v + 1]]
    code = neighbor_classes([len(L[u]) for u in nbrs.tolist()], len(L[v]), gap_v, alpha, beta)
    classes = (frozenset(nbrs[code == c].tolist()) for c in range(4))  # in field order
    return VertexProfile(v, len(nbrs), gap_v, *classes)


def is_proper(g: Graph, L: ListAssignment, coloring: Coloring) -> bool:
    """Proper on its domain and list-respecting; a key that is not a vertex
    of g is a GraphError.

    Colors are replaced by ranks before any array is formed, so no color
    value bounds the check; both ends of every CSR edge are then compared
    at once, an uncolored end as -1."""
    check_list_count(g, L)
    for v in coloring:
        if not 0 <= v < g.n:  # before L[v] can alias it
            raise GraphError(f"vertex {v} out of range [0, {g.n})")
    if not all(c in L[v] for v, c in coloring.items()):
        return False
    rank = {c: r for r, c in enumerate(set(coloring.values()))}
    color = np.full(g.n, -1, dtype=np.int64)
    color[np.fromiter(coloring, dtype=np.int64, count=len(coloring))] = [
        rank[c] for c in coloring.values()
    ]
    at_tail = color[np.repeat(np.arange(g.n), np.diff(g.ptr))]
    return not ((at_tail >= 0) & (at_tail == color[g.nbr])).any()
