"""List assignments, the neighbor classes, and the properness check.

A list assignment holds one nonempty list of colors per vertex, flat (see
ListAssignment); every entry that takes a graph and lists checks that there
is one list per vertex before it reads any.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Collection, Sequence

import numpy as np

from .graph import Graph, GraphError

Color = int
Coloring = dict[int, Color]


@dataclass(frozen=True, eq=False)
class ListAssignment:
    """Vertex v's colors, distinct and ascending, are colors[start[v] :
    start[v + 1]]: int64, or Python ints in an object array when some color
    leaves int64.  L[v] is v's list as a frozenset, built when it is read."""

    start: np.ndarray
    colors: np.ndarray

    def __len__(self) -> int:
        return len(self.start) - 1

    def __getitem__(self, v: int) -> frozenset[Color]:
        v = range(len(self))[v]  # an IndexError past the end ends iteration
        return frozenset(self.colors[self.start[v] : self.start[v + 1]].tolist())

    def __eq__(self, other) -> bool:
        return isinstance(other, ListAssignment) and list(self) == list(other)


def make_lists(rows: Sequence[Collection[Color]]) -> ListAssignment:
    """The assignment of one collection of distinct int colors per vertex, as
    one array sorted by (row, color) only if some row is not ascending.  A
    ValueError names the first row that repeats a color, else the first empty one."""
    sizes = np.fromiter(map(len, rows), np.int64, len(rows))
    start = np.concatenate(([0], np.cumsum(sizes)))
    try:
        colors = np.fromiter(itertools.chain.from_iterable(rows), np.int64, start[-1])
    except OverflowError:  # a color beyond int64
        colors = np.fromiter(itertools.chain.from_iterable(rows), object, start[-1])
    owner = np.repeat(np.arange(len(rows)), sizes)
    inside = owner[1:] == owner[:-1]
    if (colors[1:] <= colors[:-1])[inside].any():
        colors = colors[np.lexsort((colors, owner))]  # owner is ascending already
        same = np.flatnonzero((colors[1:] == colors[:-1]) & inside)
        if same.size:
            v = int(owner[same[0]])
            c = next(c for i, c in enumerate(rows[v]) if c in rows[v][:i])  # in row order
            raise ValueError(f"list of vertex {v} repeats color {c}")
    empty = np.flatnonzero(sizes == 0)
    if empty.size:
        raise ValueError(f"list of vertex {empty[0]} is empty")
    return ListAssignment(start, colors)


def uniform_lists(n: int, k: int) -> ListAssignment:
    return make_lists([range(k)] * n)


def check_list_count(g: Graph, L: ListAssignment) -> None:
    """A GraphError unless L holds exactly one list per vertex of g."""
    if len(L) != g.n:
        raise GraphError(f"{len(L)} lists for a graph on {g.n} vertices")


def neighbor_classes(size_u, size_v, gap_v, alpha, beta) -> np.ndarray:
    """The class of a neighbor u of v by list size, elementwise over the
    broadcast arrays, gap_v = d(v) + 1 - ω(v): 0 subservient (|L(u)| <
    |L(v)|), 3 lordlier (|L(u)| >= (1 + alpha)|L(v)|), and of the rest 1
    strongly egalitarian (|L(u)| < |L(v)| + beta gap_v) or 2 weakly
    egalitarian.  Classes 1 and 2 are the egalitarian set whose non-edges the
    pairs - trips bound's e1 counts; unlike the sigma-egalitarian heads that
    savings_rows samples, it reads no sigma and holds no lordlier neighbor.
    Both cut-offs are compared in Python ints over the exact ratios of the
    positive rationals alpha and beta, so neither is rounded at any size."""
    a, b = alpha.as_integer_ratio()
    c, d = beta.as_integer_ratio()
    su, sv, gv = (np.asarray(x).astype(object) for x in (size_u, size_v, gap_v))
    conditions = [su < sv, su * b >= (a + b) * sv, su * d < sv * d + c * gv]
    return np.select(conditions, [0, 3, 1], 2)  # the first that holds, else weak


def is_proper(g: Graph, L: ListAssignment, coloring: Coloring) -> bool:
    """Proper on its domain and list-respecting; a key that is not a vertex
    of g is a GraphError.

    The colors are compared in the lists' dtype where they convert exactly,
    else as Python objects: every list entry with its vertex's color at
    once, then both ends of every CSR edge at once."""
    check_list_count(g, L)
    for v in coloring:
        if not 0 <= v < g.n:  # before color[v] can alias it
            raise GraphError(f"vertex {v} out of range [0, {g.n})")
    vs = np.fromiter(coloring, np.int64, len(coloring))
    cast = np.array(list(coloring.values()))
    if cast.dtype != L.colors.dtype:  # 1.5, "1" or 2**63 beside int64 colors
        cast = np.array(list(coloring.values()), dtype=object)
    color, colored = np.zeros(g.n, dtype=cast.dtype), np.zeros(g.n, dtype=bool)
    color[vs], colored[vs] = cast, True
    owner = np.repeat(np.arange(g.n), np.diff(L.start))
    if np.count_nonzero((L.colors == color[owner]) & colored[owner]) != len(vs):
        return False  # a row holds each color once, so some color is not in its row
    tail = np.repeat(np.arange(g.n), np.diff(g.ptr))
    return not (colored[tail] & colored[g.nbr] & (color[tail] == color[g.nbr])).any()
