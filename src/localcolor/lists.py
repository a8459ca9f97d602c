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


def make_lists(rows: Sequence[Collection[Color]], *,
               colors: np.ndarray | None = None) -> ListAssignment:
    """The assignment of one collection of distinct int colors per vertex or,
    given the flat int64 `colors` in row order, of rows[v] of them to vertex v:
    one array sorted by (row, color) only if some row is not ascending.  A
    ValueError names the first row that repeats a color, else the first empty one."""
    if colors is None:
        sizes = np.fromiter(map(len, rows), np.int64, len(rows))
        try:
            colors = np.fromiter(itertools.chain.from_iterable(rows), np.int64, sizes.sum())
        except OverflowError:  # a color beyond int64
            colors = np.fromiter(itertools.chain.from_iterable(rows), object, sizes.sum())
    else:
        sizes = np.asarray(rows, np.int64)
    start = np.concatenate(([0], np.cumsum(sizes)))
    owner = np.repeat(np.arange(len(sizes)), sizes)
    inside = owner[1:] == owner[:-1]
    if (colors[1:] <= colors[:-1])[inside].any():
        given, colors = colors, colors[np.lexsort((colors, owner))]  # owner is ascending already
        same = np.flatnonzero((colors[1:] == colors[:-1]) & inside)
        if same.size:
            v = int(owner[same[0]])
            row = given[start[v] : start[v + 1]].tolist()
            c = next(c for i, c in enumerate(row) if c in row[:i])  # in row order
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
    once, then both ends of every CSR edge at once, each vertex's color and
    mark repeated by its list size or degree, so no index array is built."""
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
    sizes, degrees = np.diff(L.start), np.diff(g.ptr)
    held = (L.colors == np.repeat(color, sizes)) & np.repeat(colored, sizes)
    if np.count_nonzero(held) != len(vs):
        return False  # a row holds each color once, so some color is not in its row
    clash = np.repeat(color, degrees) == color[g.nbr]
    return not (clash & np.repeat(colored, degrees) & colored[g.nbr]).any()
