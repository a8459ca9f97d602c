"""On-disk formats: DIMACS .col graphs and JSON color lists.

Every color read from JSON must be a JSON integer."""

from __future__ import annotations

import numpy as np

from .graph import Graph
from .lists import ListAssignment, make_lists


class FormatError(ValueError):
    pass


# --- DIMACS .col (1-indexed) ----------------------------------------------


def _field(x: str, lineno: int) -> int:
    try:
        return int(x)
    except ValueError:
        raise FormatError(f"line {lineno}: {x!r} is not an integer") from None


def parse_dimacs(text: str) -> Graph:
    """The graph of a DIMACS .col text.  Every error names its line: a bad
    record first, then a field that is not an integer, then an edge out of
    range or a loop, each the first in the file, and last a problem line
    whose edge count differs from the number of `e` lines."""
    n = problem = None
    ends: list[str] = []  # the two fields of every e line, in file order
    edge_lines: list[int] = []
    for lineno, parts in enumerate(map(str.split, text.splitlines()), 1):
        if len(parts) == 3 and parts[0] == "e" and n is not None:  # the common line first
            ends += parts[1:]
            edge_lines.append(lineno)
        elif not parts or parts[0].startswith("c"):
            continue
        elif parts[0] == "e":
            if n is None:
                raise FormatError(f"line {lineno}: edge before problem line")
            raise FormatError(f"line {lineno}: malformed edge line")
        elif parts[0] == "p":
            if n is not None:
                raise FormatError(f"line {lineno}: duplicate problem line")
            if len(parts) != 4 or parts[1] != "edge":
                raise FormatError(f"line {lineno}: malformed problem line")
            n, m = (_field(x, lineno) for x in parts[2:])
            problem = lineno
        else:
            raise FormatError(f"line {lineno}: unknown record {parts[0]!r}")
    if n is None:
        raise FormatError("missing problem line")
    try:
        uv = np.array(ends, dtype=np.int64)
    except (ValueError, OverflowError):
        # name the first field int() rejects; clip the rest, keeping them out of range
        uv = np.array(
            [min(max(_field(x, edge_lines[i // 2]), 0), n + 1) for i, x in enumerate(ends)],
            dtype=np.int64,
        )
    uv = uv.reshape(-1, 2) - 1
    u, v = uv.T
    out = (u < 0) | (u >= n) | (v < 0) | (v >= n)
    bad = np.flatnonzero(out | (u == v))
    if bad.size:
        i = int(bad[0])
        why = "vertex out of range" if out[i] else f"self-loop at vertex {u[i] + 1}"
        raise FormatError(f"line {edge_lines[i]}: {why}")
    if len(edge_lines) != m:
        raise FormatError(
            f"line {problem}: the problem line declares {m} edges, the file has "
            f"{len(edge_lines)} e lines"
        )
    return Graph.from_edges(n, uv)


def emit_dimacs(g: Graph) -> str:
    lines = [f"p edge {g.n} {g.edge_count()}"]
    lines += [f"e {u + 1} {v + 1}" for u, v in sorted(g.edges())]
    return "\n".join(lines) + "\n"


# --- JSON lists ---------------------------------------------------------------


def lists_to_json(L: ListAssignment) -> dict:
    return {"lists": [sorted(row) for row in L]}


def lists_from_json(obj: dict) -> ListAssignment:
    """The lists of {"lists": [[color, ...], ...]}; every color is a JSON integer,
    none repeated within a list."""
    try:
        rows = [list(row) for row in obj["lists"]]
    except (KeyError, TypeError) as exc:
        raise FormatError(f"bad lists object: {exc}") from exc
    # one pass over every color; a frozenset per row is only formed once all
    # are integers (a list among them would make it raise), and serves both
    # the repeat check and the lists
    typed = {type(c) for row in rows for c in row} <= {int}
    sets = [frozenset(row) for row in rows] if typed else []
    if not typed or any(len(s) != len(row) for s, row in zip(sets, rows)):
        # name the first offending color
        for v, row in enumerate(rows):
            seen = set()
            for c in row:
                if type(c) is not int:  # bool is a subclass of int, and True == 1
                    raise FormatError(f"list of vertex {v}: color {c!r} is not an integer")
                if c in seen:
                    raise FormatError(f"list of vertex {v} repeats color {c}")
                seen.add(c)
    return make_lists(sets)
