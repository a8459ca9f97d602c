"""On-disk formats: DIMACS .col graphs and JSON color lists.

`parse_dimacs` reads a text shaped like `emit_dimacs` output (the problem
line first, then m lines `e u v` of one space and ASCII digits, each ended
by a newline but perhaps the last) in one pass over the whole file: one
regular expression and a newline count decide the shape, and all ends
convert in one numpy call.  Any other text, and any text with an error,
goes to the line loop `_parse_dimacs_lines`, which accepts comments, blank
lines, CRLF and any whitespace, and names the line of every error.  Both
return equal graphs on every text the fast pass accepts.

A lists file must be a JSON object whose "lists" array holds one array
per vertex, and every color in it must be a JSON integer."""

from __future__ import annotations

import re

import numpy as np

from .graph import Graph, GraphError
from .lists import ListAssignment, make_lists


class FormatError(ValueError):
    pass


# --- DIMACS .col (1-indexed) ----------------------------------------------


def _field(x: str, lineno: int) -> int:
    try:
        return int(x)
    except ValueError:
        raise FormatError(f"line {lineno}: {x!r} is not an integer") from None


_PROBLEM = re.compile(r"p edge (\d+) (\d+)", re.ASCII)
# every line after the problem line in emit_dimacs output
_EDGES = re.compile(r"(?:e [0-9]+ [0-9]+\n)*", re.ASCII)


def parse_dimacs(text: str) -> Graph:
    """The graph of a DIMACS .col text.  Every error names its line: a bad
    record first, then a field that is not an integer, then an edge out of
    range or a loop, each the first in the file, and last a problem line
    whose edge count differs from the number of `e` lines or whose vertex
    count is more than a Graph holds.

    A text of the problem line and then exactly its m `e u v` lines, each
    field after a single space, is read in one pass; any other text, errors
    included, line by line."""
    problem, _, body = text.partition("\n")
    head = _PROBLEM.fullmatch(problem)
    if body and not body.endswith("\n"):
        body += "\n"
    if head is None or not _EDGES.fullmatch(body) or body.count("\n") != int(head[2]):
        return _parse_dimacs_lines(text)
    # fromstring saturates a field beyond int64 at 2**63 - 1, which from_edges'
    # range check rejects for every n a Graph holds; it rejects a larger n too
    uv = np.fromstring(body.replace("e", " "), dtype=np.int64, sep=" ").reshape(-1, 2) - 1
    try:
        return Graph.from_edges(int(head[1]), uv)
    except GraphError:  # an end out of range, a loop or too many vertices
        return _parse_dimacs_lines(text)  # which names the line


def _parse_dimacs_lines(text: str) -> Graph:
    """parse_dimacs line by line: any text, and the line of every error."""
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
        # name the first field int() rejects; a field beyond int64 is no vertex
        # a graph can hold, whatever n says, so it becomes 0, out of range
        fields = (_field(x, edge_lines[i // 2]) for i, x in enumerate(ends))
        uv = np.array([x if -(2**63) <= x < 2**63 else 0 for x in fields], dtype=np.int64)
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
    try:
        return Graph.from_edges(n, uv)
    except GraphError as exc:  # the ends are checked above: too many vertices
        raise FormatError(f"line {problem}: {exc}") from None


def emit_dimacs(g: Graph) -> str:
    lines = [f"p edge {g.n} {g.edge_count()}"]
    lines += [f"e {u + 1} {v + 1}" for u, v in g.edges()]
    return "\n".join(lines) + "\n"


# --- JSON lists ---------------------------------------------------------------


def lists_to_json(L: ListAssignment) -> dict:
    return {"lists": [sorted(row) for row in L]}


# what json.loads makes of each JSON type, named as JSON names it
_JSON_TYPES = {dict: "an object", list: "an array", str: "a string", int: "a number",
               float: "a number", bool: "a boolean", type(None): "null"}


def _json_type(x) -> str:
    return _JSON_TYPES.get(type(x), type(x).__name__)


def lists_from_json(obj: object) -> ListAssignment:
    """The lists of {"lists": [[color, ...], ...]}; every color is a JSON integer,
    none repeated within a list.  Any other shape is named, with the vertex
    of a row that is not an array."""
    if type(obj) is not dict:
        raise FormatError(f"bad lists object: expected a JSON object, got {_json_type(obj)}")
    if "lists" not in obj:
        raise FormatError('bad lists object: expected a "lists" key')
    rows = obj["lists"]
    if type(rows) is not list:
        raise FormatError(f'bad lists object: "lists" must be an array, got {_json_type(rows)}')
    for v, row in enumerate(rows):
        if type(row) is not list:
            raise FormatError(
                f"bad lists object: list of vertex {v} must be an array, got {_json_type(row)}"
            )
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
