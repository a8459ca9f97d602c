"""On-disk formats: DIMACS .col graphs and JSON color lists.

`parse_dimacs` reads a text shaped like `emit_dimacs` output (the problem
line first, then m lines `e u v` of one space and ASCII digits, each ended
by a newline but perhaps the last) in one pass over the whole file: string
counts and one deletion of every digit decide the shape, with no pattern
matched, and all ends convert in one numpy call.  Any other text, and any
text with an error, goes to the line loop `_parse_dimacs_lines`, which
accepts comments, blank lines, CRLF and any whitespace, and names the line
of every error.  Both return equal graphs on every text the fast pass accepts.

A lists file must be a JSON object whose "lists" array holds one array
per vertex, and every color in it must be a JSON integer.  The exact text
json.dumps gives such an object is read in numpy passes over blocks of
rows, with no Python object per color; any other text goes to json.loads
and `lists_from_json`, which reads a file row by row only to name its error."""

from __future__ import annotations

import json
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


def parse_dimacs(text: str) -> Graph:
    """The graph of a DIMACS .col text.  Every error names its line: a bad
    record first, then a field that is not an integer, then an edge out of
    range or a loop, each the first in the file, and last a problem line
    whose edge count differs from the number of `e` lines or whose vertex
    count is more than a Graph holds.

    A text of the problem line and then exactly its m `e u v` lines, each
    field after a single space, is read in one pass; any other text, errors
    included, line by line.  The pass takes an ASCII text of m lines after
    the problem line, each opening with `e ` (counted before anything of
    size m is built), that deleting every digit leaves as m lines `e  `, and
    that fromstring reads as 2m numbers, so no field is empty."""
    problem, _, body = text.partition("\n")
    head = _PROBLEM.fullmatch(problem)
    m = int(head[2]) if head else -1  # no count of newlines is -1
    if body and not body.endswith("\n"):
        body += "\n"
    # the problem line holds no newline, so every "\ne " opens an edge line
    if not (text.isascii() and body.count("\n") == m and text.count("\ne ") == m
            and body.encode().translate(None, b"0123456789") == b"e  \n" * m):
        return _parse_dimacs_lines(text)
    # fromstring saturates a field beyond int64 at 2**63 - 1, which from_edges'
    # range check rejects for every n a Graph holds; it rejects a larger n too
    uv = np.fromstring(body.replace("e", " "), dtype=np.int64, sep=" ")
    if len(uv) != 2 * m:  # a field of no digit
        return _parse_dimacs_lines(text)
    try:
        return Graph.from_edges(int(head[1]), uv.reshape(m, 2) - 1)
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
    colors, start = L.colors.tolist(), L.start.tolist()
    return {"lists": [colors[a:b] for a, b in zip(start, start[1:])]}


# what json.loads makes of each JSON type, named as JSON names it
_JSON_TYPES = {dict: "an object", list: "an array", str: "a string", int: "a number",
               float: "a number", bool: "a boolean", type(None): "null"}


def _json_type(x) -> str:
    return _JSON_TYPES.get(type(x), type(x).__name__)


def lists_from_json(obj: object) -> ListAssignment:
    """The lists of {"lists": [[color, ...], ...]} as json.loads gives it; every
    color is a JSON integer, none repeated within a list.  Any other shape is
    named, with the vertex of a row that is not an array.  lists_from_text
    hands it every text that json.dumps' shape does not fit."""
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
    # one pass over every color; the rows are flattened only if all are
    # integers (a list among them would make it raise)
    if not {type(c) for row in rows for c in row} <= {int}:
        # name the first offending color, a repeat before it included
        for v, row in enumerate(rows):
            seen = set()
            for c in row:
                if type(c) is not int:  # bool is a subclass of int, and True == 1
                    raise FormatError(f"list of vertex {v}: color {c!r} is not an integer")
                if c in seen:
                    raise FormatError(f"list of vertex {v} repeats color {c}")
                seen.add(c)
    return make_lists(rows)  # which names a repeated color, then an empty list


_LISTS_HEAD, _LISTS_TAIL = '{"lists": [', "]}"
_TEXT_BLOCK = 1 << 18  # characters of whole rows read at once, so temporaries stay bounded
# each byte's class in json.dumps' rows: 0 no byte of theirs, 1 a digit, then
# - [ ] , and space; _FOLLOWS[0oab] holds when class b may follow class a
_CLASS = np.zeros(256, np.uint8)
_CLASS[np.frombuffer(b"0123456789-[], ", np.uint8)] = [1] * 10 + [2, 3, 4, 5, 6]
_FOLLOWS = np.zeros(64, bool)
_FOLLOWS[[0o11, 0o14, 0o15, 0o21, 0o31, 0o32, 0o45, 0o56, 0o61, 0o62, 0o63]] = True


def lists_from_text(text: str) -> ListAssignment:
    """lists_from_json(json.loads(text)), errors included, with no Python
    object per color where the text has json.dumps' shape (_dumped_rows)."""
    flat = _dumped_rows(text)
    if flat is None:
        return lists_from_json(json.loads(text))
    return make_lists(flat[0], colors=flat[1])  # which names a repeated color


def _dumped_rows(text: str) -> tuple[np.ndarray, np.ndarray] | None:
    """Each row's size and all colors in row order, int64, of an ASCII text
    of exactly json.dumps' shape of {"lists": [[int, ...], ...]} with no
    empty row and no color of over 18 digits, else None.  Per block of whole
    rows, one numpy pass checks each byte's class against the next byte's
    and that "], [" alone parts the rows, so none nests, then reads each
    color from its digit run and each row's size from the runs before its "]"."""
    if not (text.isascii() and text.startswith(_LISTS_HEAD) and text.endswith(_LISTS_TAIL)):
        return None
    # each row holds one "[", and the rows one color more than ","; counted
    # first, so each block is read into place and none is kept to be joined
    rows = text.count("[") - 1
    sizes, colors = np.empty(rows, np.int64), np.empty(text.count(",") + 1 if rows else 0, np.int64)
    r = c = 0  # the rows and colors read
    at, end = len(_LISTS_HEAD), len(text) - len(_LISTS_TAIL)
    while at < end:
        cut = text.find("], [", at + _TEXT_BLOCK, end) + 1 or end  # just past a row's "]"
        b = np.frombuffer(text[at:cut].encode(), np.uint8)
        at = cut + 2  # past the ", " before the next row
        cls = _CLASS.take(b)
        pair = cls[:-1] << 3
        pair |= cls[1:]
        if not (b[0] == ord("[") and b[-1] == ord("]") and _FOLLOWS.take(pair).all()):
            return None
        opens, closes = np.flatnonzero(cls == 3), np.flatnonzero(cls == 4)
        digit = cls == 1
        runs = np.flatnonzero(digit[1:] != digit[:-1]) + 1  # each digit run's first and end
        first, width = runs[::2], runs[1::2] - runs[::2]
        widest = width.max(initial=1)
        if not (
            len(opens) == len(closes) and (opens < closes).all()
            and (opens[1:] == closes[:-1] + 3).all()
            and widest <= 18 and not ((b[first] == ord("0")) & (width > 1)).any()
        ):
            return None
        sizes[r : r + len(closes)] = np.diff(np.searchsorted(first, closes), prepend=0)
        value = colors[c : c + len(first)]
        value[:] = b[first] - ord("0")
        for k in range(1, widest):  # Horner's rule over the digits
            more = np.flatnonzero(width > k)
            value[more] *= 10
            value[more] += b[first[more] + k] - ord("0")
        np.negative(value, out=value, where=b[first - 1] == ord("-"))
        r, c = r + len(closes), c + len(first)
    return sizes, colors
