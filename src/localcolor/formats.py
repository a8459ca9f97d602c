"""On-disk formats: DIMACS .col graphs and JSON for lists and correspondences.

Every color read from JSON must be a JSON integer."""

from __future__ import annotations

from .correspondence import CorrespondenceAssignment, validate
from .graph import Graph
from .lists import ListAssignment, make_lists


class FormatError(ValueError):
    pass


# --- DIMACS .col (1-indexed) ----------------------------------------------


def parse_dimacs(text: str) -> Graph:
    n = None
    edges = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        parts = line.split()
        if parts[0] == "p":
            if n is not None:
                raise FormatError(f"line {lineno}: duplicate problem line")
            if len(parts) != 4 or parts[1] != "edge":
                raise FormatError(f"line {lineno}: malformed problem line")
            n = int(parts[2])
        elif parts[0] == "e":
            if n is None:
                raise FormatError(f"line {lineno}: edge before problem line")
            if len(parts) != 3:
                raise FormatError(f"line {lineno}: malformed edge line")
            u, v = int(parts[1]) - 1, int(parts[2]) - 1
            if not (0 <= u < n and 0 <= v < n):
                raise FormatError(f"line {lineno}: vertex out of range")
            edges.append((u, v))
        else:
            raise FormatError(f"line {lineno}: unknown record {parts[0]!r}")
    if n is None:
        raise FormatError("missing problem line")
    return Graph.from_edges(n, edges)


def emit_dimacs(g: Graph) -> str:
    lines = [f"p edge {g.n} {g.edge_count()}"]
    lines += [f"e {u + 1} {v + 1}" for u, v in sorted(g.edges())]
    return "\n".join(lines) + "\n"


# --- JSON lists and correspondences -----------------------------------------


def _check_color(c, where: str) -> None:
    if type(c) is not int:  # bool is a subclass of int, and True == 1
        raise FormatError(f"{where}: color {c!r} is not an integer")


def _read_lists(rows: list[list]) -> ListAssignment:
    """make_lists(rows), every color a JSON integer, none repeated within a list."""
    for v, row in enumerate(rows):
        seen = set()
        for c in row:
            _check_color(c, f"list of vertex {v}")
            if c in seen:
                raise FormatError(f"list of vertex {v} repeats color {c}")
            seen.add(c)
    return make_lists(rows)


def lists_to_json(L: ListAssignment) -> dict:
    return {"lists": [sorted(row) for row in L]}


def lists_from_json(obj: dict) -> ListAssignment:
    """The lists of {"lists": [[color, ...], ...]}; every color is a JSON integer,
    none repeated within a list."""
    try:
        rows = [list(row) for row in obj["lists"]]
    except (KeyError, TypeError) as exc:
        raise FormatError(f"bad lists object: {exc}") from exc
    return _read_lists(rows)


def correspondence_to_json(ca: CorrespondenceAssignment) -> dict:
    return {
        "lists": [sorted(row) for row in ca.lists],
        "edges": [
            {"u": u, "v": v, "pairs": [list(p) for p in sorted(pairs)]}
            for (u, v), pairs in sorted(ca.matchings.items())
        ],
    }


def correspondence_from_json(obj: dict, g: Graph) -> CorrespondenceAssignment:
    """The correspondence of {"lists": ..., "edges": [{"u", "v", "pairs"}, ...]},
    checked against `g`; every color, in a list or a pair, and every edge end
    is a JSON integer, and no edge has two records."""
    try:
        rows = [list(row) for row in obj["lists"]]
        edges = [(rec["u"], rec["v"], [tuple(p) for p in rec["pairs"]]) for rec in obj["edges"]]
    except (KeyError, TypeError) as exc:
        raise FormatError(f"bad correspondence object: {exc}") from exc
    lists = _read_lists(rows)
    seen = set()
    for i, (u, v, pairs) in enumerate(edges):
        if type(u) is not int or type(v) is not int:  # false/true would read as 0/1
            raise FormatError(f"edge record {i}: u={u!r}, v={v!r} are not both integers")
        a, b = min(u, v), max(u, v)
        if (a, b) in seen:  # the dict below would keep only the last
            raise FormatError(f"edge record {i}: a second record for edge ({a},{b})")
        seen.add((a, b))
        # checked before the pairs go into sets, where (True, 2) and (1, 2) are one
        for pair in pairs:
            if len(pair) != 2:
                raise FormatError(f"pair {list(pair)!r} on edge ({u},{v}) is not two colors")
            for x, c in zip((u, v), pair):
                _check_color(c, f"pair on edge ({u},{v}) at vertex {x}")
    matchings = {(u, v): frozenset(pairs) for u, v, pairs in edges}
    ca = CorrespondenceAssignment(lists, matchings)
    validate(g, ca)
    return ca
