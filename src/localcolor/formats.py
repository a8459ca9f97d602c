"""On-disk formats: DIMACS .col graphs and JSON for lists, correspondences,
and complete-graph-minus-matching instances."""

from __future__ import annotations

from .correspondence import CorrespondenceAssignment, validate
from .graph import Graph, Matching
from .knm import KnmInstance
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


# --- JSON graphs and lists --------------------------------------------------


def graph_to_json(g: Graph) -> dict:
    return {"n": g.n, "edges": [[u, v] for u, v in sorted(g.edges())]}


def graph_from_json(obj: dict) -> Graph:
    try:
        return Graph.from_edges(obj["n"], [tuple(e) for e in obj["edges"]])
    except (KeyError, TypeError) as exc:
        raise FormatError(f"bad graph object: {exc}") from exc


def lists_to_json(L: ListAssignment) -> dict:
    return {"lists": [sorted(row) for row in L]}


def lists_from_json(obj: dict) -> ListAssignment:
    """The lists of {"lists": [[color, ...], ...]}; every color is a JSON integer,
    none repeated within a list."""
    try:
        rows = [list(row) for row in obj["lists"]]
    except (KeyError, TypeError) as exc:
        raise FormatError(f"bad lists object: {exc}") from exc
    for v, row in enumerate(rows):
        seen = set()
        for c in row:
            if type(c) is not int:  # bool is a subclass of int, and True == 1
                raise FormatError(f"list of vertex {v}: color {c!r} is not an integer")
            if c in seen:
                raise FormatError(f"list of vertex {v} repeats color {c}")
            seen.add(c)
    return make_lists(rows)


def correspondence_to_json(ca: CorrespondenceAssignment) -> dict:
    return {
        "lists": [sorted(row) for row in ca.lists],
        "edges": [
            {"u": u, "v": v, "pairs": [list(p) for p in sorted(pairs)]}
            for (u, v), pairs in sorted(ca.matchings.items())
        ],
    }


def correspondence_from_json(obj: dict, g: Graph) -> CorrespondenceAssignment:
    try:
        lists = make_lists(obj["lists"])
        matchings = {
            (rec["u"], rec["v"]): frozenset(tuple(p) for p in rec["pairs"])
            for rec in obj["edges"]
        }
    except (KeyError, TypeError) as exc:
        raise FormatError(f"bad correspondence object: {exc}") from exc
    ca = CorrespondenceAssignment(lists, matchings)
    validate(g, ca)
    return ca


def knm_to_json(inst: KnmInstance) -> dict:
    return {
        "n": inst.n,
        "matching": [list(e) for e in sorted(inst.matching.edges)],
        "lists": [sorted(row) for row in inst.lists],
    }


def knm_from_json(obj: dict) -> KnmInstance:
    try:
        return KnmInstance(
            obj["n"],
            Matching.of(tuple(e) for e in obj["matching"]),
            make_lists(obj["lists"]),
        )
    except (KeyError, TypeError) as exc:
        raise FormatError(f"bad instance object: {exc}") from exc
