"""Command line interface.

Subcommands: generate | color | estimate | audit | extract | bounds |
certify-constants.  Graphs travel as DIMACS .col, lists as JSON, estimation
results as CSV plus a manifest.  Each command registers only the procedure
options its code reads, and only `_params_of` turns their text into the
ProcedureParams the library takes.  `generate` and `bounds` read K=V items
through one table each, so a missing, unknown or malformed item is named.
The argument parser is built once per process, so repeated in-process calls
of `main` do not rebuild it.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import re
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import bounds as bounds_mod
from .experiment import run_estimate
from .extraction import extract_dense_subgraph
from .formats import emit_dimacs, lists_from_text, lists_to_json, parse_dimacs
from .generators import gen_c5_blowup, gen_complete_bipartite, gen_gnp
from .graph import Graph, GraphError, max_antimatching
from .knm import density_audit
from .lists import ListAssignment, make_lists
from .procedure import PreconditionError, ProcedureParams, pipeline_color


def _read(path: str, parse):
    """parse(text of the file); an unreadable or malformed file is an argument error."""
    try:
        return parse(Path(path).read_text())
    except OSError as exc:
        raise argparse.ArgumentTypeError(f"cannot read {path}: {exc.strerror}") from None
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"{path}: {exc}") from None


def _write(path: str, text: str) -> None:
    """Write text to the file; an unwritable path is an argument error."""
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise argparse.ArgumentTypeError(f"cannot write {path}: {exc.strerror}") from None


def _load_graph(path: str) -> Graph:
    return _read(path, parse_dimacs)


def _load_lists(path: str, g: Graph) -> ListAssignment:
    L = _read(path, lists_from_text)
    if len(L) != g.n:
        raise argparse.ArgumentTypeError(
            f"{path} has {len(L)} lists, the graph has {g.n} vertices"
        )
    return L


def _int_at_least(low: int):
    """argparse type: an int no smaller than `low`."""

    def count(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    return count


def _fraction(text: str, prefix: str = "") -> Fraction:
    """argparse type of an exact rational given as num/den; `prefix` opens the error."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(
            f"{prefix}expected a fraction such as 1/20, got {text!r}"
        ) from None


def _key_value(item: str) -> tuple[str, str]:
    """argparse type of one K=V item."""
    key, sep, value = item.partition("=")
    if not (key and sep):
        raise argparse.ArgumentTypeError(f"expected K=V, got {item!r}")
    return key, value


def _key_values(text: str) -> list[tuple[str, str]]:
    """argparse type of comma-separated K=V items."""
    return [_key_value(kv) for kv in text.split(",") if kv]


# The procedure options with their defaults, in the order the manifest lists them.
PARAM_DEFAULTS = {"eps": "1/330", "alpha": "1/50", "beta": "1/50", "sigma": "0", "rho": "auto"}


def _signed_values(argv: list[str]) -> list[str]:
    """argv with a value opening with one dash (-1/2, -1e400, -inf), which
    argparse alone reads as an option, joined to the procedure option before
    it (--rho=-1/2), named in full or by a prefix of no other option of the
    command; a value that is an option of the command, such as -h, is not."""
    sub = next(a for a in _parser()._actions if isinstance(a, argparse._SubParsersAction))
    known = sub.choices[argv[0]]._option_string_actions if argv and argv[0] in sub.choices else {}
    flags, out = {f"--{name}" for name in PARAM_DEFAULTS}, []
    for arg in argv:
        prev = out[-1] if out else ""
        long = prev.startswith("--")
        named = [prev] if prev in known else [s for s in known if long and s.startswith(prev)]
        if len(named) == 1 and named[0] in flags and re.match(r"-[^-]", arg) and arg not in known:
            arg = out.pop() + "=" + arg
        out.append(arg)
    return out


def _add_param_args(p: argparse.ArgumentParser, names: tuple[str, ...]):
    for name in names:
        p.add_argument(f"--{name}", default=PARAM_DEFAULTS[name])


def _params_of(args) -> tuple[ProcedureParams, dict]:
    """The procedure parameters the command registered, built and as given
    (the text a manifest records); a rho of "auto" is left out, so it is
    default_rho(alpha).  A bad value is an argument error."""
    given = vars(args)
    raw = {name: given[name] for name in PARAM_DEFAULTS if name in given}
    kw = {
        name: _fraction(text, f"parameter {name}: ")
        for name, text in raw.items()
        if (name, text) != ("rho", "auto")
    }
    if "rho" in kw:
        try:
            kw["rho"] = float(kw["rho"])
        except OverflowError:  # beyond the float range, so outside [0, 1] too
            raise argparse.ArgumentTypeError("rho must be in [0, 1]") from None
    try:
        return ProcedureParams(**kw), raw
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError
    return value


# Readers of one K=V value: (what it must be, its conversion).
INTEGER = ("an integer", int)
NUMBER = ("a finite number", _finite)
FRACTION = ("a fraction such as 1/5", lambda text: float(Fraction(text)))

# name -> (function, [(key, reader, default text, or None if required)]), the
# keys in the function's parameter order.
GENERATORS = {
    "c5_blowup": (gen_c5_blowup, [("t", INTEGER, None)]),
    "complete_bipartite": (gen_complete_bipartite, [("a", INTEGER, None), ("b", INTEGER, None)]),
    "gnp": (gen_gnp, [("n", INTEGER, None), ("p", FRACTION, None), ("seed", INTEGER, None)]),
}
BOUNDS = {
    "talagrand": (bounds_mod.talagrand_tail, [
        ("t", NUMBER, None), ("r", INTEGER, None), ("chg", NUMBER, None),
        ("expect", NUMBER, None), ("p_exc", NUMBER, "0"), ("sup_x", NUMBER, "0"),
    ]),
    "talagrand-median": (bounds_mod.talagrand_median_tail, [
        ("t", NUMBER, None), ("r", INTEGER, None), ("chg", NUMBER, None),
        ("med", NUMBER, None), ("p_exc", NUMBER, "0"),
    ]),
    "exceptional": (bounds_mod.exceptional_prob_bound, [
        ("delta", NUMBER, None), ("sigma", NUMBER, "0"), ("eps", NUMBER, "0"),
    ]),
    "ky": (bounds_mod.ky_bound, [("k", INTEGER, None), ("n", INTEGER, None)]),
}


def _call(kind: str, name: str, table: dict, items: list[tuple[str, str]]):
    """table[name]'s function on the K=V `items`, each read by its key's
    reader.  A missing, unknown, repeated or unreadable item, a ValueError of
    the function and an overflow or division by zero are argument errors."""
    fn, keys = table[name]
    known = {key for key, _, _ in keys}
    given: dict[str, str] = {}
    for key, text in items:
        if key not in known:
            raise argparse.ArgumentTypeError(f"{kind} {name!r}: unknown parameter {key!r}")
        if key in given:
            raise argparse.ArgumentTypeError(f"{kind} {name!r}: parameter {key!r} given twice")
        given[key] = text
    args = []
    for key, (noun, read), default in keys:
        text = given.get(key, default)
        if text is None:
            raise argparse.ArgumentTypeError(f"{kind} {name!r} needs parameter {key!r}")
        try:
            args.append(read(text))
        except (ValueError, ArithmeticError):  # ArithmeticError: 1/0, or a float overflow
            raise argparse.ArgumentTypeError(
                f"{kind} {name!r}: parameter {key!r} must be {noun}, got {text!r}"
            ) from None
    try:
        return fn(*args)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"{kind} {name!r}: {exc}") from None
    except ArithmeticError as exc:  # the value overflows a float, or divides by zero
        raise argparse.ArgumentTypeError(
            f"{kind} {name!r}: {type(exc).__name__} at these parameters"
        ) from None


def cmd_generate(args) -> int:
    if args.uniform_lists is not None and not args.lists_out:
        raise argparse.ArgumentTypeError("argument --uniform-lists: needs --lists-out")
    g = _call("generator", args.name, GENERATORS, args.param or [])
    text = emit_dimacs(g)
    if args.lists_out:
        k = args.uniform_lists
        sizes = (np.diff(g.ptr) + 1).tolist() if k is None else [k] * g.n
        lists_text = json.dumps(lists_to_json(make_lists([range(s) for s in sizes])))
    if args.out:
        _write(args.out, text)
    else:
        sys.stdout.write(text)
    if args.lists_out:
        _write(args.lists_out, lists_text)
    return 0


def cmd_color(args) -> int:
    g = _load_graph(args.graph)
    L = _load_lists(args.lists, g)
    params, _ = _params_of(args)
    rng = np.random.default_rng(np.random.Philox(args.seed))
    report = pipeline_color(g, L, params, args.rounds, rng)
    out = {
        "succeeded": report.succeeded,
        "rounds_used": report.rounds_used,
        "violations_per_round": list(report.violations_per_round),
        "coloring": [report.coloring[v] for v in range(g.n)] if report.succeeded else None,
    }
    print(_indented(out))
    return 0 if report.succeeded else 1


def _indented(out: dict) -> str:
    """json.dumps(out, indent=2), byte for byte, each nonempty list of ints
    written with one join."""
    def value(v):
        if isinstance(v, list) and v:
            return "[\n    " + ",\n    ".join(map(int.__repr__, v)) + "\n  ]"
        return json.dumps(v)
    return "{\n" + ",\n".join(f"  {json.dumps(k)}: {value(v)}" for k, v in out.items()) + "\n}"


def cmd_estimate(args) -> int:
    g = _load_graph(args.graph)
    L = _load_lists(args.lists, g)
    params, raw = _params_of(args)
    try:
        passed, checks = run_estimate(
            g, L, params, args.trials, args.seed, args.out_dir,
            {"graph": args.graph, "lists": args.lists, "params": raw},
        )
    except OSError as exc:  # the directory cannot be made, or a file in it written
        raise argparse.ArgumentTypeError(
            f"argument --out-dir: cannot write {exc.filename or args.out_dir}: {exc.strerror}"
        ) from None
    print(f"estimate: {'pass' if passed else 'FAIL'} ({checks} checks)")
    return 0 if passed else 1


def cmd_audit(args) -> int:
    g = _load_graph(args.graph)
    L = _load_lists(args.lists, g)
    subset = frozenset(args.subset or range(g.n))
    try:
        m = max_antimatching(g, subset)
    except GraphError as exc:
        raise argparse.ArgumentTypeError(f"argument --subset: {exc}") from None
    rec = density_audit(g, L, subset, m)
    print(json.dumps(_jsonable(rec), indent=2))
    return 0 if rec.holds else 1


def cmd_extract(args) -> int:
    g = _load_graph(args.graph)
    try:
        res = extract_dense_subgraph(g, args.alpha, args.eps)
    except ValueError as exc:  # alpha and eps out of range, or the degree hypothesis fails
        raise argparse.ArgumentTypeError(str(exc)) from None
    fields = ("kept", "removed_high", "removed_peel")
    print(json.dumps({name: list(getattr(res, name)) for name in fields}, indent=2))
    return 0


def _jsonable(x):
    return dataclasses.asdict(x) if dataclasses.is_dataclass(x) else x


def cmd_bounds(args) -> int:
    print(json.dumps(_jsonable(_call("bound", args.which, BOUNDS, args.params)), indent=2))
    return 0


def cmd_certify_constants(args) -> int:
    params, _ = _params_of(args)
    cert = bounds_mod.savings_gap_certificate(
        params.alpha, params.beta, params.eps, params.rho
    )
    minor = bounds_mod.minor_constants_check()
    print(json.dumps({"savings_gap": _jsonable(cert), "minor": _jsonable(minor)}, indent=2))
    return 0 if cert.holds and minor.holds else 1


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parse_args leaves it as it
    was, so in-process callers of main share it."""
    ap = argparse.ArgumentParser(prog="localcolor")
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("generate", help="emit a generated graph as DIMACS")
    p.add_argument("--name", required=True, choices=list(GENERATORS))
    p.add_argument("--param", type=_key_value, action="append", metavar="K=V")
    p.add_argument("--out")
    p.add_argument("--lists-out")
    p.add_argument("--uniform-lists", type=_int_at_least(1))
    p.set_defaults(fn=cmd_generate)

    p = sub.add_parser("color", help="run the coloring pipeline")
    p.add_argument("--graph", required=True)
    p.add_argument("--lists", required=True)
    _add_param_args(p, ("eps", "alpha", "rho"))  # alpha is read only through --rho auto
    p.add_argument("--rounds", type=_int_at_least(1), default=20)
    p.add_argument("--seed", type=_int_at_least(0), required=True)
    p.set_defaults(fn=cmd_color)

    p = sub.add_parser("estimate", help="Monte Carlo savings estimates vs bounds")
    p.add_argument("--graph", required=True)
    p.add_argument("--lists", required=True)
    _add_param_args(p, tuple(PARAM_DEFAULTS))
    p.add_argument("--trials", type=_int_at_least(2), default=10_000)
    p.add_argument("--seed", type=_int_at_least(0), required=True)
    p.add_argument("--out-dir", default=".")
    p.set_defaults(fn=cmd_estimate)

    p = sub.add_parser("audit", help="density audit of an induced subgraph")
    p.add_argument("--graph", required=True)
    p.add_argument("--lists", required=True)
    p.add_argument("--subset", type=int, nargs="+")
    p.set_defaults(fn=cmd_audit)

    p = sub.add_parser("extract", help="extract a dense subgraph")
    p.add_argument("--graph", required=True)
    p.add_argument("--alpha", type=_fraction, required=True)
    p.add_argument("--eps", type=_fraction, required=True)
    p.set_defaults(fn=cmd_extract)

    p = sub.add_parser("bounds", help="evaluate a named bound")
    p.add_argument("--which", required=True, choices=list(BOUNDS))
    p.add_argument("--params", type=_key_values, default="", metavar="K=V,...")
    p.set_defaults(fn=cmd_bounds)

    p = sub.add_parser("certify-constants", help="check the parameter certificates")
    _add_param_args(p, ("eps", "alpha", "beta", "rho"))
    p.set_defaults(fn=cmd_certify_constants)
    return ap


def main(argv=None) -> int:
    ap = _parser()
    args = ap.parse_args(_signed_values(sys.argv[1:] if argv is None else argv))
    try:
        return args.fn(args)
    except (argparse.ArgumentTypeError, PreconditionError) as exc:  # found by the command
        ap.error(f"{args.cmd}: {exc}")
    except MemoryError as exc:  # numpy's message names the size asked for
        print(f"localcolor {args.cmd}: out of memory: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
