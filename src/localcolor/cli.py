"""Command line interface.

Subcommands: generate | color | estimate | audit | extract | bounds |
certify-constants.  Graphs travel as DIMACS .col, lists and correspondences
as JSON, estimation results as CSV plus a manifest.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import bounds as bounds_mod
from .experiment import build_graph, build_params, run_estimate
from .extraction import extract_dense_subgraph
from .formats import emit_dimacs, lists_from_json, lists_to_json, parse_dimacs
from .graph import Graph, GraphError, max_antimatching
from .knm import density_audit
from .lists import ListAssignment, make_lists
from .procedure import PreconditionError, pipeline_color


def _read(path: str, parse):
    """parse(text of the file); an unreadable or malformed file is an argument error."""
    try:
        return parse(Path(path).read_text())
    except OSError as exc:
        raise argparse.ArgumentTypeError(f"cannot read {path}: {exc.strerror}") from None
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"{path}: {exc}") from None


def _load_graph(path: str) -> Graph:
    return _read(path, parse_dimacs)


def _load_lists(path: str, g: Graph) -> ListAssignment:
    L = _read(path, lambda text: lists_from_json(json.loads(text)))
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


def _fraction(text: str) -> Fraction:
    """argparse type of an exact rational given as num/den."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(
            f"expected a fraction such as 1/20, got {text!r}"
        ) from None


def _key_value(item: str) -> tuple[str, str]:
    """argparse type of one K=V item."""
    key, sep, value = item.partition("=")
    if not (key and sep):
        raise argparse.ArgumentTypeError(f"expected K=V, got {item!r}")
    return key, value


def _key_values(text: str) -> dict[str, str]:
    """argparse type of comma-separated K=V items."""
    return dict(_key_value(kv) for kv in text.split(",") if kv)


def _add_param_args(p: argparse.ArgumentParser):
    p.add_argument("--eps", default="1/330")
    p.add_argument("--alpha", default="1/50")
    p.add_argument("--beta", default="1/50")
    p.add_argument("--sigma", default="0")
    p.add_argument("--rho", default="auto")


def _params_of(args) -> dict:
    """The procedure parameters as given, checked: a bad value is an argument error."""
    raw = {
        "eps": args.eps,
        "alpha": args.alpha,
        "beta": args.beta,
        "sigma": args.sigma,
        "rho": args.rho,
    }
    try:
        build_params(raw)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return raw


def cmd_generate(args) -> int:
    try:
        g = build_graph({**dict(args.param or []), "name": args.name})
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    text = emit_dimacs(g)
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    if args.lists_out:
        k = args.uniform_lists
        if k is None:
            rows = [list(range(d + 1)) for d in np.diff(g.ptr).tolist()]
        else:
            rows = [list(range(k)) for _ in range(g.n)]
        Path(args.lists_out).write_text(json.dumps(lists_to_json(make_lists(rows))))
    return 0


def cmd_color(args) -> int:
    g = _load_graph(args.graph)
    L = _load_lists(args.lists, g)
    params = build_params(_params_of(args))
    rng = np.random.default_rng(np.random.Philox(args.seed))
    report = pipeline_color(g, L, params, args.rounds, rng)
    out = {
        "succeeded": report.succeeded,
        "rounds_used": report.rounds_used,
        "violations_per_round": list(report.violations_per_round),
        "coloring": [report.coloring[v] for v in range(g.n)] if report.succeeded else None,
    }
    print(json.dumps(out, indent=2))
    return 0 if report.succeeded else 1


def cmd_estimate(args) -> int:
    g = _load_graph(args.graph)
    L = _load_lists(args.lists, g)
    passed, checks = run_estimate(
        g, L, _params_of(args), args.trials, args.seed, args.out_dir,
        {"graph": args.graph, "lists": args.lists},
    )
    print(f"estimate: {'pass' if passed else 'FAIL'} ({checks} checks)")
    return 0 if passed else 1


def cmd_audit(args) -> int:
    g = _load_graph(args.graph)
    L = _load_lists(args.lists, g)
    subset = frozenset(args.subset) if args.subset else frozenset(range(g.n))
    try:
        m = max_antimatching(g, subset)
    except GraphError as exc:
        raise argparse.ArgumentTypeError(f"argument --subset: {exc}") from None
    rec = density_audit(g, L, subset, m)
    print(
        json.dumps(
            {
                "lhs": rec.lhs,
                "rhs": rec.rhs,
                "holds": rec.holds,
                "matching_size": rec.matching_size,
            },
            indent=2,
        )
    )
    return 0 if rec.holds else 1


def cmd_extract(args) -> int:
    g = _load_graph(args.graph)
    try:
        res = extract_dense_subgraph(g, args.alpha, args.eps)
    except ValueError as exc:  # alpha and eps out of range, or the degree hypothesis fails
        raise argparse.ArgumentTypeError(str(exc)) from None
    print(
        json.dumps(
            {
                "kept": list(res.kept),
                "removed_high": list(res.removed_high),
                "removed_peel": list(res.removed_peel),
            },
            indent=2,
        )
    )
    return 0


def _jsonable(x):
    if dataclasses.is_dataclass(x):
        return {k: _jsonable(v) for k, v in dataclasses.asdict(x).items()}
    if isinstance(x, Fraction):
        return str(x)
    if isinstance(x, (tuple, list)):
        return [_jsonable(v) for v in x]
    if isinstance(x, np.ndarray):
        return x.tolist()
    return x


def cmd_bounds(args) -> int:
    which = args.which
    try:
        rep = _evaluate_bound(which, args.params)
    except KeyError as exc:
        raise argparse.ArgumentTypeError(
            f"bound {which!r} needs parameter {exc.args[0]!r}"
        ) from None
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bound {which!r}: {exc}") from None
    print(json.dumps(_jsonable(rep), indent=2))
    return 0


def _evaluate_bound(which: str, params: dict[str, str]):
    if which == "talagrand":
        return bounds_mod.talagrand_tail(
            float(params["t"]),
            int(params["r"]),
            float(params["chg"]),
            float(params["expect"]),
            float(params.get("p_exc", 0)),
            float(params.get("sup_x", 0)),
        )
    if which == "talagrand-median":
        return bounds_mod.talagrand_median_tail(
            float(params["t"]),
            int(params["r"]),
            float(params["chg"]),
            float(params["med"]),
            float(params.get("p_exc", 0)),
        )
    if which == "exceptional":
        return bounds_mod.exceptional_prob_bound(
            float(params["delta"]), float(params.get("sigma", 0)), float(params.get("eps", 0))
        )
    return bounds_mod.ky_bound(int(params["k"]), int(params["n"]))


def cmd_certify_constants(args) -> int:
    params = build_params(_params_of(args))
    cert = bounds_mod.savings_gap_certificate(
        params.alpha, params.beta, params.eps, params.rho
    )
    minor = bounds_mod.minor_constants_check()
    print(json.dumps({"savings_gap": _jsonable(cert), "minor": _jsonable(minor)}, indent=2))
    return 0 if cert.holds and minor.holds else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="localcolor")
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("generate", help="emit a generated graph as DIMACS")
    p.add_argument("--name", required=True, choices=["c5_blowup", "complete_bipartite", "gnp"])
    p.add_argument("--param", type=_key_value, action="append", metavar="K=V")
    p.add_argument("--out")
    p.add_argument("--lists-out")
    p.add_argument("--uniform-lists", type=_int_at_least(1))
    p.set_defaults(fn=cmd_generate)

    p = sub.add_parser("color", help="run the coloring pipeline")
    p.add_argument("--graph", required=True)
    p.add_argument("--lists", required=True)
    _add_param_args(p)
    p.add_argument("--rounds", type=_int_at_least(1), default=20)
    p.add_argument("--seed", type=int, required=True)
    p.set_defaults(fn=cmd_color)

    p = sub.add_parser("estimate", help="Monte Carlo savings estimates vs bounds")
    p.add_argument("--graph", required=True)
    p.add_argument("--lists", required=True)
    _add_param_args(p)
    p.add_argument("--trials", type=_int_at_least(2), default=10_000)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out-dir", default=".")
    p.set_defaults(fn=cmd_estimate)

    p = sub.add_parser("audit", help="density audit of an induced subgraph")
    p.add_argument("--graph", required=True)
    p.add_argument("--lists", required=True)
    p.add_argument("--subset", type=int, nargs="*")
    p.set_defaults(fn=cmd_audit)

    p = sub.add_parser("extract", help="extract a dense subgraph")
    p.add_argument("--graph", required=True)
    p.add_argument("--alpha", type=_fraction, required=True)
    p.add_argument("--eps", type=_fraction, required=True)
    p.set_defaults(fn=cmd_extract)

    p = sub.add_parser("bounds", help="evaluate a named bound")
    p.add_argument(
        "--which", required=True, choices=["talagrand", "talagrand-median", "exceptional", "ky"]
    )
    p.add_argument("--params", type=_key_values, default="", metavar="K=V,...")
    p.set_defaults(fn=cmd_bounds)

    p = sub.add_parser("certify-constants", help="check the parameter certificates")
    _add_param_args(p)
    p.set_defaults(fn=cmd_certify_constants)

    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except (argparse.ArgumentTypeError, PreconditionError) as exc:  # found by the command
        ap.error(f"{args.cmd}: {exc}")


if __name__ == "__main__":
    sys.exit(main())
