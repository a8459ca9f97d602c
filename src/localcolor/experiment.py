"""The savings estimation experiment: sample the equalized procedure, compare
each vertex's empirical means against their closed-form lower bounds, and
persist the rows as CSV plus a JSON manifest.

Parameters arrive as "num/den" strings so thresholds never pass through
floats; the manifest echoes them with the inputs, trials and seed, and a
content hash of the CSV, so a result file is traceable to exactly one run.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from fractions import Fraction
from pathlib import Path

from . import bounds
from .correspondence import identity_correspondence, make_total
from .generators import gen_c5_blowup, gen_complete_bipartite, gen_gnp
from .graph import Graph
from .lists import ListAssignment, profile
from .montecarlo import mc_estimate
from .procedure import ProcedureParams, default_rho


def parse_fraction(s: str | int) -> Fraction:
    """Exact rational from a "num/den" string (or a bare integer)."""
    return Fraction(s)


def build_params(raw: dict) -> ProcedureParams:
    unknown = set(raw) - {"eps", "sigma", "alpha", "beta", "rho"}
    if unknown:
        raise ValueError(f"unknown procedure parameters: {', '.join(sorted(map(str, unknown)))}")

    def fraction(key: str) -> Fraction:
        try:
            return parse_fraction(raw[key])
        except (ValueError, ZeroDivisionError):
            raise ValueError(
                f"parameter {key}: expected a fraction such as 1/20, got {raw[key]!r}"
            ) from None

    kw: dict = {key: fraction(key) for key in ("eps", "sigma", "alpha", "beta") if key in raw}
    if "rho" in raw:
        if raw["rho"] == "auto":
            kw["rho"] = default_rho(kw.get("alpha", Fraction(1, 50)))
        else:
            kw["rho"] = float(fraction("rho"))
    return ProcedureParams(**kw)


def build_graph(spec: dict) -> Graph:
    """Generated graph from {"name": ..., <parameter>: <value>, ...}."""
    name = spec.get("name")
    try:
        if name == "c5_blowup":
            return gen_c5_blowup(int(spec["t"]))
        if name == "complete_bipartite":
            return gen_complete_bipartite(int(spec["a"]), int(spec["b"]))
        if name == "gnp":
            return gen_gnp(int(spec["n"]), float(parse_fraction(spec["p"])), int(spec["seed"]))
    except KeyError as exc:
        raise ValueError(f"generator {name!r} needs parameter {exc.args[0]!r}") from None
    raise ValueError(f"unknown generator {name!r}")


def _estimate_rows(
    g: Graph, L: ListAssignment, params: ProcedureParams, trials: int, seed: int
) -> list[list]:
    ca = make_total(g, identity_correspondence(g, L))
    est = mc_estimate(g, ca, params, trials, seed)
    rows = []
    k = params.keep
    for v in range(g.n):
        prof = profile(g, L, v, params.alpha, params.beta, params.sigma)
        d = prof.degree
        egal = sorted(prof.egalitarian)
        e1 = len(egal) * (len(egal) - 1) // 2 - g.subgraph(egal).edge_count() if egal else 0
        checks = [
            (
                "aberrance",
                est.aberrance,
                bounds.aberrance_lower_bound(
                    k, params.alpha, params.beta, prof.gap, d,
                    len(prof.lordlier), len(prof.weak_egal),
                ) if d else 0.0,
            ),
            (
                "pairs_minus_trips",
                None,
                bounds.pairs_trips_lower_bound(
                    k, params.alpha, len(L[v]), e1, d * (d - 1) // 2
                ),
            ),
            (
                "unact",
                est.unact,
                bounds.unact_expectation(
                    params.rho, sum(1 for u in g.adj[v] if len(L[u]) < len(L[v]))
                ),
            ),
        ]
        for name, rv, bound in checks:
            if name == "pairs_minus_trips":
                mean = float(est.pairs.mean[v] - est.trips.mean[v])
                se = float(math.hypot(est.pairs.stderr[v], est.trips.stderr[v]))
            else:
                mean = float(rv.mean[v])
                se = float(rv.stderr[v])
            ok = mean >= bound - 3 * se
            rows.append([v, name, repr(mean), repr(se), repr(float(bound)), ok])
    return rows


def run_estimate(
    g: Graph,
    L: ListAssignment,
    raw_params: dict,
    trials: int,
    seed: int,
    out_dir: str | Path,
    inputs: dict,
) -> tuple[bool, int]:
    """Check every vertex's estimated savings terms against their lower bounds.

    Writes `estimate_results.csv` (columns vertex, var, mean, se, bound, pass)
    and `estimate_manifest.json` to `out_dir`.  The manifest holds the
    `inputs` entries (the CLI names the graph and lists files), then
    `params` (`raw_params` as given), `trials`, `seed` and `content_hash`,
    the SHA-256 of the CSV text followed by a NUL byte.  Returns (every check
    passed, number of checks).
    """
    rows = _estimate_rows(g, L, build_params(raw_params), trials, seed)
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["vertex", "var", "mean", "se", "bound", "pass"])
    w.writerows(rows)
    csv_text = buf.getvalue()
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "estimate_results.csv").write_text(csv_text)
    manifest = {
        **inputs,
        "params": raw_params,
        "trials": trials,
        "seed": seed,
        "content_hash": hashlib.sha256(csv_text.encode() + b"\0").hexdigest(),
    }
    (out / "estimate_manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")
    return all(r[-1] for r in rows), len(rows)
