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
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import bounds
from .generators import gen_c5_blowup, gen_complete_bipartite, gen_gnp
from .graph import Graph, complement_edge_count
from .lists import ListAssignment, profile
from .procedure import (
    ProcedureParams,
    batch_draws,
    compile_lists,
    default_rho,
    savings_rows,
    uncolored_trials,
)


def build_params(raw: dict) -> ProcedureParams:
    unknown = set(raw) - {"eps", "sigma", "alpha", "beta", "rho"}
    if unknown:
        raise ValueError(f"unknown procedure parameters: {', '.join(sorted(map(str, unknown)))}")

    def fraction(key: str) -> Fraction:
        try:
            return Fraction(raw[key])
        except (ValueError, ZeroDivisionError):
            raise ValueError(
                f"parameter {key}: expected a fraction such as 1/20, got {raw[key]!r}"
            ) from None

    kw: dict = {key: fraction(key) for key in ("eps", "sigma", "alpha", "beta") if key in raw}
    if raw.get("rho", "auto") != "auto":
        kw["rho"] = float(fraction("rho"))
    params = ProcedureParams(**kw)  # checks alpha before default_rho divides by 1 + alpha
    if raw.get("rho") == "auto":
        params = replace(params, rho=default_rho(params.alpha))
    return params


def build_graph(spec: dict) -> Graph:
    """Generated graph from {"name": ..., <parameter>: <value>, ...}."""
    name = spec.get("name")
    try:
        if name == "c5_blowup":
            return gen_c5_blowup(int(spec["t"]))
        if name == "complete_bipartite":
            return gen_complete_bipartite(int(spec["a"]), int(spec["b"]))
        if name == "gnp":
            return gen_gnp(int(spec["n"]), float(Fraction(spec["p"])), int(spec["seed"]))
    except KeyError as exc:
        raise ValueError(f"generator {name!r} needs parameter {exc.args[0]!r}") from None
    raise ValueError(f"unknown generator {name!r}")


def _mean_se(x: np.ndarray, trials: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-row mean and standard error of the (rows, trials) samples x."""
    return x.mean(axis=1), np.sqrt(x.var(axis=1, ddof=1) / trials)


def _estimate_rows(
    g: Graph, L: ListAssignment, params: ProcedureParams, trials: int, seed: int
) -> list[list]:
    """The CSV rows of run_estimate.  Each vertex's savings rows are reduced
    to means and standard errors as savings_rows yields them, so no
    (n, trials) array of savings is ever held."""
    if trials < 2:
        raise ValueError(f"a standard error needs at least 2 trials, got trials={trials}")
    inst = compile_lists(g, L)
    act, phi_idx, heads = batch_draws(inst, params, trials, seed)
    uncolored = uncolored_trials(inst, act, phi_idx, heads)
    del heads  # folded into uncolored; freed, it is 1 byte per cell off the peak
    rows = []
    k = params.keep
    for v, x in enumerate(savings_rows(inst, params, act, phi_idx, uncolored)):
        (aberr, pairs, trips, unact), (aberr_se, pairs_se, trips_se, unact_se) = (
            _mean_se(x, trials)
        )
        prof = profile(g, L, v, params.alpha, params.beta)
        d = prof.degree
        e1 = complement_edge_count(g, prof.egalitarian)
        checks = [
            (
                "aberrance",
                aberr,
                aberr_se,
                bounds.aberrance_lower_bound(
                    k, params.alpha, params.beta, prof.gap, d,
                    len(prof.lordlier), len(prof.weak_egal),
                ) if d else 0.0,
            ),
            (
                "pairs_minus_trips",
                pairs - trips,
                math.hypot(pairs_se, trips_se),
                bounds.pairs_trips_lower_bound(
                    k, params.alpha, len(L[v]), e1, d * (d - 1) // 2
                ),
            ),
            (
                "unact",
                unact,
                unact_se,
                bounds.unact_expectation(params.rho, len(prof.subservient)),
            ),
        ]
        for name, mean, se, bound in checks:
            mean, se = float(mean), float(se)
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
