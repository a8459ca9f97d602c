"""Experiment orchestration: build an instance from a config, run an
estimation or pipeline experiment, persist CSV results plus a JSON manifest.

Configs keep every rational parameter as a "num/den" string so thresholds
never pass through floats; the manifest echoes the config and a content hash
of the inputs so a result file is traceable to exactly one run.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import bounds
from .correspondence import identity_correspondence, make_total
from .generators import gen_c5_blowup, gen_complete_bipartite, gen_gnp
from .graph import Graph
from .lists import ListAssignment, local_reed_list_sizes, make_lists, profile, uniform_lists
from .montecarlo import mc_estimate
from .procedure import ProcedureParams, default_rho, list_size_order, pipeline_color


def parse_fraction(s: str | int) -> Fraction:
    """Exact rational from a "num/den" string (or a bare integer)."""
    if isinstance(s, int):
        return Fraction(s)
    return Fraction(s)


def build_params(raw: dict) -> ProcedureParams:
    unknown = set(raw) - {"eps", "sigma", "alpha", "beta", "rho"}
    if unknown:
        raise ValueError(f"unknown procedure parameters: {', '.join(sorted(map(str, unknown)))}")
    kw: dict = {}
    for key in ("eps", "sigma", "alpha", "beta"):
        if key in raw:
            kw[key] = parse_fraction(raw[key])
    if "rho" in raw:
        if raw["rho"] == "auto":
            kw["rho"] = default_rho(kw.get("alpha", Fraction(1, 50)))
        else:
            kw["rho"] = float(parse_fraction(raw["rho"]))
    return ProcedureParams(**kw)


@dataclass(frozen=True)
class ExperimentConfig:
    kind: str  # "estimate" or "pipeline"
    generator: dict  # {"name": ..., <params>}
    lists: dict  # {"kind": "uniform"|"local-reed"|"explicit", ...}
    params: dict = field(default_factory=dict)
    trials: int = 10_000
    rounds: int = 20
    seed: int = 0  # mandatory in files; the default only serves direct construction
    out_dir: str = "."


def build_graph(spec: dict) -> Graph:
    name = spec.get("name")
    if name == "c5_blowup":
        return gen_c5_blowup(int(spec["t"]))
    if name == "complete_bipartite":
        return gen_complete_bipartite(int(spec["a"]), int(spec["b"]))
    if name == "gnp":
        return gen_gnp(int(spec["n"]), float(parse_fraction(spec["p"])), int(spec["seed"]))
    raise ValueError(f"unknown generator {name!r}")


def build_lists(spec: dict, g: Graph) -> ListAssignment:
    kind = spec.get("kind")
    if kind == "uniform":
        return uniform_lists(g.n, int(spec["k"]))
    if kind == "local-reed":
        return make_lists([list(range(k)) for k in local_reed_list_sizes(g)])
    if kind == "degree-plus-one":
        return make_lists([list(range(len(g.adj[v]) + 1)) for v in range(g.n)])
    if kind == "explicit":
        return make_lists(spec["lists"])
    raise ValueError(f"unknown list spec {kind!r}")


def config_from_json(obj: dict) -> ExperimentConfig:
    if "seed" not in obj:
        raise ValueError("config must set a seed")
    return ExperimentConfig(
        kind=obj["kind"],
        generator=obj["generator"],
        lists=obj["lists"],
        params=obj.get("params", {}),
        trials=int(obj.get("trials", 10_000)),
        rounds=int(obj.get("rounds", 20)),
        seed=int(obj["seed"]),
        out_dir=obj.get("out_dir", "."),
    )


def _content_hash(*parts: str) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(p.encode())
        h.update(b"\0")
    return h.hexdigest()


@dataclass(frozen=True)
class ExperimentResult:
    csv_path: Path
    manifest_path: Path
    passed: bool


def _estimate_rows(g: Graph, L: ListAssignment, params: ProcedureParams, cfg) -> list[list]:
    ca = make_total(g, identity_correspondence(g, L))
    prec = list_size_order(L)
    est = mc_estimate(g, ca, params, prec, cfg.trials, cfg.seed)
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


def run_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    g = build_graph(cfg.generator)
    L = build_lists(cfg.lists, g)
    params = build_params(cfg.params)
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    if cfg.kind == "estimate":
        header = ["vertex", "var", "mean", "se", "bound", "pass"]
        rows = _estimate_rows(g, L, params, cfg)
        passed = all(r[-1] for r in rows)
    elif cfg.kind == "pipeline":
        rng = np.random.default_rng(np.random.Philox(cfg.seed))
        report = pipeline_color(g, L, params, cfg.rounds, rng)
        header = ["round", "violations", "succeeded"]
        rows = [
            [i + 1, bad, report.succeeded and i + 1 == report.rounds_used]
            for i, bad in enumerate(report.violations_per_round)
        ]
        passed = report.succeeded
    else:
        raise ValueError(f"unknown experiment kind {cfg.kind!r}")

    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    w.writerows(rows)
    csv_text = buf.getvalue()
    csv_path = out / f"{cfg.kind}_results.csv"
    csv_path.write_text(csv_text)

    cfg_echo = {
        "kind": cfg.kind,
        "generator": cfg.generator,
        "lists": cfg.lists,
        "params": cfg.params,
        "trials": cfg.trials,
        "rounds": cfg.rounds,
        "seed": cfg.seed,
    }
    manifest = {
        "config": cfg_echo,
        "content_hash": _content_hash(json.dumps(cfg_echo, sort_keys=True), csv_text),
        "passed": passed,
    }
    manifest_path = out / f"{cfg.kind}_manifest.json"
    manifest_path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return ExperimentResult(csv_path, manifest_path, passed)
