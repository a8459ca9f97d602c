"""The savings estimation experiment: sample the equalized procedure, compare
each vertex's empirical means against their closed-form lower bounds, and
persist the rows as CSV plus a JSON manifest.

`run_estimate` takes built ProcedureParams, as `pipeline_color` does.  The
manifest records the caller's `inputs` (the CLI gives the file names and the
parameters as typed), then the trials and seed, and a content hash of the
CSV, so a result file is traceable to exactly one run.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from pathlib import Path

import numpy as np

from . import bounds, procedure
from .graph import Graph, complement_edge_count
from .lists import ListAssignment, neighbor_classes


def _lower_bounds(
    g: Graph, inst: procedure.CompiledInstance, params: procedure.ProcedureParams
) -> list[tuple]:
    """Each vertex's lower bounds on aberrance, pairs - trips and unact, from
    `inst` and g's ω alone, so known before any trial is drawn: one
    neighbor_classes call over the directed edges, one bincount of classes by
    tail, e1 over each tail's heads of neighbor_classes classes 1 and 2, Python
    ints."""
    deg, sizes, tail = np.diff(inst.ptr), inst.sizes, inst.tail
    gaps = deg + 1 - np.array(g.clique_numbers, dtype=np.int64)
    code = neighbor_classes(sizes[inst.head], sizes[tail], gaps[tail], params.alpha, params.beta)
    counts = np.bincount(4 * tail + code, minlength=4 * g.n).reshape(g.n, 4).tolist()
    is_egal = np.isin(code, (1, 2))
    ep = np.concatenate(([0], np.cumsum(is_egal)))[inst.ptr].tolist()
    egal = inst.head[is_egal].tolist()
    k, a, out = params.keep, params.alpha, []
    per_vertex = zip(deg.tolist(), gaps.tolist(), sizes.tolist(), counts)
    for v, (d, gap_v, size, (n_sub, _, n_weak, n_lord)) in enumerate(per_vertex):
        e1 = complement_edge_count(g, egal[ep[v] : ep[v + 1]])
        out.append((bounds.aberrance_lower_bound(k, a, params.beta, gap_v, d, n_lord, n_weak),
                    bounds.pairs_trips_lower_bound(k, a, size, e1, d * (d - 1) // 2),
                    bounds.unact_expectation(params.rho, n_sub)))
    return out


def _estimate_rows(
    inst: procedure.CompiledInstance, params: procedure.ProcedureParams, table: np.ndarray,
    trials: int, seed: int, lower: list[tuple],
) -> list[list]:
    """The CSV rows of run_estimate, each vertex's means beside its `lower`
    bounds, from trials on `inst` and its keep table drawn by draw_left on a
    Philox stream fixed by `seed`.  Each chunk's savings rows are summed, as
    savings_rows yields them, into an (n, 8) int64 buffer of Σx then Σx² per
    (vertex, component) (in Python ints where int64 could wrap), added once
    per chunk to exact Python-int totals; each chunk is dropped before the
    next is drawn, so memory does not grow with `trials`."""
    rng = np.random.default_rng(np.random.Philox(seed))
    # a savings value of v is at most max(d, C(d, 2), C(d, 3)), d = d(v), so
    # the int64 sum of squares of w trials is exact while w * top[v] < 2^63
    top = [max(d, math.comb(d, 2), math.comb(d, 3)) ** 2 for d in np.diff(inst.ptr).tolist()]
    sums = np.zeros((len(top), 8), dtype=object)  # Python ints
    part = np.empty((len(top), 8), dtype=np.int64)
    for plan, act, phi_left in procedure.draw_left(inst, params, table, trials, rng):
        for v, x in enumerate(procedure.savings_rows(plan, act, phi_left)):
            if top[v] * x.shape[1] < 2**63:
                x.sum(axis=1, out=part[v, :4])
                np.square(x).sum(axis=1, out=part[v, 4:])
            else:  # the int64 sum of squares could wrap around
                x, part[v] = x.astype(object), 0
                sums[v] += np.concatenate((x.sum(axis=1), (x * x).sum(axis=1)))
        sums += part
        del act, phi_left  # not held while the next chunk is drawn
    rows, names = [], ("aberrance", "pairs_minus_trips", "unact")
    for v, (row, bound) in enumerate(zip(sums.tolist(), lower)):
        # aberrance, pairs, trips and unact: their means and standard errors
        m = [t / trials for t in row[:4]]
        se = [math.sqrt((trials * q - t * t) / (trials * trials * (trials - 1)))
              for t, q in zip(row[:4], row[4:])]
        means, ses = (m[0], m[1] - m[2], m[3]), (se[0], math.hypot(se[1], se[2]), se[3])
        for name, mean, s, b in zip(names, means, ses, bound):
            rows.append([v, name, repr(mean), repr(s), repr(float(b)), mean >= b - 3 * s])
    return rows


def run_estimate(
    g: Graph,
    L: ListAssignment,
    params: procedure.ProcedureParams,
    trials: int,
    seed: int,
    out_dir: str | Path,
    inputs: dict,
) -> tuple[bool, int]:
    """Check every vertex's estimated savings terms against their lower bounds.

    Writes `estimate_results.csv` (columns vertex, var, mean, se, bound, pass)
    and `estimate_manifest.json` to `out_dir`.  The manifest holds the
    `inputs` entries (the CLI gives the graph and lists files and the
    parameter text), then `trials`, `seed` and `content_hash`, the SHA-256
    of the CSV text followed by a NUL byte.  Returns (every check passed,
    number of checks).  The inputs are checked, `out_dir` made and both
    files opened for writing, and then every bound computed, before any
    trial is drawn.
    """
    if trials < 2:
        raise ValueError(f"a standard error needs at least 2 trials, got trials={trials}")
    inst = procedure.compile_lists(g, L)
    table = procedure.check_equalization_precondition(inst, params)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    csv_path, manifest_path = out / "estimate_results.csv", out / "estimate_manifest.json"
    for path in (csv_path, manifest_path):
        path.open("a").close()  # append mode neither truncates nor needs the file
    rows = _estimate_rows(inst, params, table, trials, seed, _lower_bounds(g, inst, params))
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["vertex", "var", "mean", "se", "bound", "pass"])
    w.writerows(rows)
    csv_text = buf.getvalue()
    csv_path.write_text(csv_text)
    manifest = {
        **inputs,
        "trials": trials,
        "seed": seed,
        "content_hash": hashlib.sha256(csv_text.encode() + b"\0").hexdigest(),
    }
    manifest_path.write_text(json.dumps(manifest, indent=2) + "\n")
    return all(r[-1] for r in rows), len(rows)
