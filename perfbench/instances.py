"""Seeded instance files for the benchmark workloads.

The graphs and lists are built by this file, not by the library's
generators, so a change to the library cannot change the benchmark's
inputs.  Each instance is written as DIMACS .col plus a lists JSON file,
the two formats the CLI reads.

Run as a script this is the benchmark's set-up step, timed from a fresh
interpreter: it imports the CLI's modules, writes the run instance and the
reference instance of one workload, and prints the CPU seconds both took,
scaled by the host's speed (speed.py), as JSON:

    python3 perfbench/instances.py --workload color_gnp200 --seed 3 --dir .perfbench_work/color_gnp200
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from speed import scaled, speed_probe

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE_SEED = 0


@dataclass(frozen=True)
class Instance:
    n: int
    edges: tuple[tuple[int, int], ...]  # u < v, sorted
    lists: tuple[tuple[int, ...], ...]


def load_workloads() -> dict:
    return json.loads((HERE / "workloads.json").read_text())["workloads"]


def gnm_edges(n: int, p: str, seed: int) -> list[tuple[int, int]]:
    """A uniform graph on n vertices with exactly round(p * C(n, 2)) edges.

    Fixing the edge count at the expectation of G(n, p) keeps the work per
    call nearly the same from one seed to the next.
    """
    import numpy as np  # not at the top: set-up counts numpy's import as the package's

    pairs = n * (n - 1) // 2
    m = round(Fraction(p) * pairs)
    chosen = np.sort(np.random.default_rng(seed).choice(pairs, size=m, replace=False))
    iu, iv = np.triu_indices(n, 1)
    return list(zip(iu[chosen].tolist(), iv[chosen].tolist()))


def c5_blowup_edges(t: int) -> list[tuple[int, int]]:
    """Each vertex of a 5-cycle becomes a clique of size t (vertex t*i + j);
    consecutive cliques are completely joined.  (3t - 1)-regular on 5t vertices."""
    edges = set()
    for i in range(5):
        for j in range(t):
            for k in range(j + 1, t):
                edges.add((t * i + j, t * i + k))
            for k in range(t):
                u, v = t * i + j, t * ((i + 1) % 5) + k
                edges.add((min(u, v), max(u, v)))
    return sorted(edges)


def build(spec: dict, seed: int) -> Instance:
    """A workload's instance; the seed picks the graph where the graph is random."""
    g = spec["graph"]
    if g["kind"] == "gnm":
        n, edges = g["n"], gnm_edges(g["n"], g["p"], seed)
    elif g["kind"] == "c5_blowup":
        n, edges = 5 * g["t"], c5_blowup_edges(g["t"])
    else:
        raise ValueError(f"unknown graph kind {g['kind']!r}")
    degree = [0] * n
    for u, v in edges:
        degree[u] += 1
        degree[v] += 1
    lists = spec["lists"]
    if lists["kind"] == "degree_plus_one":
        rows = [tuple(range(d + 1)) for d in degree]
    elif lists["kind"] == "uniform":
        rows = [tuple(range(lists["k"]))] * n
    else:
        raise ValueError(f"unknown list kind {lists['kind']!r}")
    return Instance(n, tuple(sorted(edges)), tuple(rows))


def write(inst: Instance, directory: Path) -> tuple[Path, Path]:
    directory.mkdir(parents=True, exist_ok=True)
    graph, lists = directory / "graph.col", directory / "lists.json"
    lines = [f"p edge {inst.n} {len(inst.edges)}"]
    lines += [f"e {u + 1} {v + 1}" for u, v in inst.edges]
    graph.write_text("\n".join(lines) + "\n")
    lists.write_text(json.dumps({"lists": [list(row) for row in inst.lists]}))
    return graph, lists


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--dir", required=True)
    args = ap.parse_args(argv)
    spec = load_workloads()[args.workload]

    before = speed_probe()
    start = time.process_time()
    sys.path.insert(0, str(SRC))
    import localcolor.cli  # noqa: F401  (the import a CLI user pays for)

    out = Path(args.dir)
    write(build(spec, args.seed), out / "run")
    write(build(spec, REFERENCE_SEED), out / "ref")
    seconds = time.process_time() - start
    print(json.dumps({"setup_s": scaled(seconds, before, speed_probe())}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
