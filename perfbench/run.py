"""The localcolor benchmark: the `estimate` and `color` CLI paths end to end,
and per-module layer timings from a separate traced run.

    python3 perfbench/run.py --workload color_gnp200 --seed 1 --seconds 25 --trace 0

Run it from the repository root.  Set-up writes the workload's instance
files (workloads.json defines the workloads and says why each was chosen),
then the CLI runs in this process through localcolor.cli.main(argv): a
closed loop with one client and no extra threads, each call made after
the previous one returned and its output was checked (checks.py).

--trace 0 measures the end-to-end metrics for --seconds seconds.  Their
times are CPU seconds of this process scaled to a reference host speed
(speed.py); the run report keeps the raw CPU and wall-clock medians.  --trace 1
runs a fixed list of calls twice, untraced and then traced (spans.py), and
reports the per-layer metrics and the tracing overhead.  Every output line
but the last is for people; the last is one JSON object with the keys
correct, attempted, failed and metrics.  Run files, spans included, are
written under .perfbench_work/ in the repository root.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from dataclasses import asdict, dataclass
from pathlib import Path

import instances
from checks import CheckError, check_color_output, check_estimate_output
from instances import HERE, REFERENCE_SEED, ROOT, SRC
from spans import Tracer
from speed import scaled, speed_probe

WORK = Path(".perfbench_work")  # relative to the repository root
SETUP_REPEATS = 5
TAIL_BEYOND = 10  # the tail percentile is the highest with this many calls beyond it
MIN_CALLS = TAIL_BEYOND + 1
POOL_PASSES = 2  # a pool seed's time is the median of at least this many calls


class SetupError(RuntimeError):
    pass


@dataclass
class Call:
    """One CLI call: its seed, its seconds, and what its output check found."""

    seed: int
    seconds: float  # CPU seconds of this process
    wall: float
    error: str | None = None
    trials: int = 0  # procedure trials sampled: --trials, or rounds used
    rounds: int = 0
    violations: int = 0
    misses: int = 0  # estimate rows whose pass is false


def run_setup(workload: str, seed: int, work: Path) -> float:
    """Time one set-up in a fresh interpreter: import the CLI's modules and
    write the instances.  Scaled like the calls (speed.py)."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "instances.py"), "--workload", workload,
         "--seed", str(seed), "--dir", str(work)],
        capture_output=True, text=True, timeout=120, check=False,
    )
    if proc.returncode != 0:
        raise SetupError(proc.stderr.strip() or f"set-up exited with {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])["setup_s"]


def run_context() -> dict:
    """Versions, cores, commit and src/ line count: information, never gated."""
    import numpy

    commit = "unknown"
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10, check=False,
            ).stdout.strip() or commit
    src_lines = sum(
        len(p.read_text().splitlines()) for p in (SRC / "localcolor").glob("*.py")
    )
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "commit": commit,
        "src_lines": src_lines,
    }


class Bench:
    """Makes and checks the CLI calls of one workload."""

    def __init__(self, cli, spec: dict, seed: int, work: Path):
        self.cli, self.spec, self.seed, self.work = cli, spec, seed, work
        self.kind = spec["command"]
        self.instances = {
            "run": instances.build(spec, seed),
            "ref": instances.build(spec, REFERENCE_SEED),
        }
        if self.kind == "estimate":
            self.extra = ["--trials", str(spec["trials"])]
        else:
            self.extra = ["--rounds", str(spec["rounds"])]
        self.extra += spec.get("params", [])

    def call_seeds(self):
        """The per-call --seed sequence the workload seed picks.

        With a pool, every pass runs the whole pool in an order the seed
        picks; otherwise the seeds are drawn from the workload seed.
        """
        import numpy as np

        rng = np.random.default_rng(self.seed)
        pool = self.spec.get("call_seed_pool")
        while True:
            if pool:
                yield from (int(s) for s in rng.permutation(pool))
            else:
                yield int(rng.integers(2**31))

    def call(self, seed: int, which: str = "run") -> tuple[Call, bytes]:
        """Run one CLI call on the run or reference instance; return it and its outputs."""
        inst, files = self.instances[which], self.work / which
        argv = [self.kind, "--graph", str(files / "graph.col"), "--lists",
                str(files / "lists.json"), *self.extra, "--seed", str(seed)]
        if self.kind == "estimate":
            argv += ["--out-dir", str(files / "out")]
        stdout = io.StringIO()
        cpu, wall = time.process_time(), time.perf_counter()
        try:
            with contextlib.redirect_stdout(stdout):
                code = self.cli.main(argv)
        except SystemExit as exc:  # argparse and input errors exit through SystemExit
            code = exc.code
        except Exception:  # a fault in the program fails this call, not the run
            error = traceback.format_exc()
        else:
            error = None
        cpu, wall = time.process_time() - cpu, time.perf_counter() - wall
        if error is not None:
            return Call(seed, cpu, wall, error=error), b""
        text = stdout.getvalue()
        try:
            if self.kind == "estimate":
                csv_text = (files / "out" / "estimate_results.csv").read_text()
                manifest = (files / "out" / "estimate_manifest.json").read_text()
                misses = check_estimate_output(inst, code, csv_text, manifest, seed, self.spec["trials"])
                return (Call(seed, cpu, wall, trials=self.spec["trials"], misses=misses),
                        (text + csv_text + manifest).encode())
            rounds, violations = check_color_output(inst, code, text, self.spec["rounds"])
            return Call(seed, cpu, wall, trials=rounds, rounds=rounds, violations=violations), text.encode()
        except (CheckError, OSError) as exc:
            return Call(seed, cpu, wall, error=str(exc)), text.encode()

    def reference_call(self) -> tuple[Call, str]:
        """The reference call: warms the process up and digests the outputs."""
        call, outputs = self.call(0, "ref")
        return call, hashlib.sha256(outputs).hexdigest()

    def timed(self, seconds: float) -> tuple[list[Call], list[float]]:
        """Calls until `seconds` have passed, with at least POOL_PASSES passes
        of a pool and enough calls for the tail percentile; a speed probe
        after each."""
        seeds = self.call_seeds()
        least = max(MIN_CALLS, POOL_PASSES * len(self.spec.get("call_seed_pool", [])))
        calls: list[Call] = []
        probes = [speed_probe()]
        start = time.perf_counter()
        while len(calls) < least or time.perf_counter() - start < seconds:
            calls.append(self.call(next(seeds))[0])
            probes.append(speed_probe())
        return calls, probes

    def traced(self) -> tuple[list[Call], list[Call], Tracer]:
        """The fixed trace calls, each run untraced and then traced, so that
        a drift in host speed hits both sides alike."""
        seeds = itertools.islice(self.call_seeds(), self.spec["trace_calls"])
        tracer = Tracer()
        plain, traced = [], []
        for i, s in enumerate(seeds):
            plain.append(self.call(s)[0])
            tracer.request = i
            with tracer:
                traced.append(self.call(s)[0])
        return plain, traced, tracer


def end_to_end(calls: list[Call], probes: list[float], setup: list[float]) -> tuple[dict, dict]:
    """The end-to-end metrics of a timed loop, and notes on how they were taken.

    A call's time is its CPU seconds scaled by the speed probes on either
    side of it.  A seed that ran more than once (a pool's repeated passes)
    counts once, with its median time, so every pass count gives the same
    mix.  Failed calls are left out of the latencies and counted as failures.
    """
    by_seed = defaultdict(list)
    trials = {}
    for c, before, after in zip(calls, probes, probes[1:]):
        if c.error is None:
            by_seed[c.seed].append(scaled(c.seconds, before, after))
            trials[c.seed] = c.trials
    latencies = sorted(statistics.median(ts) for ts in by_seed.values())
    n = len(latencies)
    busy = sum(latencies)
    rank = max(n - TAIL_BEYOND, 1)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "latency_p50_s": (statistics.median(latencies) if n else 0.0, "s"),
        "latency_tail_s": (latencies[rank - 1] if n else 0.0, "s"),
        "ops_per_s": (n / busy if busy else 0.0, "1/s"),
        "trials_per_s": (sum(trials.values()) / busy if busy else 0.0, "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    notes = {
        "latency_tail_percentile": 100 * rank / n if n else 0.0,
        "latency_samples": n,
        "probe_p50_s": statistics.median(probes),
        "cpu_latency_p50_s": statistics.median(c.seconds for c in calls),
        "wall_latency_p50_s": statistics.median(c.wall for c in calls),
    }
    return metrics, notes


def per_layer(plain: list[Call], traced: list[Call], tracer: Tracer) -> dict:
    """Per-layer metrics of the traced calls, per CLI call."""
    n = len(traced)
    counts = tracer.counts
    metrics = {}
    for layer, row in tracer.layer_times().items():
        metrics[f"{layer}_calls"] = (row["calls"] / n, "count/call")
        metrics[f"{layer}_s"] = (row["total_s"] / n, "s/call")
        metrics[f"{layer}_self_s"] = (row["self_s"] / n, "s/call")
    for layer in tracer.count_layers:
        metrics[f"{layer}_calls"] = (counts[layer] / n, "count/call")
    rounds = sum(c.rounds for c in traced)
    colorings = sum(1 for c in traced if c.rounds and c.error is None)
    plain_s, traced_s = sum(c.seconds for c in plain), sum(c.seconds for c in traced)
    metrics.update({
        "montecarlo.batch_bytes": (counts["montecarlo.batch_bytes"] / n, "B/call"),
        "montecarlo.trials": (counts["montecarlo.trials"] / n, "count/call"),
        "montecarlo.uncolored_frac": (_ratio(counts["montecarlo.uncolored"], counts["montecarlo.cells"]), "ratio"),
        "procedure.trials": (rounds / n, "count/call"),
        "procedure.useful_round_ratio": (_ratio(colorings, rounds), "ratio"),
        "procedure.violations": (sum(c.violations for c in traced) / n, "count/call"),
        "procedure.uncolored_frac": (_ratio(counts["procedure.uncolored"], counts["procedure.vertices"]), "ratio"),
        "experiment.bound_misses": (sum(c.misses for c in traced) / n, "count/call"),
        "trace.absent_names": (len(tracer.absent), "count"),
        "trace_overhead_frac": ((traced_s - plain_s) / plain_s, "ratio"),
    })
    return metrics


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="localcolor benchmark")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    workloads = instances.load_workloads()
    if args.workload not in workloads:
        ap.error(f"unknown workload {args.workload!r}; choose from {', '.join(workloads)}")
    if not (SRC / "localcolor" / "__init__.py").is_file():
        print(f"no localcolor source under {SRC}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    spec = workloads[args.workload]
    work = WORK / args.workload

    try:
        setup = [run_setup(args.workload, args.seed, work) for _ in range(SETUP_REPEATS)]
    except (SetupError, subprocess.SubprocessError) as exc:
        print(f"set-up failed: {exc}", file=sys.stderr)
        return 1
    sys.path.insert(0, str(SRC))
    import localcolor.cli as cli

    if Path(cli.__file__).resolve().parents[1] != SRC:
        print(f"localcolor was imported from {cli.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    bench = Bench(cli, spec, args.seed, work)
    context = run_context()
    reference_call, digest = bench.reference_call()
    reference = spec.get("reference_sha256")
    report = {"workload": args.workload, "seed": args.seed, "context": context,
              "digest": digest, "digest_status": "match" if digest == reference else "digest_changed"}

    if args.trace:
        plain, traced, tracer = bench.traced()
        calls = [reference_call, *plain, *traced]
        metrics = per_layer(plain, traced, tracer)
        start = min((s[1] for s in tracer.spans), default=0.0)
        report["absent_names"] = tracer.absent
        report["trace_calls"] = [asdict(c) for c in traced]
        report["spans"] = [[layer, t0 - start, t1 - start, parent, request]
                           for layer, t0, t1, parent, request in tracer.spans]
        report["counts"] = dict(tracer.counts)
        notes = {"procedure.useful_round_ratio base (rounds)": sum(c.rounds for c in traced),
                 "traced calls": len(traced)}
    else:
        timed, probes = bench.timed(args.seconds)
        calls = [reference_call, *timed]
        metrics, notes = end_to_end(timed, probes, setup)
        report["calls"] = [asdict(c) for c in calls]
    failed = [c for c in calls if c.error is not None]
    report["metrics"], report["notes"] = metrics, notes
    (work / ("trace.json" if args.trace else "report.json")).write_text(json.dumps(report) + "\n")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print("context  " + "  ".join(f"{k} {v}" for k, v in context.items()))
    print(f"digest   {report['digest_status']}  {digest}"
          + ("" if digest == reference else f"  (reference {reference})"))
    print(f"calls    {len(calls)} attempted, {len(failed)} failed, "
          f"{sum(c.misses for c in calls)} estimate rows below bound - 3 se")
    for c in failed[:3]:
        print(f"  failed seed {c.seed}: {c.error.strip().splitlines()[-1]}")
    if args.trace and tracer.absent:
        print("absent   " + ", ".join(tracer.absent))
    for name, (value, unit) in metrics.items():
        print(f"  {name:42s} {value:14.6g} {unit}")
    if not args.trace:  # shown, not gated: it is 0 whenever the program works
        print(f"  {'fail_rate':42s} {len(failed) / len(calls):14.6g} ratio")
    for name, value in notes.items():
        print(f"  ({name}: {value:.6g})")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(calls),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
