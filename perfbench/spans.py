"""Span and count tracing of the library from outside it.

The tracer replaces library functions at the module attributes their
callers look them up by, records a span (layer, start, end, parent span,
CLI call) around each call, and puts the originals back on exit.  Spans and
counts stay in memory until the run writes them out.

The names come from one table.  A name that no longer exists is reported as
absent and a wrapped function that is never called reports 0 calls, so a
refactor shows in the numbers instead of stopping the run.
"""

from __future__ import annotations

import importlib
import time
from collections import Counter

# (module, attribute, layer).  A function imported into several modules is
# wrapped under each name its callers use; all of them feed one layer.
WRAPS = (
    ("localcolor.cli", "main", "cli.main"),
    ("localcolor.cli", "parse_dimacs", "formats.parse"),
    ("localcolor.cli", "lists_from_json", "formats.parse"),
    ("localcolor.cli", "pipeline_color", "procedure.pipeline_color"),
    ("localcolor.procedure", "make_total", "correspondence.make_total"),
    ("localcolor.experiment", "make_total", "correspondence.make_total"),
    ("localcolor.procedure", "check_equalization_precondition", "procedure.keep_table"),
    ("localcolor.montecarlo", "check_equalization_precondition", "procedure.keep_table"),
    ("localcolor.procedure", "sample_equalized", "procedure.sample_equalized"),
    ("localcolor.procedure", "residual", "correspondence.residual"),
    ("localcolor.procedure", "is_naive_partial", "correspondence.is_naive_partial"),
    ("localcolor.correspondence", "is_naive_partial", "correspondence.is_naive_partial"),
    ("localcolor.procedure", "greedy_residual_color", "procedure.greedy_residual_color"),
    ("localcolor.procedure", "splice", "correspondence.splice"),
    ("localcolor.procedure", "is_lm_coloring", "correspondence.is_lm_coloring"),
    ("localcolor.experiment", "_estimate_rows", "experiment.estimate_rows"),
    ("localcolor.experiment", "mc_estimate", "montecarlo.mc_estimate"),
    ("localcolor.montecarlo", "sample_batch", "montecarlo.sample_batch"),
    ("localcolor.experiment", "profile", "lists.profile"),
    ("localcolor.bounds", "aberrance_lower_bound", "bounds.lower_bounds"),
    ("localcolor.bounds", "pairs_trips_lower_bound", "bounds.lower_bounds"),
    ("localcolor.bounds", "unact_expectation", "bounds.lower_bounds"),
)

# Called too often for a span each: only their calls are counted.
COUNTS = (
    ("localcolor.correspondence", "CorrespondenceAssignment.pairs", "correspondence.pairs"),
)


def _batch_counts(batch, counts: Counter) -> None:
    """Trials, uncolored cells and array bytes of a BatchSample (bytes computed from nbytes)."""
    counts["montecarlo.trials"] += batch.uncolored.shape[1]
    counts["montecarlo.uncolored"] += int(batch.uncolored.sum())
    counts["montecarlo.cells"] += batch.uncolored.size
    counts["montecarlo.batch_bytes"] += sum(
        a.nbytes for a in vars(batch).values() if hasattr(a, "nbytes")
    )


def _trial_counts(partial, counts: Counter) -> None:
    """Uncolored vertices of one sampled PartialColoring."""
    counts["procedure.uncolored"] += len(partial.uncolored)
    counts["procedure.vertices"] += len(partial.phi)


RESULT_COUNTS = {
    "montecarlo.sample_batch": _batch_counts,
    "procedure.sample_equalized": _trial_counts,
}


def _resolve(module: str, attribute: str):
    """(owner, name, value) for a dotted attribute of a module, or None if absent."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *path, name = attribute.split(".")
    for part in path:
        owner = getattr(owner, part, None)
    value = getattr(owner, name, None)
    return (owner, name, value) if callable(value) else None


class Tracer:
    """Context manager that wraps the table's names while it is active.

    It may be entered again; spans and counts accumulate.  Span times are
    CPU seconds.  `request` is the index of the CLI call in progress; the
    caller sets it so that the spans of one call share it.
    """

    def __init__(self, wraps=WRAPS, counts=COUNTS):
        self.wraps, self.count_wraps = wraps, counts
        self.span_layers = tuple(dict.fromkeys(layer for _, _, layer in wraps))
        self.count_layers = tuple(dict.fromkeys(layer for _, _, layer in counts))
        self.spans: list[list] = []  # [layer, start, end, parent index, request]
        self.counts: Counter = Counter()
        self.absent: list[str] = []
        self.request = 0
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def __enter__(self):
        self.absent = []
        for module, attribute, layer in self.wraps:
            self._patch(module, attribute, layer, self._span_wrapper)
        for module, attribute, layer in self.count_wraps:
            self._patch(module, attribute, layer, self._count_wrapper)
        return self

    def __exit__(self, *exc):
        for owner, name, original, owned in reversed(self._patched):
            if owned:
                setattr(owner, name, original)
            else:
                delattr(owner, name)
        self._patched.clear()
        return False

    def _patch(self, module, attribute, layer, make_wrapper):
        found = _resolve(module, attribute)
        if found is None:
            self.absent.append(f"{module}.{attribute}")
            return
        owner, name, original = found
        owned = name in vars(owner)
        self._patched.append((owner, name, original, owned))
        setattr(owner, name, make_wrapper(original, layer))

    def _span_wrapper(self, fn, layer):
        spans, stack, hook = self.spans, self._stack, RESULT_COUNTS.get(layer)

        def wrapper(*args, **kwargs):
            index = len(spans)
            span = [layer, time.process_time(), 0.0, stack[-1] if stack else -1, self.request]
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.process_time()
                stack.pop()
            if hook is not None:
                try:
                    hook(result, self.counts)
                except AttributeError:
                    self.counts[f"{layer}.result_unreadable"] += 1
            return result

        return wrapper

    def _count_wrapper(self, fn, layer):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[layer] += 1
            return fn(*args, **kwargs)

        return wrapper

    def layer_times(self) -> dict[str, dict[str, float]]:
        """calls, total seconds and self seconds (total minus child spans) per span layer."""
        out = {layer: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for layer in self.span_layers}
        child = [0.0] * len(self.spans)
        for layer, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        for (layer, start, end, _, _), inner in zip(self.spans, child):
            row = out[layer]
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - inner
        return out
