"""Checks of the CLI's outputs, written without the localcolor library.

Each check raises CheckError naming the first fault it finds, and returns
the counts the benchmark reports.
"""

from __future__ import annotations

import csv
import io
import json
import math

ESTIMATE_HEADER = ["vertex", "var", "mean", "se", "bound", "pass"]
ESTIMATE_VARS = ("aberrance", "pairs_minus_trips", "unact")


class CheckError(Exception):
    """An output is wrong; the message says how."""


def check_list_coloring(inst, coloring) -> None:
    """Every vertex has a color from its own list and no edge is monochromatic.

    This is enough for `color`: its correspondence only adds pairs to the
    identity matchings, so a proper correspondence coloring is a proper
    list coloring.
    """
    if not isinstance(coloring, list) or len(coloring) != inst.n:
        raise CheckError(f"coloring must list {inst.n} colors")
    for v, c in enumerate(coloring):
        if c not in inst.lists[v]:
            raise CheckError(f"vertex {v} has color {c!r}, outside its list")
    for u, v in inst.edges:
        if coloring[u] == coloring[v]:
            raise CheckError(f"edge ({u}, {v}) is monochromatic in color {coloring[u]}")


def check_color_output(inst, exit_code, stdout: str, rounds: int) -> tuple[int, int]:
    """Check one `color` call; return (rounds_used, total violations)."""
    if exit_code == 1:
        raise CheckError(f"round budget of {rounds} exhausted")
    if exit_code != 0:
        raise CheckError(f"exit code {exit_code!r}")
    try:
        out = json.loads(stdout)
    except json.JSONDecodeError as exc:
        raise CheckError(f"stdout is not JSON: {exc}") from exc
    if out.get("succeeded") is not True:
        raise CheckError("exit code 0 without success")
    used = out.get("rounds_used")
    if not isinstance(used, int) or not 1 <= used <= rounds:
        raise CheckError(f"rounds_used {used!r} outside 1..{rounds}")
    violations = out.get("violations_per_round")
    if not isinstance(violations, list) or len(violations) != used:
        raise CheckError("violations_per_round must have one entry per round used")
    check_list_coloring(inst, out.get("coloring"))
    return used, sum(violations)


def check_estimate_output(
    inst, exit_code, csv_text: str, manifest_text: str, seed: int, trials: int
) -> int:
    """Check one `estimate` call; return the number of rows whose pass is false.

    A row passes when mean >= bound - 3 se.  The check recomputes that
    verdict from the row's own numbers, and the exit code must be 0 exactly
    when every row passes.
    """
    rows = list(csv.reader(io.StringIO(csv_text)))
    if not rows or rows[0] != ESTIMATE_HEADER:
        raise CheckError("CSV header differs from the estimate header")
    body = rows[1:]
    if len(body) != 3 * inst.n:
        raise CheckError(f"{len(body)} CSV rows for {inst.n} vertices, expected three each")
    misses = 0
    for i, row in enumerate(body):
        v, var = divmod(i, 3)
        if len(row) != 6 or row[0] != str(v) or row[1] != ESTIMATE_VARS[var]:
            raise CheckError(f"row {i + 1} should be vertex {v}, {ESTIMATE_VARS[var]}")
        try:
            mean, se, bound = (float(x) for x in row[2:5])
        except ValueError as exc:
            raise CheckError(f"row {i + 1}: {exc}") from exc
        if not all(math.isfinite(x) for x in (mean, se, bound)) or se < 0:
            raise CheckError(f"row {i + 1}: non-finite value or negative se")
        verdict = mean >= bound - 3 * se
        if row[5] != str(verdict):
            raise CheckError(f"row {i + 1}: pass is {row[5]}, its numbers give {verdict}")
        misses += not verdict
    if exit_code != (1 if misses else 0):
        raise CheckError(f"exit code {exit_code!r} with {misses} failing rows")
    try:
        manifest = json.loads(manifest_text)
    except json.JSONDecodeError as exc:
        raise CheckError(f"manifest is not JSON: {exc}") from exc
    if manifest.get("seed") != seed or manifest.get("trials") != trials:
        raise CheckError("manifest seed or trials differ from the call")
    return misses
