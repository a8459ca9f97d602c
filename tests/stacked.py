"""Per-trial stacked arrays of a batch, for tests that read every trial.

The library never holds an (n, trials) array of savings: `estimate` draws
TRIAL_CHUNK trials at a time through `draw_trials`, the one drawer
(activations and flips in blocks of rows, int32 color indices in one call
below ROW_DRAWS trials and one call per row from there), writes the
uncolored mask into the color indices in place, sums the rows of
`savings_rows` one vertex at a time and folds those sums into its totals
once per chunk.  Tests that compare trial by trial stack those rows here,
reading the indices through `phi_left`, a copy, so the draws stay as drawn
for the checks that reuse them; `chunked_draws` and `stack_chunks` draw and
stack chunk by chunk, as `estimate` does, every chunk read through one plan
as wide as the first.
`plan_of` builds the plan the evaluators read.  `keep_frequency` reads the
empirical keep rate of each color off a batch's color indices and
uncolored mask.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from localcolor.lists import Color
from localcolor.procedure import (
    TRIAL_CHUNK,
    CompiledInstance,
    ProcedureParams,
    check_equalization_precondition,
    EstimatePlan,
    draw_trials,
    estimate_plan,
    savings_rows,
    uncolored_trials,
)


@dataclass(frozen=True)
class Batch:
    """Arrays of shape (n, trials): the draws, the uncolored mask and the
    savings components of every vertex in every trial."""

    phi_idx: np.ndarray  # chosen color index per vertex per trial
    activated: np.ndarray  # bool
    uncolored: np.ndarray  # bool
    aberrance: np.ndarray
    pairs: np.ndarray
    trips: np.ndarray
    unact: np.ndarray


def phi_left(inst: CompiledInstance, phi_idx: np.ndarray, uncolored: np.ndarray) -> np.ndarray:
    """What savings_rows reads: phi_idx where the vertex stayed colored,
    |L(vertex)| where it is uncolored, as a new array."""
    return np.where(uncolored, inst.sizes[:, None], phi_idx)


def plan_of(inst: CompiledInstance, params: ProcedureParams, stride: int) -> EstimatePlan:
    """The plan of chunks of at most `stride` trials on `inst`."""
    return estimate_plan(inst, params, stride)


def stack_trials(
    inst: CompiledInstance,
    params: ProcedureParams,
    act: np.ndarray,
    phi_idx: np.ndarray,
    heads: np.ndarray,
    plan: EstimatePlan | None = None,
) -> Batch:
    """The mask of uncolored_trials and the rows of savings_rows on the given
    draws, stacked, read through `plan` (by default one as wide as the draws)."""
    if plan is None:
        plan = plan_of(inst, params, act.shape[1])
    uncolored = uncolored_trials(plan, act, phi_idx, heads)
    rows = savings_rows(plan, act, phi_left(inst, phi_idx, uncolored))
    terms = np.stack(list(rows), axis=1)
    return Batch(phi_idx, act, uncolored, *terms)


def chunked_draws(
    inst: CompiledInstance,
    params: ProcedureParams,
    table: np.ndarray | None,
    trials: int,
    rng: np.random.Generator,
) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """The draws of `trials` trials as draw_left takes them from `rng`: one
    draw_trials call per TRIAL_CHUNK trials, the last chunk narrower."""
    return [
        draw_trials(inst, params, table, min(TRIAL_CHUNK, trials - done), rng)
        for done in range(0, trials, TRIAL_CHUNK)
    ]


def stack_chunks(
    inst: CompiledInstance,
    params: ProcedureParams,
    chunks: list[tuple[np.ndarray, np.ndarray, np.ndarray]],
) -> Batch:
    """Each chunk of draws stacked, through one plan as wide as the first chunk
    as draw_left's, and the chunks joined along the trial axis."""
    plan = plan_of(inst, params, chunks[0][0].shape[1])
    parts = [vars(stack_trials(inst, params, *draws, plan)) for draws in chunks]
    return Batch(**{name: np.concatenate([p[name] for p in parts], axis=1) for name in parts[0]})


def equalized_draws(
    inst: CompiledInstance, params: ProcedureParams, trials: int, seed: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The draws of `trials` equalized trials in one draw_trials call, after
    the precondition check, on the Philox stream that `estimate` uses for
    `seed`.  Up to TRIAL_CHUNK trials they are the draws of `estimate`; past
    it, `estimate` draws chunk by chunk (chunked_draws), which takes the
    numbers from the stream in another order."""
    table = check_equalization_precondition(inst, params)
    return draw_trials(inst, params, table, trials, np.random.default_rng(np.random.Philox(seed)))


def naive_draws(
    inst: CompiledInstance, params: ProcedureParams, trials: int, seed: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The draws of `trials` naive trials, no equalizing flips, on the Philox
    stream that `estimate` uses for `seed`."""
    return draw_trials(inst, params, None, trials, np.random.default_rng(np.random.Philox(seed)))


def stacked_batch(
    inst: CompiledInstance,
    params: ProcedureParams,
    trials: int,
    seed: int,
    equalize: bool = True,
) -> Batch:
    """`trials` equalized trials drawn by equalized_draws (naive ones drawn by
    naive_draws if equalize=False), stacked."""
    draws = equalized_draws if equalize else naive_draws
    return stack_trials(inst, params, *draws(inst, params, trials, seed))


def keep_frequency(
    phi_idx: np.ndarray, uncolored: np.ndarray, inst: CompiledInstance, v: int
) -> dict[Color, tuple[float, int]]:
    """Empirical P[v kept | phi(v) = c] per color: (frequency, #conditioning
    trials), from the (n, trials) color indices and uncolored mask of a batch."""
    out = {}
    kept = ~uncolored[v]
    for i, c in enumerate(sorted_lists(inst)[v]):
        sel = phi_idx[v] == i
        m = int(sel.sum())
        out[c] = (float(kept[sel].mean()) if m else float("nan"), m)
    return out


def sorted_lists(inst: CompiledInstance) -> list[list[Color]]:
    """Each vertex's colors, ascending, as read from the instance's flat values."""
    values, start = inst.values.tolist(), inst.start.tolist()
    return [values[a:b] for a, b in zip(start, start[1:])]
