"""Per-trial stacked arrays of a batch, for tests that read every trial.

The library never holds an (n, trials) array of savings: `estimate` writes
the uncolored mask into the color indices in place and reduces the rows of
`savings_rows` one vertex at a time.  Tests that compare trial by trial
stack those rows here, reading the indices through `phi_left`, a copy, so
the draws stay as drawn for the checks that reuse them.  `keep_frequency`
reads the empirical keep rate of each color off a batch's color indices and
uncolored mask.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from localcolor.lists import Color
from localcolor.procedure import (
    CompiledInstance,
    ProcedureParams,
    check_equalization_precondition,
    draw_trials,
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


def stack_trials(
    inst: CompiledInstance,
    params: ProcedureParams,
    act: np.ndarray,
    phi_idx: np.ndarray,
    heads: np.ndarray,
) -> Batch:
    """The mask of uncolored_trials and the rows of savings_rows on the given
    draws, stacked."""
    uncolored = uncolored_trials(inst, act, phi_idx, heads)
    rows = savings_rows(inst, params, act, phi_left(inst, phi_idx, uncolored))
    terms = np.stack(list(rows), axis=1)
    return Batch(phi_idx, act, uncolored, *terms)


def equalized_draws(
    inst: CompiledInstance, params: ProcedureParams, trials: int, seed: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The draws of `trials` equalized trials, after the precondition check,
    on the Philox stream that `estimate` uses for `seed`."""
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
    for i, c in enumerate(inst.lists[v]):
        sel = phi_idx[v] == i
        m = int(sel.sum())
        out[c] = (float(kept[sel].mean()) if m else float("nan"), m)
    return out
