"""Per-trial stacked arrays of a batch, for tests that read every trial.

The library never holds an (n, trials) array of savings: `estimate` reduces
the rows of `savings_rows` one vertex at a time.  Tests that compare trial by
trial stack those rows here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from localcolor.procedure import (
    CompiledInstance,
    ProcedureParams,
    batch_draws,
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
    terms = np.stack(list(savings_rows(inst, params, act, phi_idx, uncolored)), axis=1)
    return Batch(phi_idx, act, uncolored, *terms)


def stacked_batch(
    inst: CompiledInstance,
    params: ProcedureParams,
    trials: int,
    seed: int,
    equalize: bool = True,
) -> Batch:
    """`trials` equalized trials (naive if equalize=False) drawn by batch_draws,
    stacked."""
    return stack_trials(inst, params, *batch_draws(inst, params, trials, seed, equalize))
