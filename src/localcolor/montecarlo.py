"""Monte Carlo estimation of the procedure's random variables.

Batches come from the procedure's vectorized sampler (`sample_batch`, also
importable from here); a batch is fully determined by its seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .correspondence import CorrespondenceAssignment
from .graph import Graph
from .lists import Color
from .procedure import BatchSample, ProcedureParams, sample_batch


@dataclass(frozen=True)
class RVEstimate:
    mean: np.ndarray
    var: np.ndarray
    stderr: np.ndarray


@dataclass(frozen=True)
class MCEstimate:
    """Per-vertex empirical moments of the savings components of one batch."""

    trials: int
    seed: int
    aberrance: RVEstimate
    pairs: RVEstimate
    trips: RVEstimate
    unact: RVEstimate
    savings: RVEstimate


def _estimate(x: np.ndarray) -> RVEstimate:
    mean = x.mean(axis=1)
    var = x.var(axis=1, ddof=1)
    return RVEstimate(mean, var, np.sqrt(var / x.shape[1]))


def mc_estimate(
    g: Graph,
    ca: CorrespondenceAssignment,
    params: ProcedureParams,
    trials: int,
    seed: int,
) -> MCEstimate:
    if trials < 2:
        raise ValueError(f"a standard error needs at least 2 trials, got trials={trials}")
    batch = sample_batch(g, ca, params, trials, seed)
    return MCEstimate(
        trials,
        seed,
        _estimate(batch.aberrance),
        _estimate(batch.pairs),
        _estimate(batch.trips),
        _estimate(batch.unact),
        _estimate(batch.savings),
    )


def keep_frequency(
    batch: BatchSample, ca: CorrespondenceAssignment, v: int
) -> dict[Color, tuple[float, int]]:
    """Empirical P[v kept | phi(v) = c] per color: (frequency, #conditioning trials)."""
    out = {}
    kept = ~batch.uncolored[v]
    for i, c in enumerate(sorted(ca.lists[v])):
        sel = batch.phi_idx[v] == i
        m = int(sel.sum())
        out[c] = (float(kept[sel].mean()) if m else float("nan"), m)
    return out
