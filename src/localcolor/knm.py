"""The critical-density audit: complement edges of an induced subgraph against
the bound an antimatching and the list deficits place on them."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .graph import Graph, Matching, complement_edge_count
from .lists import ListAssignment, check_list_count


@dataclass(frozen=True)
class DensityAudit:
    """One evaluation of the critical-density inequality on (H, M)."""

    lhs: int
    rhs: int
    holds: bool
    matching_size: int


def density_audit(g: Graph, L: ListAssignment, subset: Sequence[int], m: Matching) -> DensityAudit:
    """Compare complement edges of g[subset] against |M|(|H| - |M|) - sum Save(u).

    The inequality is only guaranteed for L-critical instances; the audit
    computes both sides unconditionally.
    """
    check_list_count(g, L)
    vs = sorted(set(subset))
    in_subset = set(vs)
    for u, v in m.edges:
        if u not in in_subset or v not in in_subset or g.has_edge(u, v):
            raise ValueError(f"({u},{v}) is not an antimatching pair inside the subset")
    lhs = complement_edge_count(g, vs)  # which names an id outside g before vs indexes
    k = len(m)
    save = np.diff(g.ptr)[vs] + 1 - np.diff(L.start)[vs]  # Save(u) = d(u) + 1 - |L(u)|
    rhs = k * (len(vs) - k) - int(save.sum())
    return DensityAudit(lhs=lhs, rhs=rhs, holds=lhs >= rhs, matching_size=k)
