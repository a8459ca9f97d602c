"""Closed-form evaluators for the quantitative bounds, plus tail bounds.

Every evaluator takes raw numbers rather than graph handles, so the abstract
inequalities can be certified independently of any instance; the experiment
runner reads the parameters off one `neighbor_classes` call.  The tail
bounds are a Talagrand-style inequality tolerating exceptional outcomes, in
expectation and median forms, and the exceptional-outcome probability bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any

from .procedure import keep_constant


@dataclass(frozen=True)
class BoundReport:
    name: str
    lhs: float
    rhs: float
    holds: bool
    context: dict[str, Any] = field(default_factory=dict)


def unact_expectation(rho: float, n_preceding: int) -> float:
    """Exact E[Unact_v]: each preceding neighbor stays inactive w.p. 1 - rho."""
    return (1 - rho) * n_preceding


def aberrance_lower_bound(
    k: float, alpha: float, beta: float, gap: int, d: int, n_lord: int, n_weak: int
) -> float:
    """Lower bound on expected aberrance:
    K (alpha/(1+alpha) n_lord + beta gap/(d + beta gap) n_weak).

    Each kept lordlier neighbor misses the center's list with probability at
    least alpha/(1+alpha); weakly egalitarian ones at least beta gap/(d+beta gap).
    """
    alpha, beta = float(alpha), float(beta)
    if d < 0:
        raise ValueError("d must be at least 0")
    weak_term = 0.0
    if n_weak and beta > 0 and gap > 0:
        weak_term = beta * gap / (d + beta * gap) * n_weak
    return k * (alpha / (1 + alpha) * n_lord + weak_term)


def pairs_trips_lower_bound(
    k: float, alpha: float, listsize: int, e1: int, e2: int
) -> float:
    """Lower bound on E[Pairs - Trips]:
    min over e in {e1, e2} of (K e / listsize)(K/(1+alpha)^2 - sqrt(2e)/(3 listsize)).

    e1 counts non-edges in VertexProfile.egalitarian (no sigma or lordlier), e2 = C(d, 2);
    the sampled pairs and trips range over the sigma-egalitarian set, lordlier too.
    """
    alpha = float(alpha)
    if listsize < 1:
        raise ValueError("listsize must be at least 1")
    return min(
        (k * e / listsize) * (k / (1 + alpha) ** 2 - math.sqrt(2 * e) / (3 * listsize))
        for e in (e1, e2)
    )


def savings_gap_certificate(
    alpha: float, beta: float, eps: float, rho: float
) -> BoundReport:
    """Parameter-only certificate that expected savings cover the structural demand.

    Two candidate local sparsity levels; holds when the smaller induced
    pairs-minus-trips value still clears 1.01 eps per unit of gap-degree.
    """
    a, b, e = float(alpha), float(beta), float(eps)
    k = keep_constant(e, rho)
    c1 = 0.25 - e * (4 + b + 2 * a) / (2 * (1 - e))
    c2 = 0.5 - e * (1 + b) / (2 * (1 - e))
    # K = 0 (rho = 0), or an a * K that underflows, means the certificate
    # already collapsed, and so does a non-positive sparsity level
    sp1 = c1 - 1.01 * e * (1 + a) / (a * k) * c2 if a * k > 0 else -math.inf
    sp2 = 0.5
    vals = tuple(
        k * (k / (1 + a) ** 2 - math.sqrt(2 * sp) / (3 * (1 - e))) * sp
        if sp > 0
        else -math.inf
        for sp in (sp1, sp2)
    )
    target = 1.01 * e
    return BoundReport(
        "savings_gap_certificate",
        min(vals),
        target,
        min(vals) >= target,
        {"sparsity": (sp1, sp2), "value": vals, "K": k},
    )


# --- concentration ------------------------------------------------------------


def talagrand_tail(
    t: float, r: int, chg: float, expect: float, p_exc: float, sup_x: float
) -> BoundReport:
    """Tail bound 4 exp(-t^2 / (8 chg^2 r (4 E + t))) + 4 p_exc.

    The report's `holds` flag is the applicability test
    t > 96 chg sqrt(r E) + 128 r chg^2 + 8 p_exc sup_x; the bound value is
    reported either way.  E or sup_x below 0, or p_exc outside [0, 1], is a
    ValueError naming it.
    """
    if t <= 0 or chg <= 0 or r < 1:
        raise ValueError("need t > 0, chg > 0, r >= 1")
    if expect < 0:
        raise ValueError(f"expect must be at least 0, got {expect}")
    if not 0 <= p_exc <= 1:
        raise ValueError(f"p_exc must be in [0, 1], got {p_exc}")
    if sup_x < 0:
        raise ValueError(f"sup_x must be at least 0, got {sup_x}")
    threshold = 96 * chg * math.sqrt(r * expect) + 128 * r * chg**2 + 8 * p_exc * sup_x
    bound = 4 * math.exp(-(t**2) / (8 * chg**2 * r * (4 * expect + t))) + 4 * p_exc
    return BoundReport(
        "talagrand_tail", bound, threshold, t > threshold, {"t": t, "r": r, "chg": chg}
    )


def talagrand_median_tail(t: float, r: int, chg: float, med: float, p_exc: float) -> float:
    """Median form, no applicability threshold:
    4 exp(-t^2 / (4 chg^2 r (med + t))) + 4 p_exc (may exceed 1, i.e. vacuous);
    med below 0 or p_exc outside [0, 1] is a ValueError naming it."""
    if t < 0 or chg <= 0 or r < 1:
        raise ValueError("need t >= 0, chg > 0, r >= 1")
    if med < 0:
        raise ValueError(f"med must be at least 0, got {med}")
    if not 0 <= p_exc <= 1:
        raise ValueError(f"p_exc must be in [0, 1], got {p_exc}")
    if t == 0:
        return 4 + 4 * p_exc
    return 4 * math.exp(-(t**2) / (4 * chg**2 * r * (med + t))) + 4 * p_exc


def exceptional_prob_bound(delta: float, sigma: float, eps: float) -> float:
    """Probability bound for a nearly egalitarian neighborhood keeping too few
    colored vertices: delta^4 (e / ((1-sigma)(1-eps) ln delta))^(ln delta)."""
    if delta < 2:
        raise ValueError("needs maximum degree at least 2")
    if not (0 <= sigma < 1 and 0 <= eps < 1):
        raise ValueError("sigma and eps must be in [0, 1)")
    ln_d = math.log(delta)
    return delta**4 * (math.e / ((1 - sigma) * (1 - eps) * ln_d)) ** ln_d


# --- density constants ---------------------------------------------------------


def ky_bound(k: int, n: int) -> int:
    """Minimum edge count of an n-vertex color-k-critical graph (k >= 4):
    ceil(((k+1)(k-2) n - k(k-3)) / (2(k-1)))."""
    if k < 4:
        raise ValueError("defined for k >= 4")
    if n < k:
        raise ValueError("a k-critical graph has at least k vertices")
    return -(-((k + 1) * (k - 2) * n - k * (k - 3)) // (2 * (k - 1)))


def minor_constants_check(
    alpha: Fraction = Fraction(499, 1000), factor: Fraction = Fraction(99982, 100000)
) -> BoundReport:
    """eps = alpha^2 / 1350; the constant pair works when 1 + eps >= 1/factor,
    checked with exact rationals."""
    alpha = Fraction(alpha)
    factor = Fraction(factor)
    if not (0 < alpha < Fraction(1, 2)):
        raise ValueError("alpha must be in (0, 1/2)")
    eps = alpha**2 / 1350
    holds = 1 + eps >= 1 / factor
    return BoundReport(
        "minor_constants",
        float(1 + eps),
        float(1 / factor),
        holds,
        {"alpha": str(alpha), "eps": str(eps)},
    )
