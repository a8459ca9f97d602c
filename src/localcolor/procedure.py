"""The local naive random coloring procedure and its equalized variant.

One trial draws, independently for each vertex, an activation coin, a
uniform color from its list, and (in the equalized variant) one extra
uncoloring coin per color.  A vertex stays colored when it is activated and
no activated neighbor with an at-least-as-large list received a color
matched to its own.  The equalizing coins are biased so that the retention
probability of every (vertex, color) pair is exactly the keep constant
K = 0.999 * rho * exp(-rho / (1 - eps)).

Savings random variables (aberrance, pairs, trips, unact) measure how much
a vertex's residual color deficit shrank; the pipeline resamples until every
vertex's deficit is covered, then finishes greedily on the uncolored part,
on the same compiled instance.

Trials are sampled in batches with numpy on a compiled instance: colors are
indices into each vertex's sorted list, and each directed edge has a table
mapping a color index at one endpoint to the matched index at the other.
`draw_trials` draws a batch, and each caller evaluates it with the
evaluator that computes what it reads.  `uncolored_trials` (per vertex, in
TRIAL_CHUNK passes) gives the uncolored set, and `savings_rows` then yields
one vertex at a time its savings components over all trials; `estimate`
reduces each row to a mean and a standard error as it arrives, so it holds
the draws (10 bytes per (vertex, trial) cell) and the 1-byte uncolored
mask, never an (n, trials) array of savings.  That still grows with the
trial count: drawing trial chunk by trial chunk would change the random
stream.  `settle_trials` (all directed edges at once) gives
`pipeline_color`'s savings check the uncolored set, unact and save_drop.
An instance is compiled in one of two ways: `compile_lists` builds the
tables of a list assignment (the identity correspondence made total)
straight from the sorted lists, and `compile_instance` reads them off a
general correspondence assignment.  `pipeline_color` takes lists and checks
its finished coloring against them: every vertex colored from its own list,
no edge with equal colors at its ends.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .correspondence import CorrespondenceAssignment
from .graph import Graph
from .lists import Color, Coloring, ListAssignment, is_proper


class PreconditionError(ValueError):
    """A procedure hypothesis failed; the message names the offender."""


def default_rho(alpha: Fraction) -> float:
    """1 - alpha / (e (1 + alpha)), the activation probability used with the defaults."""
    return 1 - float(alpha / (1 + alpha)) / math.e


@dataclass(frozen=True)
class ProcedureParams:
    """Knobs of the equalized procedure."""

    eps: Fraction = Fraction(1, 330)
    sigma: Fraction = Fraction(0)
    rho: float = default_rho(Fraction(1, 50))
    alpha: Fraction = Fraction(1, 50)
    beta: Fraction = Fraction(1, 50)

    def __post_init__(self):
        if not (0 <= self.eps < 1):
            raise ValueError("eps must be in [0, 1)")
        if not (0 <= self.sigma < 1):
            raise ValueError("sigma must be in [0, 1)")
        if not (0 <= self.rho <= 1):
            raise ValueError("rho must be in [0, 1]")
        if self.alpha <= 0:
            raise ValueError(f"alpha must be positive, got {self.alpha}")
        if self.beta <= 0:
            raise ValueError(f"beta must be positive, got {self.beta}")

    @property
    def keep(self) -> float:
        return keep_constant(self.eps, self.rho)


def keep_constant(eps: float | Fraction, rho: float) -> float:
    """K = 0.999 * rho * exp(-rho / (1 - eps))."""
    eps = float(eps)
    if not (0 <= eps < 1):
        raise ValueError("eps must be in [0, 1)")
    if not (0 <= rho <= 1):
        raise ValueError("rho must be in [0, 1]")
    return 0.999 * rho * math.exp(-rho / (1 - eps))


def keep_probability(
    g: Graph, ca: CorrespondenceAssignment, rho: float, v: int, c: Color
) -> float:
    """Exact P[v survives | phi(v) = c] under the naive procedure.

    v survives iff it is activated and no threatening neighbor u (one with
    |L(u)| >= |L(v)| whose matching carries c into L(u)) is both activated
    and assigned the matched color; the neighbor trials are independent.
    """
    if c not in ca.lists[v]:
        raise ValueError(f"color {c} is not in the list of vertex {v}")
    p = rho
    size_v = len(ca.lists[v])
    for u in g.adj[v]:
        if len(ca.lists[u]) < size_v:
            continue
        if c in dict(ca.pairs(v, u)):
            p *= 1 - rho / len(ca.lists[u])
    return p


# --- the compiled instance ---------------------------------------------------


@dataclass(frozen=True)
class CompiledInstance:
    """A correspondence assignment as flat index arrays.

    The directed edges are numbered in adjacency order: those of vertex v are
    ptr[v] .. ptr[v + 1] - 1, and edge e runs from tail[e] to head[e]; big[e]
    holds when |L(head)| >= |L(tail)|, so that the head can uncolor the tail.
    Its map starts at block[e] in `match`, a flat array: match[block[e] + i]
    is the index in lists[head[e]] of the color matched to the i-th color of
    the tail, or -1 when that color is unmatched.  back[e] is the block of
    the reverse edge.  Any flat (vertex, color) table, such as the keep
    table, holds the entry of lists[v][i] at start[v] + i.
    """

    lists: list[list[Color]]  # each vertex's list, sorted
    sizes: np.ndarray
    start: np.ndarray  # n + 1 offsets into a flat (vertex, color) table
    ptr: np.ndarray  # n + 1 offsets of each vertex's directed edges
    tail: np.ndarray
    head: np.ndarray
    big: np.ndarray  # bool
    block: np.ndarray
    back: np.ndarray
    match: np.ndarray


def _layout(g: Graph, sizes: np.ndarray):
    """The arrays shared by both compile paths: (start, ptr, tail, head, big,
    block, rev), where the edges are in adjacency order, the order of the
    blocks of `match`, and rev[e] is the reverse edge of e."""
    deg = np.array([len(g.adj[v]) for v in range(g.n)], dtype=np.int64)
    start = np.concatenate(([0], np.cumsum(sizes)))
    ptr = np.concatenate(([0], np.cumsum(deg)))
    tail = np.repeat(np.arange(g.n), deg)
    head = np.array([u for v in range(g.n) for u in g.adj[v]], dtype=np.int64)
    width = sizes[tail]
    # the k-th edge by (tail, head) is the reverse of the k-th by (head, tail)
    rev = np.empty_like(tail)
    rev[np.lexsort((head, tail))] = np.lexsort((tail, head))
    return start, ptr, tail, head, sizes[head] >= width, np.cumsum(width) - width, rev


def _cells(
    start: np.ndarray, tail: np.ndarray, block: np.ndarray, sizes: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(edge, entry) of every cell of `match`: its directed edge, and the flat
    (vertex, color) table entry of its tail's color."""
    edge = np.repeat(np.arange(len(tail)), sizes[tail])
    entry = np.arange(len(edge))
    entry += (start[tail] - block)[edge]
    return edge, entry


def compile_instance(g: Graph, ca: CorrespondenceAssignment) -> CompiledInstance:
    """Index arrays of `ca`, filled in one pass over the edge matchings."""
    lists = [sorted(ca.lists[v]) for v in range(g.n)]
    index_of = [{c: i for i, c in enumerate(row)} for row in lists]
    sizes = np.array([len(row) for row in lists], dtype=np.int64)
    start, ptr, tail, head, big, block, rev = _layout(g, sizes)
    offset = dict(zip(zip(tail.tolist(), head.tolist()), block.tolist()))
    match = [-1] * int(sizes[tail].sum())
    for (u, v), pairs in ca.matchings.items():
        fwd, back = offset[(u, v)], offset[(v, u)]
        for cu, cv in pairs:
            iu, iv = index_of[u][cu], index_of[v][cv]
            match[fwd + iu] = iv
            match[back + iv] = iu
    match = np.array(match, dtype=np.int64)
    return CompiledInstance(lists, sizes, start, ptr, tail, head, big, block, block[rev], match)


def compile_lists(g: Graph, L: ListAssignment) -> CompiledInstance:
    """compile_instance(g, make_total(g, identity_correspondence(g, L))), built
    straight from the sorted lists.

    On every edge the common colors pair as identity, then each side's
    remaining colors zip in ascending order.  Colors are replaced by their
    rank among all colors before any array is formed, so no color value
    bounds the input.
    """
    lists = [sorted(L[v]) for v in range(g.n)]
    rank = {c: r for r, c in enumerate(sorted(set().union(*lists)))}
    sizes = np.array([len(row) for row in lists], dtype=np.int64)
    ranks = np.array([rank[c] for row in lists for c in row], dtype=np.int64)
    # (vertex, color rank) of every list entry as one key, ascending end to end
    key = np.repeat(np.arange(g.n), sizes) * len(rank) + ranks
    start, ptr, tail, head, big, block, rev = _layout(g, sizes)
    # every cell looks its tail's color up in its head's list
    edge, entry = _cells(start, tail, block, sizes)
    query = ranks[entry]
    query += (head * len(rank))[edge]
    pos = np.searchsorted(key, query)
    np.minimum(pos, len(key) - 1, out=pos)
    common = key[pos] == query
    pos -= start[head][edge]
    match = np.where(common, pos, -1)
    # the free colors of each block zip in ascending order with those of the
    # reverse block
    free = np.flatnonzero(~common)
    free_edge = edge[free]
    nfree = np.bincount(free_edge, minlength=len(tail))
    free_start = np.cumsum(nfree) - nfree
    free_rank = np.arange(len(free)) - free_start[free_edge]
    other = rev[free_edge]
    paired = free_rank < nfree[other]
    other = other[paired]
    match[free[paired]] = free[free_start[other] + free_rank[paired]] - block[other]
    return CompiledInstance(lists, sizes, start, ptr, tail, head, big, block, block[rev], match)


def keep_table(inst: CompiledInstance, rho: float) -> np.ndarray:
    """The flat keep table: table[start[v] + i] = keep_probability(g, ca, rho,
    v, lists[v][i]), bit for bit: the factors are multiplied in adjacency
    order, as keep_probability does."""
    edge, entry = _cells(inst.start, inst.tail, inst.block, inst.sizes)
    threat = np.flatnonzero(inst.big[edge] & (inst.match >= 0))
    flat = np.full(int(inst.start[-1]), float(rho))
    # ufunc.at applies the factors in cell order, which is adjacency order
    np.multiply.at(flat, entry[threat], (1 - rho / inst.sizes[inst.head])[edge[threat]])
    return flat


def check_equalization_precondition(
    inst: CompiledInstance, params: ProcedureParams
) -> np.ndarray:
    """The flat keep table of `inst` (see keep_table), every entry verified to
    be at least K.

    The theoretical minimum-degree floor ceil(1000 / (1 - eps)^2) is
    astronomically large, so the implementation checks the condition it
    exists to guarantee: every exact keep probability is at least the keep
    constant.  A failure names the first offending vertex by id, and for the
    keep probability its first offending color.
    """
    # |L(v)| < (1 - num / den) d(v) as |L(v)| den < (den - num) d(v), on object
    # arrays of Python ints, so exact for any eps
    num, den = params.eps.numerator, params.eps.denominator
    deg = np.diff(inst.ptr).astype(object)
    short = np.flatnonzero(inst.sizes.astype(object) * den < (den - num) * deg)
    if short.size:
        v = int(short[0])
        raise PreconditionError(f"vertex {v}: |L(v)| = {inst.sizes[v]} < (1 - eps) d(v)")
    table = keep_table(inst, params.rho)
    k = params.keep
    low = np.flatnonzero(table < k)
    if low.size:
        j = int(low[0])
        v = int(np.searchsorted(inst.start, j, side="right")) - 1
        raise PreconditionError(
            f"keep probability {table[j]:.6f} of vertex {v}, "
            f"color {inst.lists[v][j - int(inst.start[v])]} is below K = {k:.6f}"
        )
    return table


# --- the batch sampler -------------------------------------------------------


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


# cells per block of the flip draw; bounds its float and index temporaries
FLIP_BLOCK = 1 << 16


def draw_trials(
    inst: CompiledInstance,
    params: ProcedureParams,
    table: np.ndarray | None,
    trials: int,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(activated, phi_idx, heads) of `trials` trials, each of shape (n, trials).

    heads[v, t] is the equalizing flip at v's chosen color: only that flip
    can uncolor v, so only it is drawn.  table=None draws no flips (the
    naive procedure).  The flips are drawn in blocks of whole rows, at most
    FLIP_BLOCK cells each unless one row is longer; row-major blocks take
    the same doubles from the stream as one (n, trials) draw.
    """
    n = len(inst.lists)
    act = rng.random((n, trials)) < params.rho
    phi_idx = np.empty((n, trials), dtype=np.int64)
    for v, size in enumerate(inst.sizes.tolist()):
        phi_idx[v] = rng.integers(size, size=trials)
    if table is None:
        return act, phi_idx, np.zeros((n, trials), dtype=bool)
    k = params.keep
    # with rho = 0 every keep probability is 0 and the flips are irrelevant
    pflip = np.where(table > 0, 1 - k / np.where(table > 0, table, 1.0), 0.0)
    first = inst.start[:-1, None]
    heads = np.empty((n, trials), dtype=bool)
    rows = max(1, FLIP_BLOCK // max(trials, 1))
    for r in range(0, n, rows):
        b = slice(r, r + rows)
        flip = np.take(pflip, first[b] + phi_idx[b])
        np.less(rng.random(flip.shape), flip, out=heads[b])
    return act, phi_idx, heads


def _pairs_trips(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sums over colors of C(k, 2) and C(k, 3) per trial, for k = counts[color, trial].

    Every k(k-1) is even and every k(k-1)(k-2) a multiple of 6, so the sums
    divide exactly.
    """
    falling = counts * (counts - 1)
    pairs = falling.sum(axis=0) // 2
    falling *= counts - 2
    return pairs, falling.sum(axis=0) // 6


# trials per pass of uncolored_trials and savings_rows; bounds their
# (neighbor, trial) temporaries
TRIAL_CHUNK = 1024


def uncolored_trials(
    inst: CompiledInstance, act: np.ndarray, phi_idx: np.ndarray, heads: np.ndarray
) -> np.ndarray:
    """The uncolored mask of the drawn trials, of shape (n, trials).

    v is uncolored when it is not activated, when its flip came up, or when
    an activated neighbor with a list at least as large got a color matched
    to v's.  Work is vectorized per vertex over (neighbor, trial) arrays,
    TRIAL_CHUNK trials at a time: at that width settle_trials' edge-wide
    layout is 2 to 3 times slower, its temporaries too large to stay in
    cache.
    """
    n, trials = phi_idx.shape
    match, head, back, big = inst.match, inst.head, inst.back, inst.big
    ptr = inst.ptr.tolist()
    uncolored = np.empty((n, trials), dtype=bool)
    for start in range(0, trials, TRIAL_CHUNK):
        t = slice(start, start + TRIAL_CHUNK)
        act_t, phi_t = act[:, t], phi_idx[:, t]
        for v in range(n):
            e = slice(ptr[v], ptr[v + 1])
            threat = head[e][big[e]]
            # per (threat u, trial): the index in L(v) matched to phi(u), or -1,
            # which never equals phi(v)
            mu = match[back[e][big[e]][:, None] + phi_t[threat]]
            threatened = (act_t[threat] & (mu == phi_t[v])).any(axis=0)
            uncolored[v, t] = ~act_t[v] | threatened | heads[v, t]
    return uncolored


def savings_rows(
    inst: CompiledInstance,
    params: ProcedureParams,
    act: np.ndarray,
    phi_idx: np.ndarray,
    uncolored: np.ndarray,
) -> Iterator[np.ndarray]:
    """Each vertex's savings components over all the drawn trials, vertex by
    vertex: an int64 array of shape (4, trials) whose rows are aberrance,
    pairs, trips and unact.

    unact(v) counts the non-activated neighbors with strictly smaller lists:
    greedy completion colors them after v, so each one leaves v a color.
    Each row is computed TRIAL_CHUNK trials at a time, over (neighbor,
    trial) arrays.
    """
    n, trials = phi_idx.shape
    sizes, match, head, back, big = inst.sizes, inst.match, inst.head, inst.back, inst.big
    ptr = inst.ptr.tolist()
    # u is egalitarian iff |L(u)| >= (1 - sigma) |L(v)|, that is |L(u)| >= least,
    # the integer ceiling of (den - num) |L(v)| / den, taken in Python ints
    num, den = params.sigma.numerator, params.sigma.denominator
    least = (-((num - den) * sizes.astype(object) // den)).astype(np.int64)
    egal = (sizes[head] >= least[inst.tail])[:, None]
    tr = np.arange(TRIAL_CHUNK)
    for v in range(n):
        e = slice(ptr[v], ptr[v + 1])
        nb, small, bk, egal_e = head[e], head[e][~big[e]], back[e][:, None], egal[e]
        out = np.empty((4, trials), dtype=np.int64)
        aberr, pairs, trips, unact = out
        for start in range(0, trials, TRIAL_CHUNK):
            t = slice(start, start + TRIAL_CHUNK)
            # per (neighbor u, trial): the index in L(v) matched to phi(u), or -1
            cell = match[bk + phi_idx[nb, t]]
            width = cell.shape[1]
            on = ~uncolored[nb, t]
            on &= egal_e
            hit = on & (cell >= 0)
            aberr[t] = (on & (cell < 0)).sum(axis=0)
            unact[t] = (~act[small, t]).sum(axis=0)
            cell *= width
            cell += tr[:width]  # now the flat (color index, trial) cell, meaningful where hit
            counts = np.bincount(cell[hit], minlength=int(sizes[v]) * width)
            pairs[t], trips[t] = _pairs_trips(counts.reshape(-1, width))
        yield out


def _count_by_vertex(owner: np.ndarray, cells: np.ndarray, n: int, trials: int) -> np.ndarray:
    """Per (vertex, trial): how many of the flat (row, trial) `cells` have their
    row owned by that vertex, `owner` giving each row's vertex."""
    # cell = row * trials + t, and its (vertex, trial) key owner[row] * trials + t
    # is the cell shifted by (owner[row] - row) * trials
    shift = (owner - np.arange(len(owner))) * trials
    key = shift[cells // trials]
    key += cells
    return np.bincount(key, minlength=n * trials).reshape(n, trials)


def settle_trials(
    inst: CompiledInstance, act: np.ndarray, phi_idx: np.ndarray, heads: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(uncolored, unact, save_drop) of the drawn trials, each of shape (n, trials):
    what pipeline_color's savings check reads, equal to uncolored_trials'
    mask and savings_rows' unact.

    save_drop(v) = Save_L(v) - Save_L'(v) = (d - d_res) - (|L(v)| - |L'(v)|):
    v's colored neighbors minus the distinct colors of v they remove; it is
    meaningful only where v is uncolored.  Work is vectorized over all
    directed edges at once, and each (edge, trial) mask is reduced through
    the flat indices of the cells it hits.
    """
    n, trials = phi_idx.shape
    tail, head = inst.tail, inst.head
    # per (edge, trial): the index in L(tail) matched to phi(head), or -1
    mu = phi_idx[head]
    mu += inst.back[:, None]
    mu = inst.match[mu]
    # an activated head with a list at least as large, its color matched to the tail's
    threat = mu == phi_idx[tail]
    threat &= act[head]
    threat &= inst.big[:, None]
    uncolored = _count_by_vertex(tail, np.flatnonzero(threat), n, trials) > 0
    uncolored |= ~act
    uncolored |= heads
    # the colors of the tails that colored heads remove, as one flat (tail
    # color, trial) mask; mu becomes the flat cell of each, in place
    off = uncolored[head]
    hit = mu >= 0
    hit &= ~off
    mu += inst.start[tail][:, None]
    mu *= trials
    mu += np.arange(trials)
    removed = np.zeros(int(inst.start[-1]) * trials, dtype=bool)
    removed[mu[hit]] = True
    del mu  # the largest array here; the counts below need their own keys
    owner = np.repeat(np.arange(n), inst.sizes)
    distinct = _count_by_vertex(owner, np.flatnonzero(removed), n, trials)
    colored_heads = np.diff(inst.ptr)[:, None] - _count_by_vertex(
        tail, np.flatnonzero(off), n, trials
    )
    # the non-activated heads with strictly smaller lists
    small = np.flatnonzero(~inst.big)
    unact = _count_by_vertex(tail[small], np.flatnonzero(~act[head[small]]), n, trials)
    return uncolored, unact, colored_heads - distinct


def batch_draws(
    inst: CompiledInstance,
    params: ProcedureParams,
    trials: int,
    seed: int,
    equalize: bool = True,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The draws of `trials` equalized trials (naive if equalize=False) on a
    Philox stream fixed by `seed`, after the precondition check."""
    rng = np.random.default_rng(np.random.Philox(seed))
    table = check_equalization_precondition(inst, params) if equalize else None
    return draw_trials(inst, params, table, trials, rng)


# --- the end-to-end pipeline ------------------------------------------------


def greedy_complete(
    inst: CompiledInstance, phi_idx: np.ndarray, uncolored: np.ndarray
) -> tuple[np.ndarray | None, int | None]:
    """Color the uncolored vertices of one trial greedily, in index form.

    phi_idx and uncolored are the trial's columns.  Uncolored vertices are
    taken larger lists first, ties by id; each takes the smallest color index
    not matched to the color of an already colored neighbor, whether that
    neighbor kept its trial color or was completed before.  Returns (color
    index per vertex, blocked vertex).
    """
    sizes, ptr = inst.sizes.tolist(), inst.ptr.tolist()
    color = np.where(uncolored, -1, phi_idx)
    for v in sorted(np.flatnonzero(uncolored).tolist(), key=lambda v: (-sizes[v], v)):
        e = slice(ptr[v], ptr[v + 1])
        c = color[inst.head[e]]
        on = c >= 0
        taken = inst.match[inst.back[e][on] + c[on]]
        free = np.ones(sizes[v], dtype=bool)
        free[taken[taken >= 0]] = False
        i = int(free.argmax())
        if not free[i]:
            return None, v
        color[v] = i
    return color, None


@dataclass(frozen=True)
class PipelineReport:
    """Outcome of pipeline_color: a coloring, or per-round violation counts."""

    coloring: Coloring | None
    rounds_used: int
    violations_per_round: tuple[int, ...]

    @property
    def succeeded(self) -> bool:
        return self.coloring is not None


def pipeline_color(
    g: Graph,
    L: ListAssignment,
    params: ProcedureParams,
    max_rounds: int,
    rng: np.random.Generator,
) -> PipelineReport:
    """Sample equalized trials until every vertex's residual deficit is covered,
    then color the uncolored part greedily (larger original lists first).

    Each round is a full independent trial.  Trials are drawn from `rng` in
    batches of 1, 2, 4, ... (capped by the rounds left); the first trial in
    which every uncolored vertex v has save_full(v) - save_drop(v) <= unact(v)
    is completed, and the rest of its batch is discarded.  The lists are
    compiled by `compile_lists`, and the completed coloring is checked to be
    a proper coloring from `L` on `g` and `L` themselves, not on the compiled
    arrays.
    """
    if max_rounds < 1:
        raise ValueError(f"max_rounds must be at least 1, got {max_rounds}")
    inst = compile_lists(g, L)
    table = check_equalization_precondition(inst, params)
    save_full = np.diff(inst.ptr) + 1 - inst.sizes
    violations: list[int] = []
    batch = 1
    while len(violations) < max_rounds:
        trials = min(batch, max_rounds - len(violations))
        act, phi_idx, heads = draw_trials(inst, params, table, trials, rng)
        uncolored, unact, save_drop = settle_trials(inst, act, phi_idx, heads)
        bad = (uncolored & (save_full[:, None] - save_drop > unact)).sum(axis=0)
        good = np.flatnonzero(bad == 0)
        if not good.size:
            violations.extend(bad.tolist())
            batch *= 2
            continue
        t = int(good[0])
        violations.extend(bad[: t + 1].tolist())
        color, blocked = greedy_complete(inst, phi_idx[:, t], uncolored[:, t])
        if color is None:
            # the savings check guarantees greedy succeeds: unact(v) counts
            # the neighbors that are colored after v
            raise RuntimeError(
                f"greedy completion blocked at vertex {blocked} after the savings "
                "check passed; pipeline fault"
            )
        coloring = {v: inst.lists[v][i] for v, i in enumerate(color.tolist())}
        if not (len(coloring) == g.n and is_proper(g, L, coloring)):
            raise RuntimeError("completed coloring is improper; pipeline fault")
        return PipelineReport(coloring, len(violations), tuple(violations))
    return PipelineReport(None, max_rounds, tuple(violations))
