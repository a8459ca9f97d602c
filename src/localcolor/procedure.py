"""The local naive random coloring procedure and its equalized variant.

One trial draws, independently for each vertex, an activation coin, a
uniform color from its list, and (in the equalized variant) one extra
uncoloring coin per color.  A vertex stays colored when it is activated and
no activated neighbor with an at-least-as-large list received a color
matched to its own.  The equalizing coins are biased so that the retention
probability of every (vertex, color) pair is exactly the keep constant
K = 0.999 * rho * exp(-rho / (1 - eps)).  On a compiled instance those
coins have one bias per vertex, so the sampler draws one flip per vertex.

Savings random variables (aberrance, pairs, trips, unact) measure how much
a vertex's residual color deficit shrank; the pipeline resamples until every
vertex's deficit is covered, then finishes greedily on the uncolored part,
on the same compiled instance.

Trials are sampled in batches with numpy on a compiled instance: colors are
indices into each vertex's sorted list, and each directed edge maps a color
index at its tail to the matched index at its head.  The maps are not
stored cell by cell: a match is the identity's, looked up by color rank in
a position table (`lookup`), except on zip edges, whose maps are laid out,
and `match_blocks` lays maps out flat where a caller reads them by cell.
`draw_trials`, the one drawer, draws a batch (color indices row by row from
ROW_DRAWS trials), and each caller evaluates it with the evaluator that
computes what it reads.  For `estimate`, `draw_left` builds one
`EstimatePlan` per run, which lays out every map once, and yields one
draw_trials call per TRIAL_CHUNK trials, the uncolored set of
`uncolored_trials` written into its int32 color indices; `savings_rows`
reads those (`phi_left`) and yields one vertex at a time its savings over
the chunk, through the plan's coded table: each edge's map, plus an entry
for an uncolored tail, as rows of the head's (color, trial) count grid.
`estimate` sums each row into a chunk buffer and folds that into exact
totals once per chunk, holding one chunk at a time.  `settle_trials` (one
lookup per (edge, trial) cell, its counts segment reductions over each
tail's rows) gives `pipeline_color`'s savings check the uncolored set, unact
and save_drop, and `greedy_complete` the colors each vertex loses to its
kept neighbors; `pipeline_color` hands it one trial slice of at most SLICE
(edge, trial) cells at a time, and it reads the instance's cached arrays.
`compile_lists` builds the arrays of a list assignment (the identity
correspondence made total) straight from its flat sorted rows, counting the
common colors of edges whose lists do not nest and laying out only the maps
of zip edges (free colors at both ends), so on nested lists `color` holds no
array with a cell per (edge, tail color).  `keep_table` holds one
keep probability per vertex, its factors multiplied once over its big edges.
`pipeline_color` takes lists, completes its trial with `greedy_complete`
(from those removed colors, a loop over the edges between uncolored
vertices) and checks its finished coloring against the lists: every vertex
colored from its own list, no edge with equal colors at its ends.
"""

from __future__ import annotations

import dataclasses
import math
import numbers
from collections.abc import Callable, Iterator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .graph import Graph
from .lists import Coloring, ListAssignment, check_list_count, is_proper


class PreconditionError(ValueError):
    """A procedure hypothesis failed; the message names the offender."""


def default_rho(alpha: Fraction) -> float:
    """1 - alpha / (e (1 + alpha)), the activation probability when rho is not given."""
    return 1 - float(alpha / (1 + alpha)) / math.e


@dataclass(frozen=True)
class ProcedureParams:
    """Knobs of the equalized procedure.  eps, sigma, alpha and beta are exact
    rationals (int or Fraction), which the exact checks read; rho is a float.
    A rho left out is default_rho(alpha), set after alpha is checked."""

    eps: Fraction = Fraction(1, 330)
    sigma: Fraction = Fraction(0)
    rho: float | None = None
    alpha: Fraction = Fraction(1, 50)
    beta: Fraction = Fraction(1, 50)

    def __post_init__(self):
        for name in ("eps", "sigma", "alpha", "beta"):
            x = getattr(self, name)
            if not isinstance(x, numbers.Rational):
                raise TypeError(f"{name} must be an int or a Fraction, got {x!r}")
        if not (0 <= self.eps < 1):
            raise ValueError("eps must be in [0, 1)")
        if not (0 <= self.sigma < 1):
            raise ValueError("sigma must be in [0, 1)")
        if self.alpha <= 0:
            raise ValueError(f"alpha must be positive, got {self.alpha}")
        if self.beta <= 0:
            raise ValueError(f"beta must be positive, got {self.beta}")
        if self.rho is None:
            object.__setattr__(self, "rho", default_rho(self.alpha))
        if not (0 <= self.rho <= 1):
            raise ValueError("rho must be in [0, 1]")

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


# --- the compiled instance ---------------------------------------------------


@dataclass(frozen=True)
class CompiledInstance:
    """A list assignment as flat index arrays, compiled by `compile_lists`.
    The arrays can also hold a general correspondence assignment made total;
    the tests build those.  Either way every cell of a big edge is matched
    (its tail has no more colors than its head, and a total correspondence
    saturates the smaller list), which the per-vertex keep table rests on.

    The directed edges are the graph's CSR entries, numbered by (tail, head)
    ascending: those of vertex v are ptr[v] .. ptr[v + 1] - 1, and edge e
    runs from tail[e] to head[e], so graphs that compare equal compile to
    equal arrays; big[e] holds when |L(head)| >= |L(tail)|, so that the head
    can uncolor the tail.  Any flat (vertex, color) table, such as values
    (L's colors) or settle_trials' removed mask, holds the entry of v's i-th
    color, ascending, at start[v] + i.  Edge e's map has a cell per tail
    color, the i-th its match: the index in head[e]'s list of the color
    matched to v's i-th, or -1; rev[e] is the reverse edge.  Where zoff[e]
    >= 0 the map is laid out whole, the i-th match at zmap[zoff[e] + i]; the
    other maps are the identity's and not stored: `lookup` finds the tail
    color's rank (ranks[start[v] + i]) in a dense (vertex, color rank) table
    `where`, kept when it has no more entries than there are cells, or in
    the sorted (vertex, color rank) keys.  settle_arrays is made when first read.
    """

    values: np.ndarray  # each entry's color: int64, or Python ints as objects
    sizes: np.ndarray
    start: np.ndarray  # n + 1 offsets into a flat (vertex, color) table
    ptr: np.ndarray  # n + 1 offsets of each vertex's directed edges
    tail: np.ndarray
    head: np.ndarray
    big: np.ndarray  # bool
    rev: np.ndarray
    ranks: np.ndarray
    colors: int  # how many distinct colors the lists hold
    where: np.ndarray | None  # where[v * colors + r]: the index of rank r in v's list, or -1
    zoff: np.ndarray  # each edge's offset in zmap, or -1 where its map is the identity's
    zmap: np.ndarray  # the laid-out maps, in edge order

    @cached_property
    def settle_arrays(self) -> tuple[np.ndarray, ...]:
        """What settle_trials reads of the instance alone, made once: the
        vertices with an edge (reduceat gives an empty segment its first
        element, not 0), their edge offsets and degrees, the same of small
        edges, their heads, then columns of each edge's tail key base, tail
        offset and big, and each vertex's offset."""
        ptr, tail, start = self.ptr, self.tail, self.start
        small = np.flatnonzero(~self.big)
        sp = np.searchsorted(small, ptr)  # the small edges' offsets by tail
        has_edge, has_small = (np.flatnonzero(p[1:] > p[:-1]) for p in (ptr, sp))
        return (has_edge, ptr[has_edge], np.diff(ptr)[has_edge, None], has_small, sp[has_small],
                self.head[small], (tail * self.colors)[:, None], start[tail][:, None],
                self.big[:, None], start[:-1])


def _reverse_edges(n: int, tail: np.ndarray, head: np.ndarray) -> np.ndarray:
    """Each directed edge's reverse, the edges numbered by (tail, head): the
    order by (head, tail), which is one sort of the keys head * edges + edge,
    since one head's edges are in tail order already.  Where those keys
    would leave int64, an argsort of head * n + tail gives it."""
    edges = len(tail)
    if not 0 < n * edges < 2**63:
        return np.argsort(head * n + tail)
    key = head * edges
    key += np.arange(edges)
    key.sort()
    return np.remainder(key, edges, out=key)


def compile_lists(g: Graph, L: ListAssignment) -> CompiledInstance:
    """The compiled instance of `L`: the identity correspondence made total.

    On every edge the common colors pair as identity, then each side's
    remaining colors zip in ascending order; only the maps of edges that zip
    are kept.  Colors are replaced by their rank among all colors, from one
    sort of L's flat colors, so no color value bounds the input.  Two lists
    of the smallest colors (deg+1 and uniform lists) nest, so their edge's
    common colors are the smaller list; the other edges' are counted from
    packed membership rows of the dense table, or by looking up each color
    of its smaller list.  Only an edge with fewer common colors than either
    list has free colors at both ends, and only its map is laid out, to zip
    it; with none the zip pass is skipped.  A big edge's tail has no more
    colors than its head, so each of its cells ends matched: `keep_table`
    relies on it.
    """
    check_list_count(g, L)
    # each color's rank among the distinct colors, by one sort and one binary
    # search, 0.6 of the time np.unique's inverse takes on color_gnp200's lists
    s = np.sort(L.colors)
    distinct = np.concatenate((s[:1], s[1:][s[1:] != s[:-1]]))
    ranks = np.searchsorted(distinct, L.colors)
    colors, sizes, start = len(distinct), np.diff(L.start), L.start
    where, none, tail = None, np.zeros(0, dtype=np.int64), np.repeat(np.arange(g.n), np.diff(g.ptr))
    head, width = g.nbr, sizes[tail]
    if g.n * colors <= width.sum():
        # a dense (vertex, color rank) table of list positions, no larger than the cells
        where = np.full(g.n * colors, -1)
        key = np.repeat(np.arange(g.n) * colors, sizes)
        key += ranks
        where[key] = np.arange(len(ranks)) - np.repeat(start[:-1], sizes)
    rev = _reverse_edges(g.n, tail, head)
    big = sizes[head] >= width
    inst = CompiledInstance(L.colors, sizes, start, g.ptr, tail, head, big, rev, ranks, colors,
                            where, none, none)
    # the colors each edge's tail shares with its head: a list whose last rank
    # is its size - 1 holds the smallest colors, so two such nest; the other
    # edges are counted on the edges up
    nested = ranks[start[1:] - 1] == sizes - 1
    common = np.minimum(width, sizes[head])
    up = np.flatnonzero((tail < head) & ~(nested[tail] & nested[head]))
    if len(up) and where is not None:
        member = np.packbits(where.reshape(g.n, colors) >= 0, axis=1)
        rows = max(1, SLICE // max(member.shape[1], 1))  # up-edges per block of SLICE bytes
        for b in range(0, len(up), rows):
            e = up[b : b + rows]
            shared = member[tail[e]]
            shared &= member[head[e]]
            common[e] = np.bitwise_count(shared, out=shared).sum(axis=1)
    elif len(up):
        # each color of the smaller list, looked up in the other
        small = np.where(big[up], up, rev[up])
        found = match_blocks(inst, small) >= 0
        common[up] = np.bincount(np.repeat(np.arange(len(up)), width[small]), found, len(up))
    common[rev[up]] = common[up]
    # the free colors of an edge with some at both ends zip in ascending order
    # with those of its reverse
    z, zoff = np.flatnonzero((common < width) & (common < sizes[head])), np.full(len(tail), -1)
    if not len(z):  # nested and uniform lists: no map is laid out
        return dataclasses.replace(inst, zoff=zoff)
    zmap = match_blocks(inst, z)
    free = np.flatnonzero(zmap < 0)
    nfree, zbase = width[z] - common[z], np.cumsum(width[z]) - width[z]
    free_start = np.cumsum(nfree) - nfree
    free_rank = np.arange(len(free)) - np.repeat(free_start, nfree)
    other = np.repeat(np.searchsorted(z, rev[z]), nfree)
    paired = free_rank < nfree[other]
    other = other[paired]
    zmap[free[paired]] = free[free_start[other] + free_rank[paired]] - zbase[other]
    zoff[z] = zbase
    return dataclasses.replace(inst, zoff=zoff, zmap=zmap)


def lookup(inst: CompiledInstance, key: np.ndarray, cells: Callable[[], tuple]) -> np.ndarray:
    """The match of each cell of (vertex, color rank) key v * colors + r,
    head v and tail color of rank r: that color's index in v's list or -1,
    from the dense table or the sorted keys, but from zmap on an edge with a
    laid-out map: `cells()`, called only if there is one, gives each cell's
    edge's zoff and its tail color index, broadcast to key's shape."""
    if inst.where is not None:
        match = inst.where.take(key)
    else:
        keys = np.repeat(np.arange(len(inst.sizes)), inst.sizes) * inst.colors + inst.ranks
        pos = np.searchsorted(keys, key)
        np.minimum(pos, len(keys) - 1, out=pos)
        match = np.where(keys.take(pos) == key, pos - inst.start[key // inst.colors], -1)
    if len(inst.zmap):
        off, i = np.broadcast_arrays(*cells())
        laid = off >= 0
        match[laid] = inst.zmap.take(off[laid] + i[laid])
    return match


def match_blocks(inst: CompiledInstance, edges: np.ndarray) -> np.ndarray:
    """The maps of `edges` through `lookup`, one after another in the order
    given, a match per tail color: of all edges in order, the per-cell map."""
    tail = inst.tail[edges]
    width = inst.sizes[tail]
    # each cell's flat (vertex, color) entry of its tail color, then its key
    entry = np.repeat(inst.start[tail] - (np.cumsum(width) - width), width)
    entry += np.arange(len(entry))
    key = inst.ranks.take(entry)
    key += np.repeat(inst.head[edges] * inst.colors, width)
    return lookup(inst, key, lambda: (np.repeat(inst.zoff[edges], width),
                                      entry - np.repeat(inst.start[tail], width)))


def keep_table(inst: CompiledInstance, rho: float) -> np.ndarray:
    """The keep table: table[v] is the exact probability that v survives
    given any color of its list, rho times 1 - rho / |L(u)| for each
    threatening neighbor u (big edge), multiplied in ascending neighbor
    order.  Every cell of a big edge is matched (see CompiledInstance), so
    each threat applies to every color of v alike."""
    big = np.flatnonzero(inst.big)
    prod = np.full(len(inst.sizes), float(rho))
    # ufunc.at applies the factors in edge order, which is ascending neighbor order
    np.multiply.at(prod, inst.tail[big], 1 - rho / inst.sizes[inst.head[big]])
    return prod


def check_equalization_precondition(
    inst: CompiledInstance, params: ProcedureParams
) -> np.ndarray:
    """The keep table of `inst` (see keep_table), one probability per vertex,
    every entry verified to be at least K.

    The theoretical minimum-degree floor ceil(1000 / (1 - eps)^2) is
    astronomically large, so the implementation checks the condition it
    exists to guarantee: every exact keep probability is at least the keep
    constant.  A failure names the first offending vertex by id.
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
        v = int(low[0])
        raise PreconditionError(
            f"keep probability {table[v]:.6f} of vertex {v} is below K = {k:.6f}"
        )
    return table


# --- the batch sampler -------------------------------------------------------


# rows times trials of one block of draw_trials' coins: its float64
# temporaries then stay within 64 KiB, below glibc's default 128 KiB mmap
# threshold, so they reuse heap memory rather than fault in fresh pages
BLOCK = 8192

# (edge, trial) cells of one trial slice of pipeline_color, and packed
# bytes of one block of compile_lists' common-color count
SLICE = 1 << 15

ROW_DRAWS = 576  # trials from which a call per row draws colors faster than one call


def draw_trials(
    inst: CompiledInstance,
    params: ProcedureParams,
    table: np.ndarray | None,
    trials: int,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(activated, phi_idx, heads) of `trials` trials, each (n, trials): every
    activation, then every color index, then every flip.  heads[v, t] is v's
    flip, the equalizing coin of whichever color v drew, true with
    probability 1 - K / table[v] (0 where table[v] is 0); table=None draws
    none (the naive procedure).  The coins are
    drawn max(1, BLOCK // trials) vertex rows at a time, the numbers of one call.
    The int32 color indices are the numbers of an int64 rng.integers call per
    vertex (so |L(v)| < 2^31, as for any list held in memory): one call with a
    column of bounds below ROW_DRAWS trials, else one per list of 2+ colors."""
    n, rows = len(inst.sizes), max(1, BLOCK // max(trials, 1))

    def coins(prob):  # per (vertex v, trial), a uniform draw below prob[v]
        out = np.empty((n, trials), dtype=bool)
        for r in range(0, n, rows):
            block = out[r : r + rows]
            np.less(rng.random(block.shape), prob[r : r + rows, None], out=block)
        return out

    act = coins(np.full(n, params.rho))
    if trials < ROW_DRAWS:
        phi_idx = rng.integers(0, inst.sizes[:, None], size=(n, trials), dtype=np.int32)
    else:
        phi_idx = np.zeros((n, trials), dtype=np.int32)
        for v in np.flatnonzero(inst.sizes > 1).tolist():  # a one-color list draws no number
            phi_idx[v] = rng.integers(0, inst.sizes[v], size=trials, dtype=np.int32)
    if table is None:
        return act, phi_idx, np.zeros((n, trials), dtype=bool)
    # with rho = 0 every keep probability is 0 and the flips are irrelevant
    pflip = np.where(table > 0, 1 - params.keep / np.where(table > 0, table, 1.0), 0.0)
    return act, phi_idx, coins(pflip)


def _pairs_trips(grid: np.ndarray, cell: np.ndarray, out: np.ndarray) -> None:
    """Sums over colors of C(k, 2) and C(k, 3) per trial, into out's two rows,
    k a color's count in the flat `grid`, read at the (neighbor, trial) `cell`s
    only: each of its k cells adds j = k - 1 and j(j - 1), 2 and 6 times the
    share of one cell.  Rows of the grid that are no color must read 1."""
    j = grid.take(cell)
    j -= 1
    twice = j.sum(axis=0)
    np.right_shift(twice, 1, out=out[0])
    np.floor_divide(np.square(j, out=j).sum(axis=0) - twice, 6, out=out[1])


# trials per batch of pipeline_color and per chunk of draw_left, bounding
# their (vertex, trial) and (edge, trial) arrays
TRIAL_CHUNK = 1024


@dataclass(frozen=True)
class EstimatePlan:
    """What `estimate`'s evaluators read, built once per run by `estimate_plan`;
    the draws read none of it.  Its groupings hold heads by tail, v's from
    tail offset [v] to [v + 1]."""

    stride: int  # the widest chunk savings_rows takes, its count grids' row length
    threats: tuple[np.ndarray, np.ndarray, list[int]]  # big-edge heads, coded back blocks, tail offsets
    egal: tuple[np.ndarray, np.ndarray, list[int]]  # egal heads, coded back blocks, tail offsets
    small: tuple[np.ndarray, list[int]]  # heads with strictly smaller lists, tail offsets
    code: np.ndarray  # every edge's map coded as savings_rows' grid rows, scaled by stride


def estimate_plan(inst: CompiledInstance, params: ProcedureParams, stride: int) -> EstimatePlan:
    """The plan of chunks of at most `stride` trials on `inst`; its egalitarian
    heads are savings_rows' sigma-egalitarian ones, lordlier included."""
    sizes, head, big, end = inst.sizes, inst.head, inst.big, np.cumsum(inst.sizes[inst.tail])
    # u is egalitarian iff |L(u)| >= (1 - sigma) |L(v)|, that is |L(u)| >= least,
    # the integer ceiling of (den - num) |L(v)| / den, taken in Python ints
    num, den = params.sigma.numerator, params.sigma.denominator
    least = (-((num - den) * sizes.astype(object) // den)).astype(np.int64)
    egal = sizes[head] >= least[inst.tail]
    # every edge's map, each block gaining a sentinel at its end, so edge e's
    # coded block starts e entries later, the reverse edge's at its first cell
    # plus its edge number; a match is -1 (row 1) or an index i (row 2 + i)
    code = (match_blocks(inst, np.arange(len(head))) + 2) * stride
    code = np.insert(code, end, 0)
    back = end[inst.rev] - sizes[head] + inst.rev
    tp, ep, sp = (np.concatenate(([0], np.cumsum(m)))[inst.ptr].tolist() for m in (big, egal, ~big))
    return EstimatePlan(stride, (head[big], back[big][:, None], tp),
                        (head[egal], back[egal][:, None], ep), (head[~big], sp), code)


def uncolored_trials(
    plan: EstimatePlan, act: np.ndarray, phi_idx: np.ndarray, heads: np.ndarray
) -> np.ndarray:
    """The uncolored mask of the drawn trials, of shape (n, trials).

    v is uncolored when it is not activated, when its flip came up, or when
    an activated neighbor with a list at least as large got a color matched
    to v's.  Work is vectorized per vertex over (neighbor, trial) arrays.
    settle_trials also lays out and counts the removed colors: on 1,024 trials
    in SLICE slices it took 5 (C5[K12]) to 11 (G(100, 1/10)) times as long.
    """
    threat, bk, tp = plan.threats
    uncolored = heads >= act  # heads | ~act, with no (n, trials) temporary
    for v in range(len(phi_idx)):
        u = threat[tp[v] : tp[v + 1]]
        # per (threat u, trial): the coded row in v's grid of phi(u), which is
        # that of phi(v) when matched to it; in int64, as an int32 product wraps
        mu = plan.code.take(bk[tp[v] : tp[v + 1]] + phi_idx.take(u, axis=0))
        mine = (phi_idx[v] + np.int64(2)) * plan.stride
        uncolored[v] |= (act.take(u, axis=0) & (mu == mine)).any(axis=0)
    return uncolored


def draw_left(
    inst: CompiledInstance, params: ProcedureParams, table: np.ndarray, trials: int,
    rng: np.random.Generator,
) -> Iterator[tuple[EstimatePlan, np.ndarray, np.ndarray]]:
    """(plan, activated, phi_left) of `trials` trials, what savings_rows reads,
    yielded TRIAL_CHUNK trials at a time (the last chunk may be narrower) with
    the run's one plan.  Each chunk is one draw_trials call, its uncolored
    mask written into its color indices in place as |L(v)|, their maximum with
    the mask times |L(v)| (an index is below |L(v)|).  A chunk is dropped here
    before the next is drawn; a caller that does too holds one."""
    plan = estimate_plan(inst, params, min(TRIAL_CHUNK, trials))
    sizes = inst.sizes.astype(np.int32)[:, None]  # the indices' dtype: mixed is much slower
    for done in range(0, trials, TRIAL_CHUNK):
        act, phi_idx, heads = draw_trials(inst, params, table, min(TRIAL_CHUNK, trials - done), rng)
        uncolored = uncolored_trials(plan, act, phi_idx, heads)
        for r in range(0, len(sizes), BLOCK // TRIAL_CHUNK):  # a BLOCK-cell product reuses heap
            s = slice(r, r + BLOCK // TRIAL_CHUNK)
            np.maximum(phi_idx[s], uncolored[s] * sizes[s], out=phi_idx[s])
        del heads, uncolored
        yield plan, act, phi_idx
        del act, phi_idx  # not held while the next chunk is drawn


def savings_rows(plan: EstimatePlan, act: np.ndarray, phi_left: np.ndarray) -> Iterator[np.ndarray]:
    """Each vertex's savings components over the drawn trials, vertex by
    vertex: an int64 array of shape (4, trials) whose rows are aberrance,
    pairs, trips and unact.

    phi_left is the color index of each (vertex, trial) where the vertex
    stayed colored, and |L(vertex)| where it is uncolored (the draws' phi_idx
    with the mask of uncolored_trials written over it), int32 or int64; it
    is only read.  Aberrance counts the colored egalitarian neighbors whose
    color is matched to none of v's; pairs and trips sum C(k, 2) and C(k, 3)
    over v's colors, k the colored egalitarian neighbors whose color is
    matched to that one.  Egalitarian here means |L(u)| >= (1 - sigma)|L(v)|,
    lordlier neighbors included, not neighbor_classes classes 1 and 2, which
    the pairs - trips bound reads.  unact(v) counts the non-activated neighbors
    with strictly smaller lists: greedy completion colors them after v, so
    each one leaves v a color.

    The plan's coded table gives every directed edge (u, v) a block of
    |L(u)| + 1 entries, one per color of u and one for "u uncolored": the
    row of v's (row, trial) count grid that u's color lands in, times the
    stride.  Row 0 is uncolored, row 1 unmatched, row 2 + i matched to v's
    i-th color.  So each vertex is one gather from phi_left, one from the
    table and one bincount over the egalitarian neighbors, whose cells alone
    are read back for pairs and trips, not all |L(v)| rows.
    """
    n, trials = phi_left.shape
    if trials > plan.stride:
        raise ValueError(f"{trials} trials are more than the plan's stride {plan.stride}")
    (nb, bk, ep), (small, sp), code, stride = plan.egal, plan.small, plan.code, plan.stride
    tr, idle = np.arange(trials), ~act
    for v in range(n):
        # per (egalitarian neighbor u, trial): u's coded entry, in int64 (as bk)
        # whatever phi_left's dtype, then its flat (row, trial) cell in the grid
        e = slice(ep[v], ep[v + 1])
        cell = code.take(np.add(phi_left.take(nb[e], axis=0), bk[e]))
        cell += tr
        grid = np.bincount(cell.ravel(), minlength=2 * stride)
        x = np.empty((4, trials), dtype=np.int64)
        x[0] = grid[stride : stride + trials]
        grid[: 2 * stride] = 1  # uncolored and unmatched neighbors share no color
        _pairs_trips(grid, cell, x[1:3])
        idle.take(small[sp[v] : sp[v + 1]], axis=0).sum(axis=0, out=x[3])
        yield x


def settle_trials(
    inst: CompiledInstance, act: np.ndarray, phi_idx: np.ndarray, heads: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(uncolored, unact, save_drop, removed) of the drawn trials, what
    pipeline_color reads; the first three are (n, trials), equal to
    uncolored_trials' mask and savings_rows' unact.

    removed[start[v] + i, t] marks v's i-th color as matched to the trial color
    of a neighbor that stays colored; where v is uncolored, its unmarked
    colors are its residual list L'(v).  save_drop(v) = Save_L(v) -
    Save_L'(v) = (d - d_res) - (|L(v)| - |L'(v)|): v's colored neighbors
    minus the distinct colors of v they remove, meaningful only where v is
    uncolored.

    One pass over the trials given: one lookup per (directed edge, trial)
    cell, and each count a segment reduction (`reduceat`) over the rows of
    one tail, its edges, small edges or removed colors, its per-instance
    arrays inst.settle_arrays.  The caller bounds the (edge, trial)
    temporaries by the trials it passes.
    """
    n, trials = phi_idx.shape
    tail, head = inst.tail, inst.head
    has_edge, edge_at, degree, has_small, small_at, small_head, key_base, tail_at, big, row_at = (
        inst.settle_arrays)
    uncolored = heads >= act  # heads | ~act
    unact, save_drop = np.zeros((2, n, trials), dtype=np.int64)
    removed = np.zeros((int(inst.start[-1]), trials), dtype=bool)
    phi = phi_idx.astype(np.int64)  # int32 plus back in place would wrap
    # per (edge, trial): the index in L(tail) matched to phi(head), or -1
    key = inst.ranks.take(row_at[:, None] + phi).take(head, axis=0)
    key += key_base
    mu = lookup(inst, key, lambda: (inst.zoff.take(inst.rev)[:, None], phi.take(head, axis=0)))
    del key  # so the (edge, trial) temporaries below reuse its memory
    # an activated head with a list at least as large, its color matched to the tail's
    threat = mu == phi_idx.take(tail, axis=0)  # int32, half the bytes
    threat &= act.take(head, axis=0)
    threat &= big
    uncolored[has_edge] |= np.logical_or.reduceat(threat, edge_at, axis=0)
    # the colors of the tails that heads staying colored remove, as flat
    # (tail color, trial) cells of removed, in place in mu
    off = uncolored.take(head, axis=0)
    hit = (mu >= 0) > off  # matched, and the head not off
    mu += tail_at
    mu *= trials
    mu += np.arange(trials)
    removed.reshape(-1)[np.compress(hit.ravel(), mu)] = True
    # v's colored heads minus the distinct colors of v they remove
    busy = np.add.reduceat(off, edge_at, axis=0)
    save_drop[has_edge] = degree - busy
    save_drop -= np.add.reduceat(removed, row_at, axis=0)
    # the non-activated heads with strictly smaller lists
    idle = ~act.take(small_head, axis=0)
    unact[has_small] = np.add.reduceat(idle, small_at, axis=0)
    return uncolored, unact, save_drop, removed


# --- the end-to-end pipeline ------------------------------------------------


def greedy_complete(
    inst: CompiledInstance, phi_idx: np.ndarray, uncolored: np.ndarray, removed: np.ndarray
) -> tuple[np.ndarray | None, int | None]:
    """Color the uncolored vertices of one trial greedily, in index form.

    phi_idx, uncolored and removed are the trial's columns, removed that of
    settle_trials.  Uncolored vertices are taken larger lists first, ties by
    id; each takes the smallest color index not matched to the color of an
    already colored neighbor, whether that neighbor kept its trial color or
    was completed before.  Returns (color index per vertex, blocked vertex).

    The free bytes start as the colors that kept neighbors did not remove;
    the loop in completion order reads only the edges to uncolored neighbors
    completed before it, and takes the first free byte.  An edge reads the
    dense table at the neighbor color's rank, or with a laid-out map or no
    dense table its reverse map from match_blocks at that color's entry."""
    start, tail, head = inst.start, inst.tail, inst.head
    free = bytearray(~removed)
    order = np.flatnonzero(uncolored)
    order = order[np.argsort(-inst.sizes[order], kind="stable")]
    rank = np.empty(len(uncolored), dtype=np.int64)
    rank[order] = np.arange(len(order))
    # the edges from each uncolored tail to the uncolored heads completed
    # before it, grouped by tail
    e = np.flatnonzero(uncolored[tail] & uncolored[head])
    e = e[rank[head[e]] < rank[tail[e]]]
    ptr = np.searchsorted(tail[e], np.arange(len(uncolored) + 1)).tolist()
    if inst.where is not None and not len(inst.zmap):
        cells, base, pick = inst.where, tail[e] * inst.colors, memoryview(inst.ranks)
    else:
        width = inst.sizes[head[e]]
        cells = match_blocks(inst, inst.rev[e])
        base, pick = np.cumsum(width) - width - start[head[e]], range(int(start[-1]))
    cells = memoryview(cells)  # indexing it yields Python ints, 4x faster than an array
    heads, bases, starts = head[e].tolist(), base.tolist(), start.tolist()
    color, got = np.where(uncolored, -1, phi_idx).tolist(), [0] * len(uncolored)
    for v in order.tolist():
        s = starts[v]
        for k in range(ptr[v], ptr[v + 1]):
            t = cells[bases[k] + got[heads[k]]]
            if t >= 0:
                free[s + t] = 0
        i = free.find(1, s, starts[v + 1])
        if i < 0:
            return None, v
        color[v], got[v] = i - s, pick[i]
    return np.array(color, dtype=np.int64), None


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
    batches of 1, 2, 4, ... up to TRIAL_CHUNK (1024), capped by the rounds
    left, so memory does not grow with max_rounds.  Each batch is settled in
    trial slices of at most SLICE (edge, trial) cells, in trial order; the
    first trial in which every uncolored vertex v has save_full(v) -
    save_drop(v) <= unact(v) is completed, and the slices after its own are
    not settled.  The lists are compiled by `compile_lists`, and the
    completed coloring is checked to be a proper coloring from `L` on `g`
    and `L` themselves, not on the compiled arrays.
    """
    if max_rounds < 1:
        raise ValueError(f"max_rounds must be at least 1, got {max_rounds}")
    inst = compile_lists(g, L)
    table = check_equalization_precondition(inst, params)
    save_full = np.diff(inst.ptr) + 1 - inst.sizes
    violations: list[int] = []
    batch = 1
    while len(violations) < max_rounds:
        trials = min(batch, TRIAL_CHUNK, max_rounds - len(violations))
        batch *= 2
        act, phi_idx, heads = draw_trials(inst, params, table, trials, rng)
        # as few slices as hold SLICE (edge, trial) cells each, of about equal
        # width: 16 trials of C5[K12] in 8 + 8 took 0.84 of 15 + 1's time
        width = max(1, SLICE // max(len(inst.tail), 1))
        width = -(-trials // -(-trials // width))
        for s in range(0, trials, width):
            cut = slice(s, s + width)
            uncolored, unact, save_drop, removed = settle_trials(
                inst, act[:, cut], phi_idx[:, cut], heads[:, cut]
            )
            bad = (uncolored & (save_full[:, None] - save_drop > unact)).sum(axis=0)
            t = int(bad.argmin())  # the slice's first good trial, if it has one
            if bad[t]:
                violations.extend(bad.tolist())
                continue
            violations.extend(bad[: t + 1].tolist())
            color, blocked = greedy_complete(inst, phi_idx[:, s + t], uncolored[:, t], removed[:, t])
            if color is None:
                # the savings check guarantees greedy succeeds: unact(v) counts
                # the neighbors that are colored after v
                raise RuntimeError(
                    f"greedy completion blocked at vertex {blocked} after the savings "
                    "check passed; pipeline fault"
                )
            coloring = dict(enumerate(inst.values[inst.start[:-1] + color].tolist()))
            if not (len(coloring) == g.n and is_proper(g, L, coloring)):
                raise RuntimeError("completed coloring is improper; pipeline fault")
            return PipelineReport(coloring, len(violations), tuple(violations))
    return PipelineReport(None, max_rounds, tuple(violations))
