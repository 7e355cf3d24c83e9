"""ViTreebi: cost recursion, exhaustive backtracking, Frechet means.

A rational mean M is solved at every n in integer state costs: each
non-fixed entry x_i of a state adds D x_i^2 - 2 x_i N_ij less the least
value that term takes, with D the lcm of the non-fixed denominators and
N = D M, in int64 when every path sum fits and in Python ints otherwise.
The minimum is K_min / D plus a constant, exactly, and ties compare with
``==``. A float mean runs in float64 with a DEFAULT_TIE_TOL window.

The forward pass builds neither the state space nor the kernel. It is a
branch and bound on the reached frontier: per tier it holds the sorted
local indices, packed keys and cheapest prefixes of the states whose
cheapest prefix, plus the later tiers' least state costs, is within the
cost of the beam path, the best of a first run that keeps the BEAM
cheapest states per tier; so it keeps every state of every optimal path
and every tie. Under the Kingman mean at n = 25 it reaches 9,987 of the
121,392 states and expands 1,552. It streams the expanded states' edges
from ``kingman.tier_edges``, costs the states they reach from their keys,
takes each tier's least cost from a DP over positions, and keeps per tier
only the edges that end up optimal, sorted by source and target, from
which the backtrack and the path count work.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate

import numpy as np

from ._common import CapacityError, ValidationError
from .fmatrix import corpus_sums
from .kingman import _out_degrees, tier_edges
from .statespace import _tier_offsets, _unrank, check_n

DEFAULT_PATH_CAP = 10 ** 6
# A state has fewer than n^2 < 2^12 in-edges (n <= 58), and every count
# summed into it is at most the cap, so path counts stay far inside int64.
MAX_PATH_CAP = 2 ** 50
DEFAULT_TIE_TOL = 1e-9
# The pass holds the states it keeps, about STATE_BYTES each, and one
# tier's expanded edges at a time, about EDGE_BYTES each; it refuses a tier
# that would take it past PASS_MAX_BYTES.
PASS_MAX_BYTES = 512 << 20
EDGE_BYTES = 64
STATE_BYTES = 64
# Edges per block of the pass's tie test
TIE_BLOCK = 1 << 18
# States per tier of the run that bounds the pass. At n = 25 a beam of 1 ends at
# 23.78e9 scaled units, above a greedy path's 20.90e9, and the pass keeps 4,223
# states; 8 keep 2,005; 64 reach the minimum's 1,554 in 11 ms, 512 in 22 ms.
BEAM = 64


@dataclass
class MeanMatrix:
    """Lower-triangular mean of F-matrices; entries rational or float."""

    n: int
    M: np.ndarray

    def __post_init__(self):
        if self.M.shape != (self.n - 1, self.n - 1):
            raise ValidationError(f"mean matrix must be {self.n - 1}x{self.n - 1}")

    @property
    def mode(self):
        return "rational" if self.M.dtype == object else "float"


def mean_matrix_exact(space):
    """Kingman mean matrix, E[F_ij] = j(j+1)/i, as Fractions, for a state
    space or its n."""
    n = space if isinstance(space, int) else space.n
    rows = [[Fraction(j * (j + 1) if j <= i else 0, i) for j in range(1, n)] for i in range(1, n)]
    return MeanMatrix(n=n, M=np.array(rows, dtype=object))


def mean_matrix_sample(matrices):
    """Entrywise average of an iterable of F-matrices of a common n, read
    once, as exact Fractions."""
    n, m, total, _ = corpus_sums(matrices)
    return MeanMatrix(n=n, M=total.astype(object) * Fraction(1, m))


def _extremes(terms):
    """The least and the largest sum of one term per entry over the states
    of a tier, by a DP over positions. ``terms`` lists, bottom up, the
    terms of the tier's non-fixed entries over the values 0..n-t-1. A
    tier's column climbs from x_{n-1} = c in steps of 0 or 1 to the two
    forced top entries, so the top non-fixed entry x_{n-t+1} is n-t-1 or
    n-t-2. Over the values v of the current entry, ``low`` and ``high`` are
    the extreme sums of the terms at and below it, summed as
    ``_KeyCosts.__call__`` sums them; rounding is monotone, so float
    extremes are those of the float costs bit for bit."""
    if not terms:
        return 0, 0
    low = high = terms[0]
    for term in terms[1:]:
        low = [x + min(low[v], low[v - 1] if v else low[v]) for v, x in enumerate(term)]
        high = [x + max(high[v], high[v - 1] if v else high[v]) for v, x in enumerate(term)]
    return min(low[-2:]), max(high[-2:])


class _KeyCosts:
    """The cost of a state of X_n from its packed key alone.

    Entry x_k of a tier-t state is its external count plus its decremental
    bits at indices k..n-2, so the non-fixed entries x_{n-1}, ...,
    x_{n-t+1} come from the key bottom up. Each adds its term from a table
    over the values 0..n-t-1 an entry of tier t can take: (v - m)^2 for a
    float mean m. A rational mean gives integer terms v (D v - 2 N), with D
    the lcm of the non-fixed denominators and N = D m, less their least
    value, so that every partial sum is at least 0; ``const[t]`` turns a
    tier-t sum K back into the cost K / D + const[t]. The terms are summed
    in that order, one array operation per entry, so a state's cost has
    the same bits whichever states it is evaluated with. ``low[t]`` and
    ``high[t]`` are the least and the largest cost of a tier-t state.
    """

    def __init__(self, mean):
        n = self.n = mean.n
        # the non-fixed rows n-1 down to j+2 of column j = n-1-t
        cols = [mean.M[n - t:, n - 2 - t][::-1] for t in range(n - 1)]
        if mean.mode == "float":
            self.scale, self.dtype = None, np.dtype(np.float64)
            terms = [[[(v - m) * (v - m) for v in range(n - t)] for m in col.astype(float).tolist()]
                     for t, col in enumerate(cols)]
        else:
            cols = [[Fraction(v) for v in col] for col in cols]
            self.scale = math.lcm(*(v.denominator for col in cols for v in col))
            terms, self.const = [], []
            for t, col in enumerate(cols):
                raw = [[v * (self.scale * v - 2 * int(m * self.scale)) for v in range(n - t)]
                       for m in col]
                terms.append([[v - min(term) for v in term] for term in raw])
                self.const.append(Fraction(sum(min(term) for term in raw), self.scale)
                                  + sum((m * m for m in col), Fraction(0)))
        self.low, self.high = zip(*(_extremes(tier) for tier in terms))
        if self.scale is not None:
            # Every term is at least 0, so each partial sum the pass forms is
            # at most the sum of the tiers' largest costs. A table also holds
            # the terms of values its entry never takes, which must fit as
            # well. The int64 maximum itself is left free for ``_forward``'s
            # clipped bound.
            limit = np.iinfo(np.int64).max
            fits = (sum(self.high) < limit
                    and all(max(term) < limit for tier in terms for term in tier))
            self.dtype = np.dtype(np.int64 if fits else object)
        self.tables = [[np.array(term, self.dtype) for term in tier] for tier in terms]

    def __call__(self, t, keys):
        n = self.n
        mask, x = keys >> 6, keys & 63
        costs = np.zeros(len(keys), self.dtype)
        for k, table in zip(range(n - 1, n - t, -1), self.tables[t]):
            if k < n - 1:
                x = x + ((mask >> (n - 1 - k)) & 1)
            costs += table.take(x)
        return costs


def state_costs(space, mean):
    """Per-state cost c(x) = sum_k (x_k - M_{k, n-1-t(x)})^2.

    Only non-fixed positions can contribute: every state agrees with the
    forced diagonal and subdiagonal of its column. A rational mean gives
    Fractions, built from the integer costs ViTreebi runs on.
    """
    if mean.n != space.n:
        raise ValidationError(f"mean matrix is for n = {mean.n}, space for n = {space.n}")
    cost = _KeyCosts(mean)
    costs = np.concatenate([cost(t, keys) for t, keys in enumerate(space._tier_keys)])
    if cost.scale is None:
        return costs
    return costs.astype(object) * Fraction(1, cost.scale) + np.array(cost.const)[space.tier_of]


def check_path_cap(path_cap):
    """Refuse a path cap the int64 path count cannot honour."""
    if not 1 <= path_cap <= MAX_PATH_CAP:
        raise ValidationError(f"path cap must be in 1..{MAX_PATH_CAP}, got {path_cap}")


def _ties(lhs, rhs):
    """Where ``lhs`` attains ``rhs``: exactly, or within DEFAULT_TIE_TOL for float costs."""
    return lhs <= rhs + DEFAULT_TIE_TOL if lhs.dtype.kind == "f" else lhs == rhs


def _forward(n, cost_of, low, big, beam=None):
    """Cheapest cost of a path from state 1 to each state the pass keeps,
    one tier at a time, on the reached frontier only.

    ``cost_of(t, ranks, keys)`` gives the costs of the tier-t states with
    local indices ``ranks`` and packed ``keys``, ``low`` the least state
    cost of each tier, and ``big`` is None for exact costs and, for float
    costs, the sum over the tiers of the largest |cost| plus
    DEFAULT_TIE_TOL. With ``beam`` the run has no bound and keeps per tier
    the ``beam`` cheapest states, ties included. Returns, per tier, the
    sorted local indices of the states kept and their cheapest prefixes,
    and per pair of tiers the edges (src, dst) on a path optimal to dst, as
    positions in those frontiers, sorted by source, then target.

    Branch and bound (Land & Doig 1960; the A* bound of Hart, Nilsson &
    Raphael 1968). A path takes one state per tier, so to_go[t], the sum of
    the later tiers' least state costs, is a lower bound on what any path
    adds after tier t; and ub, the least final prefix of a first run with a
    beam of BEAM (beam search, Lowerre 1976), is the cost of a path, the
    beam path, so an upper bound on the minimum. A state x on an optimal
    path has c[x] + to_go[t] <= min <= ub, and its optimal antecedents lie
    on optimal paths too. So the pass keeps only the reached states with
    c + to_go[t] <= ub, and expands all it keeps: by induction over the
    tiers every state on an optimal path keeps its exact c and all its
    optimal in-edges, which are all the backtrack reads, while any other c
    can only come out higher. A state that is not kept takes part in no
    later sum, in no final minimum and in no backtrack.

    Integer costs (int64 or Python ints) run the test exactly, so every tie
    stays. It compares c with ub - to_go[t], summed in Python ints and
    clipped below the int64 maximum. Nothing overflows int64: c is a path
    prefix, and ``_KeyCosts`` keeps every path sum below the int64 maximum.

    Float costs widen the test by a margin. On a path the backtrack returns
    with T steps, each step's tie test lets the prefix run up to tol
    (DEFAULT_TIE_TOL) over the next state's c, and the final test lets the
    path end up to tol over the minimum, so for x on it, c[x] + to_go[t] <=
    ub + (T+1) tol in exact arithmetic. Every quantity rounded on the way
    (c, to_go, ub, both sides of the tests) is at most B = sum_t max |cost|
    to first order, and each rounding errs by at most u = eps/2 of its
    result: twice per step, T times in to_go, once in the final test and
    four times in the widened test itself, so under (3T+5) u (B + tol). The
    margin (T+1) tol + 2 (T+2) eps (B + tol) covers both with room for the
    higher-order terms. The tier minima add no rounding of their own: with
    given costs they are minima of those costs, and from a mean, the DP of
    ``_extremes`` sums each state's terms in the order its cost does, so
    they are the least float costs bit for bit. Rounding is monotone, so
    float c too only comes out higher off the returned paths, the beam
    path's c stays at or below ub bit for bit, and every state on a
    returned path keeps its bits.

    min_s (c[s] + cost[d]) is cost[d] + min_s c[s]: rounding is monotone,
    so this holds bit for bit in float64 as well as in exact arithmetic.
    The expanded states' edges come from ``kingman.tier_edges`` in chunks,
    in any order. Sorted by target, their runs are the reached states,
    whose costs come from keys unranked from the local indices, and the
    least prefix into each is one ``minimum.reduceat``. Nothing is
    allocated per state of a tier, only per reached state and per expanded
    edge, and a tier that would take the pass past PASS_MAX_BYTES is
    refused.
    """
    ub = math.inf if beam else min(_forward(n, cost_of, low, big, BEAM)[1][-1].tolist())
    to_go = list(accumulate(reversed(low[1:]), initial=0))[::-1]
    ranks, keys = np.zeros(1, np.int64), np.array([n], np.int64)
    c = cost_of(0, ranks, keys)
    margin = 0
    if big is not None:
        steps = n - 2
        margin = (steps + 1) * DEFAULT_TIE_TOL + 2 * (steps + 2) * np.finfo(float).eps * big
    top = np.iinfo(c.dtype).max if c.dtype.kind in "iu" else np.inf

    def bound(t):
        return min(ub - to_go[t] + margin, top - 1)

    frontier, prefix, optimal = [ranks], [c], []
    for t in range(n - 2):
        edges = int(_out_degrees(n, t, keys).sum())
        held = sum(map(len, frontier))
        if edges * EDGE_BYTES + held * STATE_BYTES > PASS_MAX_BYTES:
            raise CapacityError(
                f"tier {t} of X_{n} expands {edges} edges with {held} states held, about "
                f"{(edges * EDGE_BYTES + held * STATE_BYTES) >> 20} MiB, over the budget of "
                f"{PASS_MAX_BYTES >> 20} MiB")
        # each edge array is dropped as soon as it is spent, which holds a
        # tier's peak near EDGE_BYTES per edge
        s, d = np.empty(edges, np.int64), np.empty(edges, np.int64)
        at = 0
        for src, dst in tier_edges(n, t, keys):
            s[at:at + len(src)], d[at:at + len(src)] = src, dst
            at += len(src)
        # sorted by target, the runs of equal targets are the reached states
        order = np.argsort(d)
        s, d = s[order], d[order]
        del order
        head = np.concatenate(([True], d[1:] != d[:-1]))
        starts = np.flatnonzero(head)
        ranks = d[starts]
        del d
        d = np.cumsum(head)
        del head
        d -= 1
        keys = _unrank(n, t + 1, ranks)
        cost = cost_of(t + 1, ranks, keys)
        here, c = c, cost + np.minimum.reduceat(c[s], starts)
        live = c <= bound(t + 1)
        if beam and len(c) > beam:
            live &= c <= np.partition(c, beam - 1)[beam - 1]
        # one block of edges at a time, so that the test's temporaries stay small
        keep = np.concatenate([
            live[d[i:i + TIE_BLOCK]]
            & _ties(here[s[i:i + TIE_BLOCK]] + cost[d[i:i + TIE_BLOCK]], c[d[i:i + TIE_BLOCK]])
            for i in range(0, edges, TIE_BLOCK)])
        s, d = s[keep], (np.cumsum(live) - 1)[d[keep]]
        ranks, keys, c = ranks[live], keys[live], c[live]
        order = np.argsort(s * len(ranks) + d)
        frontier.append(ranks)
        prefix.append(c)
        optimal.append((s[order], d[order]))
    return frontier, prefix, optimal


def _cost_source(n, mean, costs):
    """``_forward``'s cost_of, low and big, and the map from the least path
    sum of those costs to the minimum cost: from given per-state costs by
    global index, or from ``mean``. A rational mean runs on the integer
    costs of ``_KeyCosts``, whose least path sum K is K / D + sum_t const[t]."""
    if costs is not None:
        starts = _tier_offsets(n)[:-1]
        big = None
        if costs.dtype.kind == "f":
            big = float(np.maximum.reduceat(np.abs(costs), starts).sum()) + DEFAULT_TIE_TOL
        return (lambda t, ranks, keys: costs[starts[t] + ranks],
                np.minimum.reduceat(costs, starts).tolist(), big, lambda best: best)
    if mean.n != n:
        raise ValidationError(f"mean matrix is for n = {mean.n}, space for n = {n}")
    key_costs = _KeyCosts(mean)
    low = list(key_costs.low)
    if key_costs.scale is None:
        return (lambda t, ranks, keys: key_costs(t, keys), low,
                float(sum(key_costs.high)) + DEFAULT_TIE_TOL, lambda best: best)
    const = sum(key_costs.const)
    return (lambda t, ranks, keys: key_costs(t, keys), low, None,
            lambda best: Fraction(int(best), key_costs.scale) + const)


def vitreebi(space, mean, path_cap=DEFAULT_PATH_CAP, costs=None):
    """All cheapest chain paths under the squared deviation from ``mean``.

    The pass reads only n from ``space``, which may be None, and then the
    mean gives n. With ``costs``, per-state costs by global index such as
    ``state_costs`` gives, the mean is not read. Returns (min_cost, paths);
    paths are 1-based index tuples sorted lexicographically. Exceeding
    ``path_cap`` optimal paths raises CapacityError before any path is
    materialized.
    """
    check_path_cap(path_cap)
    n = mean.n if space is None else space.n
    check_n(n)
    cost_of, low, big, true_cost = _cost_source(n, mean, costs)
    frontier, prefix, optimal = _forward(n, cost_of, low, big)
    last = prefix[-1]
    best = last.min()
    alive = _ties(last, best)
    finals = np.flatnonzero(alive)

    # Backtrack: keep the optimal edges into states that reach a final one.
    kept = []
    for t, (s, d) in reversed(list(enumerate(optimal))):
        keep = alive[d]
        kept.append((s[keep], d[keep]))
        alive = np.zeros(len(frontier[t]), dtype=bool)
        alive[s[keep]] = True
    kept.reverse()

    # Every kept state lies on an optimal path, so a count above the cap
    # anywhere means the total is above it too.
    count = np.ones(1, dtype=np.int64)
    for t, (s, d) in enumerate(kept):
        count, prev = np.zeros(len(frontier[t + 1]), dtype=np.int64), count
        np.add.at(count, d, prev[s])
        if count.max() > path_cap:
            raise CapacityError(f"more than {path_cap} optimal paths")
    total = sum(int(v) for v in count[finals])
    if total > path_cap:
        raise CapacityError(f"{total} optimal paths exceed cap {path_cap}")

    # Extending each prefix, in order, by its successors in ascending order
    # keeps the paths sorted.
    paths = np.zeros((1, 1), dtype=np.int64)
    for t, (s, d) in enumerate(kept):
        out_deg = np.bincount(s, minlength=len(frontier[t]))
        first = np.cumsum(out_deg) - out_deg
        reps = out_deg[paths[:, -1]]
        start = np.repeat(first[paths[:, -1]] - (np.cumsum(reps) - reps), reps)
        paths = np.column_stack([np.repeat(paths, reps, axis=0), d[start + np.arange(len(start))]])
    offsets = _tier_offsets(n)
    paths = np.column_stack([ranks[paths[:, t]] + offsets[t] + 1
                             for t, ranks in enumerate(frontier)])
    return true_cost(best), [tuple(p) for p in paths.tolist()]
