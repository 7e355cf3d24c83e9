"""ViTreebi: cost recursion, exhaustive backtracking, Frechet means.

A rational mean M is solved at every n in integer state costs
K(x) = sum_i (D x_i^2 - 2 x_i N_ij), with D the lcm of the non-fixed
denominators and N = D M: int64 when every path sum fits, Python ints
otherwise. The minimum is K_min / D + sum M^2 exactly and ties compare
with ``==``. A float mean runs in float64 with a DEFAULT_TIE_TOL window.

The forward pass never builds the kernel. It is a branch and bound: it
expands only the states whose cheapest prefix, plus the later tiers'
cheapest state costs, is within the cost of one greedy path (3,057 of
121,392 states at n = 25 under the Kingman mean), which keeps every state
of every optimal path and every tie. It streams those states' edges from
``kingman.tier_edges``, at most ``kingman.ROW_CHUNK`` source rows at a time
in no row order, and keeps per tier only the edges that end up optimal,
sorted by source and target, from which the backtrack and the path count
work.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate

import numpy as np

from ._common import CapacityError, ValidationError
from .fmatrix import nonfixed_positions
from .kingman import tier_edges

DEFAULT_PATH_CAP = 10 ** 6
# A state has fewer than n^2 < 2^12 in-edges (n <= 58), and every count
# summed into it is at most the cap, so path counts stay far inside int64.
MAX_PATH_CAP = 2 ** 50
DEFAULT_TIE_TOL = 1e-9


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

    def entry(self, i, j):
        """M_ij with 1-based indices."""
        return self.M[i - 1, j - 1]

    def nonfixed(self):
        return [self.M[i - 1, j - 1] for i, j in nonfixed_positions(self.n)]


def mean_matrix_exact(space):
    """Kingman mean matrix, E[F_ij] = j(j+1)/i, as Fractions."""
    n = space.n
    rows = [[Fraction(j * (j + 1) if j <= i else 0, i) for j in range(1, n)] for i in range(1, n)]
    return MeanMatrix(n=n, M=np.array(rows, dtype=object))


def mean_matrix_sample(matrices, weights=None):
    """Entrywise (weighted) average of F-matrices of a common n.

    Unweighted and Fraction-weighted averages stay exact.
    """
    if not matrices:
        raise ValidationError("mean of an empty sample")
    n = matrices[0].n
    if any(f.n != n for f in matrices):
        raise ValidationError("mixed n in sample")
    if weights is None:
        total = np.zeros((n - 1, n - 1), dtype=np.int64)
        for f in matrices:
            total += f.entries
        m = len(matrices)
        m_arr = np.empty((n - 1, n - 1), dtype=object)
        for idx, val in np.ndenumerate(total):
            m_arr[idx] = Fraction(int(val), m)
        return MeanMatrix(n=n, M=m_arr)
    if len(weights) != len(matrices):
        raise ValidationError("one weight per matrix required")
    wsum = sum(weights)
    if wsum == 0:
        raise ValidationError("weights sum to zero")
    exact = all(isinstance(w, (int, Fraction)) for w in weights)
    if exact:
        m_arr = np.empty((n - 1, n - 1), dtype=object)
        m_arr[...] = Fraction(0)
        for f, w in zip(matrices, weights):
            for idx, val in np.ndenumerate(f.entries):
                m_arr[idx] += Fraction(w) * int(val)
        m_arr = m_arr / Fraction(wsum)
    else:
        m_arr = np.zeros((n - 1, n - 1))
        for f, w in zip(matrices, weights):
            m_arr += float(w) * f.entries
        m_arr /= float(wsum)
    return MeanMatrix(n=n, M=m_arr)


def _tier_columns(space, mean):
    """(tier, states, mean entries) over the non-fixed rows i = j+2..n-1 of
    each tier's column j = n-1-t; tiers 0 and 1 have no such rows."""
    n = space.n
    if mean.n != n:
        raise ValidationError(f"mean matrix is for n = {mean.n}, space for n = {n}")
    return [(t, space.states[space.tier_slice(t), n - t:], mean.M[n - t:, n - 2 - t])
            for t in range(2, space.num_tiers)]


def _scaled_costs(space, mean):
    """Integer costs K of a rational mean, their scale D and the per-tier
    constants S[t] = sum_i M_ij^2: c(x) = K(x) / D + S[t]. A path takes one
    state per tier, so S adds the same to every path."""
    tiers = [(t, x, [Fraction(v) for v in m]) for t, x, m in _tier_columns(space, mean)]
    scale = math.lcm(*(v.denominator for _, _, m in tiers for v in m))
    num = [[int(v * scale) for v in m] for _, _, m in tiers]
    # A path sums one K per tier, so the tiers' largest |K| bound every path
    # sum. Counting each x_i as at least 1 makes D and 2N fit as well. The
    # int64 maximum itself is left free: ``_forward`` marks unreached states
    # with it.
    bound = 0
    for (_, x, _), nums in zip(tiers, num):
        for a, b in zip(x.max(axis=0, initial=1).tolist(), nums):
            bound += a * (scale * a + 2 * abs(b))
    dtype = np.int64 if bound < np.iinfo(np.int64).max else object
    costs = np.zeros(space.num_states, dtype=dtype)
    const = np.full(space.num_tiers, Fraction(0), dtype=object)
    for (t, x, m), nums in zip(tiers, num):
        tier_costs = costs[space.tier_slice(t)]
        for col, b in zip(x.T, nums):  # no (tier size x columns) temporaries
            col = col.astype(dtype)
            tier_costs += col * (scale * col - 2 * b)
        const[t] = sum(v * v for v in m)
    return costs, scale, const


def state_costs(space, mean):
    """Per-state cost c(x) = sum_k (x_k - M_{k, n-1-t(x)})^2.

    Only non-fixed positions can contribute: every state agrees with the
    forced diagonal and subdiagonal of its column. A rational mean gives
    Fractions, built from the integer costs ViTreebi runs on.
    """
    if mean.mode == "rational":
        costs, scale, const = _scaled_costs(space, mean)
        return costs.astype(object) * Fraction(1, scale) + const[space.tier_of]
    costs = np.zeros(space.num_states)
    for t, x, m in _tier_columns(space, mean):
        diff = x - m.astype(np.float64)
        costs[space.tier_slice(t)] = (diff * diff).sum(axis=1)
    return costs


def check_path_cap(path_cap):
    """Refuse a path cap the int64 path count cannot honour."""
    if not 1 <= path_cap <= MAX_PATH_CAP:
        raise ValidationError(f"path cap must be in 1..{MAX_PATH_CAP}, got {path_cap}")


def _ties(lhs, rhs):
    """Where ``lhs`` attains ``rhs``: exactly, or within DEFAULT_TIE_TOL for float costs."""
    return lhs <= rhs + DEFAULT_TIE_TOL if lhs.dtype.kind == "f" else lhs == rhs


def _forward(space, costs):
    """Cheapest cost of a path from state 1 to each state the pass reaches,
    one tier at a time, and the edges (src, dst) on a path optimal to dst,
    per tier.

    Branch and bound (Land & Doig 1960; the A* bound of Hart, Nilsson &
    Raphael 1968). A path takes one state per tier, so to_go[t], the sum of
    the later tiers' cheapest state costs, is a lower bound on what any path
    adds after tier t; and ub, the cost of the greedy path that steps to the
    cheapest successor at each tier, is an upper bound on the minimum. A
    state x on an optimal path has c[x] + to_go[t] <= min <= ub, and its
    optimal antecedents lie on optimal paths too. So the pass expands only
    the reached states with c + to_go[t] <= ub: by induction over the tiers
    every state on an optimal path keeps its exact c and all its optimal
    in-edges, which are all the backtrack reads, while any other c can only
    come out higher. A state that no expanded edge reaches holds ``top``,
    the int64 maximum or inf, above every path sum, so it takes part in no
    sum, in no final minimum and in no backtrack.

    Integer costs (int64 or Python ints) run the test exactly, so every tie
    stays. It compares c with ub - to_go[t], summed in Python ints and
    clipped below ``top``. Nothing overflows int64: c is a path prefix, and
    ``_scaled_costs`` keeps every path sum below the int64 maximum.

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
    higher-order terms. Rounding is monotone, so float c too only comes out
    higher off the returned paths, the greedy path's c stays at or below ub
    bit for bit, and every state on a returned path keeps its bits.

    min_s (c[s] + cost[d]) is cost[d] + min_s c[s]: rounding is monotone,
    so this holds bit for bit in float64 as well as in exact arithmetic.
    The kernel comes in chunks from ``tier_edges``, in any order. best[d]
    only falls from chunk to chunk, so an edge that ties the final c[d] also
    tied cost[d] + best[d] right after its own chunk: the edges kept then
    hold every optimal one, and the exact test runs on them once the tier is
    done. The optimal edges are then sorted by source, then target.
    """
    tiers = [space.tier_slice(t) for t in range(space.num_tiers)]
    starts = space.tier_offsets[:-1]
    # Python scalars, so that the bounds' sums cannot overflow
    low = np.minimum.reduceat(costs, starts).tolist()
    to_go = list(accumulate(reversed(low[1:]), initial=0))[::-1]
    x, path = 0, [0]  # the greedy path, as global indices
    for t in range(space.num_tiers - 1):
        _, d = next(tier_edges(space, t, np.array([x])))
        x = d[np.argmin(costs[tiers[t + 1]][d])]
        path.append(starts[t + 1] + x)
    ub = sum(costs[path].tolist())
    margin = 0
    if costs.dtype.kind == "f":
        steps = space.num_tiers - 1
        big = float(np.maximum.reduceat(np.abs(costs), starts).sum()) + DEFAULT_TIE_TOL
        margin = (steps + 1) * DEFAULT_TIE_TOL + 2 * (steps + 2) * np.finfo(float).eps * big
    top = np.iinfo(costs.dtype).max if costs.dtype.kind in "iu" else np.inf

    c = costs.copy()
    optimal = []
    for t in range(space.num_tiers - 1):
        here = c[tiers[t]]
        cost = costs[tiers[t + 1]]
        rows = np.flatnonzero(here <= min(ub - to_go[t] + margin, top - 1))
        best = np.full(len(cost), top, dtype=costs.dtype)
        found = []
        for s, d in tier_edges(space, t, rows):
            reach = here[s]
            np.minimum.at(best, d, reach)
            keep = _ties(reach + cost[d], cost[d] + best[d])
            found.append((s[keep], d[keep]))
        hit = best < top
        there = c[tiers[t + 1]]
        there[~hit] = top
        there[hit] = cost[hit] + best[hit]
        s, d = (np.concatenate(parts) for parts in zip(*found))
        keep = _ties(here[s] + cost[d], there[d])
        s, d = s[keep], d[keep]
        order = np.argsort(s * len(cost) + d)
        optimal.append((s[order], d[order]))
    return c, optimal


def _solve(space, mean, costs):
    """Per-state costs, cumulative costs and per-tier optimal edges of one
    ViTreebi problem.

    Without given ``costs``, a rational mean runs on the integer costs of
    ``_scaled_costs``; the last item is then (D, cumulative S per tier),
    which turns a cumulative cost c at tier t into c / D + S_cum[t].
    Otherwise it is None and the costs are true costs.
    """
    scale = None
    if costs is None and mean.mode == "rational":
        costs, denom, const = _scaled_costs(space, mean)
        scale = denom, np.cumsum(const)
    elif costs is None:
        costs = state_costs(space, mean)
    return (costs, *_forward(space, costs), scale)


def vitreebi(space, mean, path_cap=DEFAULT_PATH_CAP, costs=None):
    """All cheapest chain paths under the squared deviation from ``mean``.

    Returns (min_cost, paths); paths are 1-based index tuples sorted
    lexicographically. Exceeding ``path_cap`` optimal paths raises
    CapacityError before any path is materialized.
    """
    check_path_cap(path_cap)
    costs, c, optimal, scale = _solve(space, mean, costs)
    last = c[space.tier_slice(space.num_tiers - 1)]
    best = last.min()
    alive = _ties(last, best)
    finals = np.flatnonzero(alive)

    # Backtrack: keep the optimal edges into states that reach a final one.
    kept = []
    for t, (s, d) in reversed(list(enumerate(optimal))):
        keep = alive[d]
        kept.append((s[keep], d[keep]))
        alive = np.zeros(space.tier_size(t), dtype=bool)
        alive[s[keep]] = True
    kept.reverse()

    # Every kept state lies on an optimal path, so a count above the cap
    # anywhere means the total is above it too.
    count = np.ones(1, dtype=np.int64)
    for t, (s, d) in enumerate(kept):
        count, prev = np.zeros(space.tier_size(t + 1), dtype=np.int64), count
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
        out_deg = np.bincount(s, minlength=space.tier_size(t))
        first = np.cumsum(out_deg) - out_deg
        reps = out_deg[paths[:, -1]]
        start = np.repeat(first[paths[:, -1]] - (np.cumsum(reps) - reps), reps)
        paths = np.column_stack([np.repeat(paths, reps, axis=0), d[start + np.arange(len(start))]])
    paths += space.tier_offsets[:-1] + 1
    if scale is not None:
        denom, const = scale
        best = Fraction(int(best), denom) + const[-1]
    return best, [tuple(p) for p in paths.tolist()]
