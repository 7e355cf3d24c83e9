"""ViTreebi: cost recursion, exhaustive backtracking, Frechet means.

A rational mean M is solved at every n in integer state costs
K(x) = sum_i (D x_i^2 - 2 x_i N_ij), with D the lcm of the non-fixed
denominators and N = D M: int64 when every path sum fits, Python ints
otherwise. The minimum is K_min / D + sum M^2 exactly and ties compare
with ``==``. A float mean runs in float64 with a DEFAULT_TIE_TOL window.

The forward pass never builds the kernel. It takes each tier's successors
from ``kingman.tier_edges`` in chunks of ``kingman.ROW_CHUNK`` source rows
and keeps per tier only the edges that end up optimal, from which the
backtrack, the path count and ``cost_matrix`` work.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

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


@dataclass
class CostMatrix:
    """Cumulative DP costs C_{i,t} (column t spans tier t-1) plus the
    optimal antecedent set of every state."""

    n: int
    C: np.ndarray
    antecedents: list


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
    # sum. Counting each x_i as at least 1 makes D and 2N fit as well.
    bound = 0
    for (_, x, _), nums in zip(tiers, num):
        for a, b in zip(x.max(axis=0, initial=1).tolist(), nums):
            bound += a * (scale * a + 2 * abs(b))
    dtype = np.int64 if bound <= np.iinfo(np.int64).max else object
    costs = np.zeros(space.num_states, dtype=dtype)
    const = np.full(space.num_tiers, Fraction(0), dtype=object)
    for (t, x, m), nums in zip(tiers, num):
        x = x.astype(dtype)
        costs[space.tier_slice(t)] = (x * (scale * x - 2 * np.array(nums, dtype=dtype))).sum(axis=1)
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
    """Cheapest cost of a path from state 1 to each state, one tier at a time,
    and the edges (src, dst) on a path optimal to dst, per tier.

    min_s (c[s] + cost[d]) is cost[d] + min_s c[s]: rounding is monotone,
    so this holds bit for bit in float64 as well as in exact arithmetic.
    The kernel comes in row chunks from ``tier_edges``. best[d] only falls
    from chunk to chunk, so an edge that ties the final c[d] also tied
    cost[d] + best[d] right after its own chunk: the edges kept then hold
    every optimal one, and the exact test runs on them once the tier is
    done. Edges come by source, then target.
    """
    c = costs.copy()
    optimal = []
    for t in range(space.num_tiers - 1):
        here = c[space.tier_slice(t)]
        cost = costs[space.tier_slice(t + 1)]
        # every state has an in-edge, so each entry is lowered to its minimum
        best = np.full(len(cost), here.max(), dtype=costs.dtype)
        found = []
        for s, d in tier_edges(space, t):
            reach = here[s]
            np.minimum.at(best, d, reach)
            keep = _ties(reach + cost[d], cost[d] + best[d])
            found.append((s[keep], d[keep]))
        there = c[space.tier_slice(t + 1)] = cost + best
        s, d = (np.concatenate(parts) for parts in zip(*found))
        keep = _ties(here[s] + cost[d], there[d])
        s, d = s[keep], d[keep]
        order = np.lexsort((d, s))
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


def cost_matrix(space, mean, costs=None):
    """The dense DP table with off-tier sentinels and antecedent sets."""
    costs, c, optimal, scale = _solve(space, mean, costs)
    n = space.n
    true = c
    if scale is not None:
        denom, const = scale
        true = c.astype(object) * Fraction(1, denom) + const[space.tier_of]
    dense = np.full((space.num_states, n - 1), np.inf)
    dense[np.arange(space.num_states), space.tier_of] = true.astype(np.float64)
    preds = [[] for _ in range(space.num_states)]
    for t, (s, d) in enumerate(optimal):
        s = s + space.tier_offsets[t] + 1
        d = d + space.tier_offsets[t + 1]
        # edges come by source, so each list is ascending
        for a, b in zip(s.tolist(), d.tolist()):
            preds[b].append(a)
    return CostMatrix(n=n, C=dense, antecedents=[tuple(p) for p in preds])
