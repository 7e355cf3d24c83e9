"""ViTreebi: cost recursion, exhaustive backtracking, Frechet means.

The forward pass is exact rational whenever the mean matrix is rational
and n is small enough for big-denominator arithmetic; otherwise float64
with a tie window wide enough to keep exact ties and tight enough to
exclude genuinely distinct costs.
"""

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from ._common import CapacityError, ValidationError
from .fmatrix import nonfixed_positions

EXACT_MAX_N = 16
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


def mean_matrix_exact(space, blocks=None, mode=None):
    """Kingman mean matrix: fixed entries forced, non-fixed from moments."""
    from .feedforward import nonfixed_means

    n = space.n
    if mode is None:
        mode = "rational" if n <= 12 else "float"
    if mode == "rational":
        m_arr = np.empty((n - 1, n - 1), dtype=object)
        m_arr[...] = Fraction(0)
    else:
        m_arr = np.zeros((n - 1, n - 1))
    for j in range(1, n):
        m_arr[j - 1, j - 1] = Fraction(j + 1) if mode == "rational" else float(j + 1)
        if j + 1 <= n - 1:
            m_arr[j, j - 1] = Fraction(j) if mode == "rational" else float(j)
    if n >= 4:
        positions, mean = nonfixed_means(space, blocks=blocks, mode=mode)
        for a, (i, j) in enumerate(positions):
            m_arr[i - 1, j - 1] = mean[a]
    return MeanMatrix(n=n, M=m_arr)


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


def state_costs(space, mean):
    """Per-state cost c(x) = sum_k (x_k - M_{k, n-1-t(x)})^2.

    Only non-fixed positions can contribute: every state agrees with the
    forced diagonal and subdiagonal of its column.
    """
    n = space.n
    if mean.n != n:
        raise ValidationError(f"mean matrix is for n = {mean.n}, space for n = {n}")
    exact = mean.mode == "rational"
    if exact:
        costs = np.empty(space.num_states, dtype=object)
        costs[...] = Fraction(0)
    else:
        costs = np.zeros(space.num_states)
    for t in range(2, space.num_tiers):
        j = n - 1 - t
        rows = list(range(j + 2, n))
        sl = space.tier_slice(t)
        block = space.states[sl][:, [i - 1 for i in rows]].astype(np.int64)
        if exact:
            mcol = [mean.M[i - 1, j - 1] for i in rows]
            for local in range(block.shape[0]):
                acc = Fraction(0)
                for c, mv in enumerate(mcol):
                    diff = int(block[local, c]) - mv
                    acc += diff * diff
                costs[sl.start + local] = acc
        else:
            mcol = np.array([mean.M[i - 1, j - 1] for i in rows], dtype=np.float64)
            diff = block.astype(np.float64) - mcol[None, :]
            costs[sl] = (diff * diff).sum(axis=1)
    return costs


def check_path_cap(path_cap):
    """Refuse a path cap the int64 path count cannot honour."""
    if not 1 <= path_cap <= MAX_PATH_CAP:
        raise ValidationError(f"path cap must be in 1..{MAX_PATH_CAP}, got {path_cap}")


def _forward(space, blocks, costs):
    """Cheapest cost of a path from state 1 to each state, one tier at a time.

    min_s (c[s] + cost[d]) is cost[d] + min_s c[s]: rounding is monotone,
    so this holds bit for bit in float64 as well as for Fractions.
    """
    c = costs.copy()
    for blk in blocks:
        src = space.tier_slice(blk.from_tier)
        dst = space.tier_slice(blk.from_tier + 1)
        best = np.full(blk.n_cols, np.inf, dtype=costs.dtype)
        np.minimum.at(best, blk.indices, np.repeat(c[src], np.diff(blk.indptr)))
        c[dst] = costs[dst] + best
    return c


def _optimal_edges(space, blk, c, costs, tie_tol, into=None):
    """Edges (src, dst), local to their tiers, on a path that is optimal to dst.

    That is c[src] + cost[dst] == c[dst], or within ``tie_tol`` for float
    costs. With ``into``, only edges whose target is marked in it are kept.
    Edges come in row order: by source, then by target.
    """
    edges = np.arange(blk.nnz) if into is None else np.flatnonzero(into[blk.indices])
    s = np.searchsorted(blk.indptr, edges, side="right") - 1
    d = blk.indices[edges]
    src = space.tier_offsets[blk.from_tier] + s
    dst = space.tier_offsets[blk.from_tier + 1] + d
    lhs, rhs = c[src] + costs[dst], c[dst]
    keep = lhs == rhs if costs.dtype == object else lhs <= rhs + tie_tol
    return s[keep], d[keep]


def _solve(space, mean, costs, blocks):
    """Per-state costs, cumulative costs and tier blocks of one ViTreebi problem.

    Costs are Fractions for an exact mean up to EXACT_MAX_N, float64 otherwise.
    """
    from .kingman import tier_blocks

    if costs is None:
        if mean.n != space.n:
            raise ValidationError(f"mean matrix is for n = {mean.n}, space for n = {space.n}")
        costs = state_costs(space, mean)
        if costs.dtype == object and space.n > EXACT_MAX_N:
            costs = costs.astype(np.float64)
    if costs.dtype != object:
        costs = np.asarray(costs, dtype=np.float64)
    if blocks is None:
        blocks = tier_blocks(space)
    return costs, _forward(space, blocks, costs), blocks


def vitreebi(space, mean, path_cap=DEFAULT_PATH_CAP, tie_tol=DEFAULT_TIE_TOL,
             costs=None, blocks=None):
    """All cheapest chain paths under the squared deviation from ``mean``.

    Returns (min_cost, paths); paths are 1-based index tuples sorted
    lexicographically. Exceeding ``path_cap`` optimal paths raises
    CapacityError before any path is materialized.
    """
    check_path_cap(path_cap)
    costs, c, blocks = _solve(space, mean, costs, blocks)
    last = c[space.tier_slice(space.num_tiers - 1)]
    best = last.min()
    alive = last == best if costs.dtype == object else last <= best + tie_tol
    finals = np.flatnonzero(alive)

    # Backtrack: keep the optimal edges into states that reach a final one.
    kept = []
    for blk in reversed(blocks):
        s, d = _optimal_edges(space, blk, c, costs, tie_tol, into=alive)
        kept.append((s, d))
        alive = np.zeros(blk.n_rows, dtype=bool)
        alive[s] = True
    kept.reverse()

    # Every kept state lies on an optimal path, so a count above the cap
    # anywhere means the total is above it too.
    count = np.ones(1, dtype=np.int64)
    for blk, (s, d) in zip(blocks, kept):
        count, prev = np.zeros(blk.n_cols, dtype=np.int64), count
        np.add.at(count, d, prev[s])
        if count.max() > path_cap:
            raise CapacityError(f"more than {path_cap} optimal paths")
    total = sum(int(v) for v in count[finals])
    if total > path_cap:
        raise CapacityError(f"{total} optimal paths exceed cap {path_cap}")

    # Extending each prefix, in order, by its successors in ascending order
    # keeps the paths sorted.
    paths = np.zeros((1, 1), dtype=np.int64)
    for blk, (s, d) in zip(blocks, kept):
        out_deg = np.bincount(s, minlength=blk.n_rows)
        first = np.cumsum(out_deg) - out_deg
        reps = out_deg[paths[:, -1]]
        start = np.repeat(first[paths[:, -1]] - (np.cumsum(reps) - reps), reps)
        paths = np.column_stack([np.repeat(paths, reps, axis=0), d[start + np.arange(len(start))]])
    paths += space.tier_offsets[:-1] + 1
    return best, [tuple(p) for p in paths.tolist()]


def cost_matrix(space, mean, tie_tol=DEFAULT_TIE_TOL, costs=None, blocks=None):
    """The dense DP table with off-tier sentinels and antecedent sets."""
    costs, c, blocks = _solve(space, mean, costs, blocks)
    n = space.n
    dense = np.full((space.num_states, n - 1), np.inf)
    dense[np.arange(space.num_states), space.tier_of] = c.astype(np.float64)
    preds = [[] for _ in range(space.num_states)]
    for blk in blocks:
        s, d = _optimal_edges(space, blk, c, costs, tie_tol)
        s = s + space.tier_offsets[blk.from_tier] + 1
        d = d + space.tier_offsets[blk.from_tier + 1]
        # edges come by source, so each list is ascending
        for a, b in zip(s.tolist(), d.tolist()):
            preds[b].append(a)
    return CostMatrix(n=n, C=dense, antecedents=[tuple(p) for p in preds])


def frechet_variance(space, blocks=None, mean=None, engine=None):
    """E ||F - M||^2 under Kingman: the dispersion around ``mean``.

    Enumeration below n = 13 gives the exact rational value; above, the
    moment identity tr(Sigma) + ||mean_vec - M_vec||^2 is used.
    """
    from .feedforward import nonfixed_moments
    from .kingman import enumerate_paths, tier_blocks

    n = space.n
    if blocks is None:
        blocks = tier_blocks(space)
    if mean is None:
        mean = mean_matrix_exact(space, blocks=blocks)
    if engine is None:
        engine = "enumeration" if n <= 12 else "moments"
    positions = nonfixed_positions(n)
    if engine == "enumeration":
        from .fmatrix import path_to_fmatrix

        exact = mean.mode == "rational"
        total = Fraction(0) if exact else 0.0
        for path, prob in enumerate_paths(space, blocks):
            fmat = path_to_fmatrix(space, path)
            dev = Fraction(0) if exact else 0.0
            for i, j in positions:
                diff = int(fmat.entries[i - 1, j - 1]) - mean.M[i - 1, j - 1]
                dev += diff * diff
            total += (prob if exact else float(prob)) * dev
        return total
    if engine != "moments":
        raise ValidationError(f"unknown engine {engine!r}")
    summary = nonfixed_moments(space, blocks=blocks)
    exact = summary.mode == "rational" and mean.mode == "rational"
    acc = Fraction(0) if exact else 0.0
    for a, (i, j) in enumerate(positions):
        acc += summary.cov[a, a] if exact else float(summary.cov[a, a])
        diff = summary.mean[a] - mean.M[i - 1, j - 1]
        if not exact:
            diff = float(diff)
        acc += diff * diff
    return acc
