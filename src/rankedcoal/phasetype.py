"""Discrete phase-type machinery: PMF, moments, reward transforms, rewards.

Every chain built on the tiered embedding only moves forward, so T is
strictly upper triangular in state order; a DPH refuses any other T. Each
DPH keeps a row view of T (the nonzero columns and values of each row),
built once, and one triangular solver serves all of its algebra:
(I - T)^{-1} v is back-substitution and v (I - T)^{-1} forward
substitution, over Fractions in rational mode and float64 otherwise. Exact
pmf stepping walks the row view; float stepping is ``w @ T`` on the numpy
or scipy T. Moment formulas are vector chains, never U-products.
"""

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

import numpy as np

from ._common import CapacityError, ValidationError, exact_fractions, zeros
from .fmatrix import nonfixed_positions

DENSE_MAX_ORDER = 5000
SPARSE_MIN_ORDER = 2000


def _is_sparse(t_mat):
    """Whether T is a scipy sparse matrix: every dense T is an ndarray."""
    return not isinstance(t_mat, np.ndarray)


def _one(mode):
    return Fraction(1) if mode == "rational" else 1.0


def _row_view(t_mat):
    """Each row's nonzero (columns, values) of a strictly upper triangular T."""
    if _is_sparse(t_mat):
        coo = t_mat.tocsr().tocoo()
        keep = coo.data != 0
        r, c, vals = coo.row[keep], coo.col[keep], coo.data[keep]
    else:
        r, c = np.nonzero(t_mat)
        vals = t_mat[r, c]
    if np.any(c <= r):
        raise ValidationError("T must be strictly upper triangular: every chain here moves forward")
    bounds = np.searchsorted(r, np.arange(t_mat.shape[0] + 1))
    return [(c[a:b], vals[a:b]) for a, b in zip(bounds[:-1], bounds[1:])]


def _solve(rows, v, left=False):
    """(I - T)^{-1} v, or v (I - T)^{-1} if ``left``, for T given by its row view.

    Back-substitution runs the rows from last to first; v may be a matrix.
    Forward substitution pushes each finished entry along its row.
    """
    x = v.copy()
    if left:
        for i, (cols, vals) in enumerate(rows):
            if x[i]:
                x[cols] += x[i] * vals
        return x
    for i in range(len(rows) - 1, -1, -1):
        cols, vals = rows[i]
        x[i] = x[i] + vals.dot(x[cols])
    return x


@dataclass
class DiscretePhaseType:
    """Initial vector pi, sub-transition matrix T, and exit vector 1 - T 1.

    pi may be defective (sum < 1) after a reward transform; the missing
    mass is the point mass of the transformed variable at zero.
    """

    pi: np.ndarray
    T: np.ndarray
    mode: str = "rational"
    exit: np.ndarray = field(init=False)
    rows: list = field(init=False, repr=False)

    def __post_init__(self):
        p = len(self.pi)
        if self.T.shape != (p, p):
            raise ValidationError(f"T must be {p}x{p}, got {self.T.shape}")
        self.rows = _row_view(self.T)
        ones = np.full(p, _one(self.mode))
        self.exit = ones - self.T.dot(ones)
        tol = 0 if self.mode == "rational" else 1e-9
        if any(v < -tol for v in self.pi) or sum(self.pi) > 1 + tol:
            raise ValidationError("pi must be a (sub)probability vector")
        if any(v < -tol for v in self.exit):
            raise ValidationError("row sums of T exceed 1")

    @property
    def order(self):
        return len(self.pi)

    @property
    def defect(self):
        """P(Y = 0): initial mass missing from the transient states."""
        return _one(self.mode) - sum(self.pi)

    @cached_property
    def pi_u(self):
        """pi U = pi (I - T)^{-1}, the expected visits to each state."""
        return _solve(self.rows, self.pi, left=True)

    def step(self, w):
        """w T: over the row view in rational mode, ``w @ T`` in float mode."""
        if self.mode != "rational":
            return w @ self.T
        out = zeros(self.order, self.mode)
        for i in np.flatnonzero(w):
            cols, vals = self.rows[i]
            out[cols] += w[i] * vals
        return out


def dph_pmf(d, m):
    """P(tau = m) = pi T^{m-1} t."""
    if m < 1:
        raise ValidationError(f"PMF argument must be >= 1, got {m}")
    return dph_pmf_range(d, m)[-1]


def dph_pmf_range(d, upto):
    """P(tau = m) for m = 1..upto, computed iteratively.

    Once pi T^k is exactly zero every later term is the same exact zero,
    so the stepping stops there and the list is padded with that zero.
    """
    out = []
    w = d.pi
    while len(out) < upto:
        out.append(w.dot(d.exit))
        if not np.any(w != 0):
            out.extend([out[-1]] * (upto - len(out)))
            break
        w = d.step(w)
    return out


def reward_moments(d, r):
    """Mean and variance of the accumulated reward Y = sum r(X_t)."""
    r = _as_mode_vector(r, d.mode)
    return d.pi_u.dot(r), mdph_cross_moment(d, r, r)[1]


def mdph_cross_moment(d, r_j, r_k):
    """E[Y_j Y_k] and Cov(Y_j, Y_k) for two rewards on one chain."""
    r_j = _as_mode_vector(r_j, d.mode)
    r_k = _as_mode_vector(r_k, d.mode)
    piu = d.pi_u
    cross = (
        _solve(d.rows, piu * r_j, left=True).dot(r_k)
        + _solve(d.rows, piu * r_k, left=True).dot(r_j)
        - piu.dot(r_j * r_k)
    )
    cov = cross - piu.dot(r_j) * piu.dot(r_k)
    return cross, cov


def _as_mode_vector(r, mode):
    if mode == "rational":
        return np.array(exact_fractions(r), dtype=object)
    return np.asarray(r, dtype=np.float64)


def reward_transform(d, r):
    """DPH representation of Y = sum r(X_t) for a nonnegative integer reward.

    Zero-reward states are censored by redistributing their transition mass;
    each remaining state j is expanded into r(j) serial sub-states. The
    returned pi may be defective when P(Y = 0) > 0.
    """
    r = exact_fractions(r)
    if len(r) != d.order or any(v < 0 for v in r):
        raise ValidationError("reward must be a nonnegative integer vector of length p")
    bad = next((j for j, v in enumerate(r) if v.denominator != 1), None)
    if bad is not None:
        raise ValidationError(f"reward entry {bad} = {float(r[bad])!r} is not an integer")
    r = np.array([int(v) for v in r])
    pos, zero = np.flatnonzero(r), np.flatnonzero(r == 0)
    if not len(pos):
        raise ValidationError("all-zero reward: Y is degenerate at zero, not a DPH")
    mode = d.mode
    t_full = d.T.toarray() if _is_sparse(d.T) else d.T
    # row j of y: the mass of each positive state entered next from j,
    # passing through zero-reward states only, so y = T[:, pos] + T[:, zero] y;
    # its positive rows are the censored T
    y = _solve(_row_view(np.where(r == 0, t_full, 0)), t_full[:, pos])
    t_cens = y[pos]
    pi_cens = d.pi[pos] + d.pi[zero].dot(y[zero])
    # sub-states first[a]..last[a] expand pos[a]; each steps to the next,
    # and the last one leaves with the censored row of pos[a]
    last = np.cumsum(r[pos]) - 1
    first = np.concatenate([[0], last[:-1] + 1])
    order = int(last[-1]) + 1
    steps = np.setdiff1d(np.arange(order), last)
    pi_new = zeros(order, mode)
    pi_new[first] = pi_cens
    if mode == "float" and order >= SPARSE_MIN_ORDER:
        import scipy.sparse as sp

        a, b = np.nonzero(t_cens)
        rows = np.concatenate([steps, last[a]])
        cols = np.concatenate([steps + 1, first[b]])
        vals = np.concatenate([np.ones(len(steps)), t_cens[a, b]])
        t_new = sp.csr_matrix((vals, (rows, cols)), shape=(order, order))
        return DiscretePhaseType(pi=pi_new, T=t_new, mode=mode)
    t_new = zeros((order, order), mode)
    t_new[steps, steps + 1] = _one(mode)
    t_new[np.ix_(last, first)] = t_cens
    return DiscretePhaseType(pi=pi_new, T=t_new, mode=mode)


@dataclass
class RewardMatrix:
    """Reward columns for S, E, and every non-fixed entry, row-wise order."""

    n: int
    R: np.ndarray
    labels: list

    def column(self, label):
        return self.R[:, self.labels.index(label)]


def reward_S(space):
    """r_S(x): sum of the non-fixed entries of x's column."""
    n = space.n
    out = np.zeros(space.num_states, dtype=np.int64)
    for t in range(2, n - 1):
        sl = space.tier_slice(t)
        out[sl] = space.states[sl, n - t:n - 1].sum(axis=1)
    return out


def reward_E(space):
    """r_E(x) = x_{n-1}, the external count."""
    return space.states[:, -1].astype(np.int64)


def reward_F(space, i, j):
    """r_ij(x) = x_i on tier n-1-j, else 0."""
    n = space.n
    if n < 4:
        raise ValidationError("non-fixed rewards require n >= 4")
    if not (1 <= j <= n - 3 and j + 2 <= i <= n - 1):
        raise ValidationError(f"({i}, {j}) is not a non-fixed position for n = {n}")
    out = np.zeros(space.num_states, dtype=np.int64)
    sl = space.tier_slice(n - 1 - j)
    out[sl] = space.states[sl, i - 1]
    return out


def build_rewards(space):
    """Reward matrix with columns S, E, then all non-fixed positions."""
    n = space.n
    if n < 4:
        raise ValidationError("build_rewards requires n >= 4 (no non-fixed entries below)")
    cols = [reward_S(space), reward_E(space)]
    labels = ["S", "E"]
    for i, j in nonfixed_positions(n):
        cols.append(reward_F(space, i, j))
        labels.append(f"F({i},{j})")
    return RewardMatrix(n=n, R=np.stack(cols, axis=1), labels=labels)


def dph_from_blocks(blocks, mode="rational"):
    """Dense DPH assembled from tiered transition blocks, started at state 1."""
    sizes = [blk.n_rows for blk in blocks] + [blocks[-1].n_cols]
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    p = int(offsets[-1])
    if p > DENSE_MAX_ORDER:
        raise CapacityError(f"dense DPH of order {p} exceeds cap {DENSE_MAX_ORDER}")
    t_mat = zeros((p, p), mode)
    for k, blk in enumerate(blocks):
        t_mat[offsets[k] + blk.rows(), offsets[k + 1] + blk.indices] = blk.probs(mode)
    pi = zeros(p, mode)
    pi[0] = _one(mode)
    return DiscretePhaseType(pi=pi, T=t_mat, mode=mode)


def coalescent_dph(space, *, mode="rational"):
    """Dense DPH of the ranked coalescent (small n only)."""
    from .kingman import tier_blocks

    if space.num_states > DENSE_MAX_ORDER:
        raise CapacityError(
            f"dense DPH of order {space.num_states} exceeds cap {DENSE_MAX_ORDER}; "
            "use the feedforward engine"
        )
    return dph_from_blocks(tier_blocks(space), mode=mode)
