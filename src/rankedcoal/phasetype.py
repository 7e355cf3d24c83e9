"""Discrete phase-type machinery: PMF, moments, reward transforms, rewards.

All operations are mode-generic: object arrays of Fractions in rational
mode, float64 otherwise. Moment formulas are evaluated as vector chains
(never materializing U-products), so exact mode stays cheap at small n.
"""

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from ._common import CapacityError, ValidationError, exact_fractions, zeros
from .fmatrix import nonfixed_positions

DENSE_MAX_ORDER = 5000
SPARSE_MIN_ORDER = 2000


def _is_sparse(t_mat):
    """Whether T is a scipy sparse matrix: every dense T is an ndarray."""
    return not isinstance(t_mat, np.ndarray)


def _vm(w, t_mat):
    """Row-vector times matrix, dispatching on sparsity."""
    if _is_sparse(t_mat):
        return w @ t_mat
    return w.dot(t_mat)


def _zero(mode):
    return Fraction(0) if mode == "rational" else 0.0


def _one(mode):
    return Fraction(1) if mode == "rational" else 1.0


@dataclass
class DiscretePhaseType:
    """Initial vector pi, sub-transition matrix T, and exit vector.

    pi may be defective (sum < 1) after a reward transform; the missing
    mass is the point mass of the transformed variable at zero.
    """

    pi: np.ndarray
    T: np.ndarray
    exit: np.ndarray = field(default=None)
    mode: str = "rational"

    def __post_init__(self):
        p = len(self.pi)
        if self.T.shape != (p, p):
            raise ValidationError(f"T must be {p}x{p}, got {self.T.shape}")
        if self.exit is None:
            ones = _ones(p, self.mode)
            self.exit = ones - (self.T @ ones if _is_sparse(self.T) else self.T.dot(ones))
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


def _ones(p, mode):
    if mode == "rational":
        out = np.empty(p, dtype=object)
        out[...] = Fraction(1)
        return out
    return np.ones(p)


def _eye(p, mode):
    if mode == "rational":
        out = zeros((p, p), mode)
        for i in range(p):
            out[i, i] = Fraction(1)
        return out
    return np.eye(p)


def _fraction_solve(a, b):
    """Exact solve a @ x = b by Gaussian elimination with nonzero pivoting."""
    a = a.copy()
    b = b.copy()
    p = a.shape[0]
    for col in range(p):
        pivot = next((r for r in range(col, p) if a[r, col] != 0), None)
        if pivot is None:
            raise ValidationError("singular matrix: chain is not absorbing")
        if pivot != col:
            a[[col, pivot]] = a[[pivot, col]]
            b[[col, pivot]] = b[[pivot, col]]
        inv = Fraction(1) / a[col, col]
        a[col] = a[col] * inv
        b[col] = b[col] * inv
        for r in range(p):
            if r != col and a[r, col] != 0:
                factor = a[r, col]
                a[r] = a[r] - factor * a[col]
                b[r] = b[r] - factor * b[col]
    return b


def _solve_resolvent(d, v, left=False):
    """(I - T)^{-1} v as a column vector, or v (I - T)^{-1} if ``left``."""
    p = d.order
    if d.mode == "rational":
        a = _eye(p, d.mode) - d.T
        return _fraction_solve(a.T if left else a, v.copy())
    if _is_sparse(d.T):
        import scipy.sparse as sp
        import scipy.sparse.linalg as spla

        a = sp.csr_matrix(sp.eye(p) - d.T)
        return spla.spsolve(a.T.tocsr() if left else a, v)
    return np.linalg.solve(np.eye(p) - (d.T.T if left else d.T), v)


def dph_pmf(d, m):
    """P(tau = m) = pi T^{m-1} t."""
    if m < 1:
        raise ValidationError(f"PMF argument must be >= 1, got {m}")
    w = d.pi
    for _ in range(m - 1):
        w = _vm(w, d.T)
    return w.dot(d.exit)


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
        w = _vm(w, d.T)
    return out


def dph_factorial_moment(d, k):
    """k-th factorial moment k! * pi T^{k-1} U^k e."""
    if k < 1:
        raise ValidationError(f"moment order must be >= 1, got {k}")
    w = d.pi
    for _ in range(k - 1):
        w = _vm(w, d.T)
    v = _ones(d.order, d.mode)
    for _ in range(k):
        v = _solve_resolvent(d, v)
    fact = 1
    for i in range(2, k + 1):
        fact *= i
    return fact * w.dot(v)


def dph_mean_var(d):
    """Mean and variance of the absorption time."""
    mean = dph_factorial_moment(d, 1)
    second = dph_factorial_moment(d, 2)
    return mean, second + mean - mean * mean


def reward_moments(d, r):
    """Mean and variance of the accumulated reward Y = sum r(X_t)."""
    r = _as_mode_vector(r, d.mode)
    piu = _solve_resolvent(d, d.pi, left=True)
    mean = piu.dot(r)
    chain = _solve_resolvent(d, piu * r, left=True)
    second = 2 * chain.dot(r) - piu.dot(r * r)
    return mean, second - mean * mean


def mdph_cross_moment(d, r_j, r_k):
    """E[Y_j Y_k] and Cov(Y_j, Y_k) for two rewards on one chain."""
    r_j = _as_mode_vector(r_j, d.mode)
    r_k = _as_mode_vector(r_k, d.mode)
    piu = _solve_resolvent(d, d.pi, left=True)
    cross = (
        _solve_resolvent(d, piu * r_j, left=True).dot(r_k)
        + _solve_resolvent(d, piu * r_k, left=True).dot(r_j)
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
    r = [int(v) for v in r]
    pos = [j for j in range(d.order) if r[j] > 0]
    zero = [j for j in range(d.order) if r[j] == 0]
    if not pos:
        raise ValidationError("all-zero reward: Y is degenerate at zero, not a DPH")
    mode = d.mode
    t_full = d.T.toarray() if _is_sparse(d.T) else d.T
    t_pp = t_full[np.ix_(pos, pos)]
    if zero:
        t_pz = t_full[np.ix_(pos, zero)]
        t_zz = t_full[np.ix_(zero, zero)]
        t_zp = t_full[np.ix_(zero, pos)]
        if mode == "rational":
            resolvent = _fraction_solve(_eye(len(zero), mode) - t_zz, t_zp)
        else:
            resolvent = np.linalg.solve(np.eye(len(zero)) - t_zz, t_zp)
        t_cens = t_pp + t_pz.dot(resolvent)
        pi_cens = d.pi[pos] + d.pi[zero].dot(resolvent)
    else:
        t_cens = t_pp
        pi_cens = d.pi[pos]
    # sub-states first[a]..last[a] expand pos[a]; each steps to the next,
    # and the last one leaves with the censored row of pos[a]
    last = np.cumsum([r[j] for j in pos]) - 1
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
