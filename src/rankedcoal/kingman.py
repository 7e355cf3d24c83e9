"""Kingman transition kernel of the ranked coalescent.

Tier blocks are stored row-compressed with integer numerators and one
integer denominator C(n-t, 2) per tier, so rational and float views are
both exact materializations of the same data. ``tier_blocks`` is the one
builder of whole blocks: it builds them once per state space, read-only,
and every consumer that needs the whole kernel asks it for them.
"""

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from ._common import CapacityError, ValidationError, binom2, to_fractions, zeros
from ._kernels import expand_tier
from .statespace import RankedState, _tier_rank, diff_encoding

PATH_ENUM_MAX_N = 12
# Source rows per chunk of ``tier_edges``.
ROW_CHUNK = 4096


@dataclass(frozen=True)
class TierBlock:
    """Sparse rectangular transition block from tier k to tier k+1."""

    from_tier: int
    n_rows: int
    n_cols: int
    indptr: np.ndarray
    indices: np.ndarray
    numer: np.ndarray
    denom: int

    @property
    def nnz(self):
        return int(self.indptr[-1])

    def rows(self):
        """Source row of every edge, in edge order."""
        return np.repeat(np.arange(self.n_rows), np.diff(self.indptr))

    def probs(self, mode="rational"):
        """Probability of every edge: Fractions in rational mode, float64 otherwise."""
        if mode == "rational":
            return to_fractions(self.numer.astype(object), self.denom)
        return self.numer / self.denom

    def csr(self):
        """Float CSR matrix of the transition probabilities."""
        import scipy.sparse

        return scipy.sparse.csr_matrix(
            (self.probs("float"), self.indices.copy(), self.indptr.copy()),
            shape=(self.n_rows, self.n_cols),
        )

    def dense(self, mode="rational"):
        """Dense block; object array of Fractions in rational mode."""
        out = zeros((self.n_rows, self.n_cols), mode)
        out[self.rows(), self.indices] = self.probs(mode)
        return out

    def row_sums(self):
        """Exact row sums as Fractions (all 1 for a valid kernel)."""
        sums = np.add.reduceat(self.numer, self.indptr[:-1]) if self.nnz else np.array([])
        return [Fraction(int(s), self.denom) for s in sums]


def feasible(x, y):
    """The unique coalescence pair (i, k) turning state x into state y.

    Accepts RankedState objects or raw vectors. Returns None when no pair
    satisfies d(x) - d(y) + e_{n-2-t} = e_i + e_k.
    """
    xv = x.x if isinstance(x, RankedState) else tuple(int(v) for v in x)
    yv = y.x if isinstance(y, RankedState) else tuple(int(v) for v in y)
    if len(xv) != len(yv):
        raise ValidationError("states of different n")
    n = len(xv) + 1
    tx = n - max(xv)
    ty = n - max(yv)
    if ty != tx + 1:
        raise ValidationError(f"tier mismatch: tier(x) = {tx}, tier(y) = {ty}")
    px, cx = diff_encoding(xv)
    py, cy = diff_encoding(yv)
    diff = [a - b for a, b in zip(px + (cx,), py + (cy,))]
    nu = n - 2 - tx
    diff[nu - 1] += 1
    if sum(diff) != 2 or any(v < 0 for v in diff):
        return None
    hits = [pos + 1 for pos, v in enumerate(diff) if v > 0]
    if len(hits) == 1:
        if hits[0] == n - 1 and diff[n - 2] == 2:
            return (n - 1, n - 1)
        return None
    if len(hits) == 2 and all(diff[h - 1] == 1 for h in hits):
        return (hits[0], hits[1])
    return None


def transition_prob(x, y, mode="rational"):
    """Kingman transition probability x -> y (0 when infeasible)."""
    xv = x.x if isinstance(x, RankedState) else tuple(int(v) for v in x)
    pair = feasible(x, y)
    denom = binom2(max(xv))
    if pair is None:
        return Fraction(0) if mode == "rational" else 0.0
    i, k = pair
    n = len(xv) + 1
    c = xv[-1]
    if k < n - 1:
        numer = 1
    elif i < n - 1:
        numer = c
    else:
        numer = binom2(c)
    return Fraction(numer, denom) if mode == "rational" else numer / denom


def _successors(space, t, rows):
    """Coalescence successors of the tier-t states ``rows`` (canonical local
    indices, a slice or an index array; all if None).

    Returns (src, cols, numer): src indexes ``rows`` and is grouped, cols is
    the canonical local index of the target in tier t+1.
    """
    keys = space._tier_keys_canon[t]
    if rows is not None:
        keys = keys[rows]
    src, dst, numer = expand_tier(keys, space.n, t)
    return src, space._tier_canonical[t + 1][_tier_rank(space.n, t + 1, dst)], numer


def _tier_rows(space, t, rows=None):
    """Out-edges of the tier-t states ``rows`` (canonical local indices; all if None).

    Returns (indptr, cols, numer) over ``rows`` in the given order, each row
    ordered by target column (canonical local index in tier t+1).
    """
    src, cols, numer = _successors(space, t, rows)
    num_rows = space.tier_size(t) if rows is None else len(rows)
    # src is already grouped; one stable sort on (src, col) orders each row.
    order = np.argsort(src * space.tier_size(t + 1) + cols, kind="stable")
    indptr = np.zeros(num_rows + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=num_rows), out=indptr[1:])
    return indptr, cols[order], numer[order]


def tier_edges(space, t):
    """The edges of tier t as (src, dst) local indices, ROW_CHUNK source rows
    at a time, without building the tier's block. Rows come in order; the
    targets of a row are not sorted."""
    size = space.tier_size(t)
    for lo in range(0, size, ROW_CHUNK):
        src, dst, _ = _successors(space, t, slice(lo, min(lo + ROW_CHUNK, size)))
        yield src + lo, dst


def tier_blocks(space):
    """All blocks T_{0,1}, ..., T_{n-3,n-2} of the Kingman kernel.

    Built on the first call for ``space`` and kept on it: every later call
    returns the same tuple, whose arrays are read-only.
    """
    if space._blocks is None:
        n = space.n
        blocks = []
        for t in range(n - 2):
            indptr, cols, numer = _tier_rows(space, t)
            for arr in (indptr, cols, numer):
                arr.flags.writeable = False
            blocks.append(TierBlock(
                from_tier=t,
                n_rows=space.tier_size(t),
                n_cols=space.tier_size(t + 1),
                indptr=indptr,
                indices=cols,
                numer=numer,
                denom=binom2(n - t),
            ))
        space._blocks = tuple(blocks)
    return space._blocks


@dataclass
class EdgeTable:
    """Global CSR over all transient states, for path probabilities and enumeration."""

    n: int
    num_states: int
    indptr: np.ndarray       # (num_states + 1,)
    cols: np.ndarray         # global 0-based targets
    numer: np.ndarray
    denom_state: np.ndarray  # float64 per-row denominator

    def edge_prob(self, s, d, mode="rational"):
        """Probability of the edge s -> d (0-based globals), 0 if absent."""
        lo, hi = int(self.indptr[s]), int(self.indptr[s + 1])
        pos = lo + int(np.searchsorted(self.cols[lo:hi], d))
        if pos == hi or self.cols[pos] != d:
            return Fraction(0) if mode == "rational" else 0.0
        denom = int(self.denom_state[s])
        if mode == "rational":
            return Fraction(int(self.numer[pos]), denom)
        return int(self.numer[pos]) / denom


def edge_table(space):
    """Assemble the global edge CSR from the tier blocks."""
    blocks = tier_blocks(space)
    # the last tier's states have no out-edges
    degrees = [np.diff(blk.indptr) for blk in blocks]
    degrees.append(np.zeros(space.tier_size(space.n - 2), np.int64))
    denom_tier = np.array([blk.denom for blk in blocks] + [1], dtype=np.float64)
    return EdgeTable(
        n=space.n,
        num_states=space.num_states,
        indptr=np.concatenate([[0], np.cumsum(np.concatenate(degrees))]),
        cols=np.concatenate([blk.indices + space.tier_offsets[blk.from_tier + 1] for blk in blocks]),
        numer=np.concatenate([blk.numer for blk in blocks]),
        denom_state=denom_tier[space.tier_of],
    )


def validate_path(space, path):
    """Check a 1-based index path: length, forced start, tier-consecutive feasibility."""
    path = tuple(int(i) for i in path)
    n = space.n
    if len(path) != n - 1:
        raise ValidationError(f"path length {len(path)} != n - 1 = {n - 1}")
    if path[0] != 1:
        raise ValidationError("path must start at state 1")
    for t, idx in enumerate(path):
        st = space.state(idx)
        if st.tier != t:
            raise ValidationError(f"state {idx} at step {t} has tier {st.tier}")
    for t in range(len(path) - 1):
        if feasible(space.state(path[t]), space.state(path[t + 1])) is None:
            raise ValidationError(
                f"infeasible transition {path[t]} -> {path[t + 1]} at step {t}"
            )
    return path


def path_probability(space, path, *, mode="rational"):
    """Product of Kingman transition probabilities along a feasible path."""
    path = validate_path(space, path)
    prob = Fraction(1) if mode == "rational" else 1.0
    for a, b in zip(path, path[1:]):
        prob *= transition_prob(space.state(a), space.state(b), mode=mode)
    return prob


def enumerate_paths(space):
    """All chain paths with exact probabilities, in lexicographic index order.

    Guarded at n <= 12; the path count is the Euler (up/down) number E_{n-1}.
    """
    n = space.n
    if n > PATH_ENUM_MAX_N:
        raise CapacityError(f"path enumeration capped at n = {PATH_ENUM_MAX_N}, got {n}")
    table = edge_table(space)
    results = []
    stack = [(0, (1,), Fraction(1))]
    while stack:
        state, path, prob = stack.pop()
        if len(path) == n - 1:
            results.append((path, prob))
            continue
        lo, hi = int(table.indptr[state]), int(table.indptr[state + 1])
        denom = int(table.denom_state[state])
        for e in range(hi - 1, lo - 1, -1):
            nxt = int(table.cols[e])
            p = Fraction(int(table.numer[e]), denom)
            stack.append((nxt, path + (nxt + 1,), prob * p))
    return results


def _walk_paths(space, uniforms):
    """Chain paths driven by ``uniforms``, one row of n-2 values per path.

    A step from a tier-t state takes the first out-edge whose running
    numerator exceeds floor(u * C(n-t, 2)), or the row's last edge. Only
    the rows of the states some path stands on are built. Returns
    (count, n-1) 1-based state indices.
    """
    n = space.n
    count = uniforms.shape[0]
    out = np.ones((count, n - 1), np.int64)
    cur = np.zeros(count, np.int64)
    for t in range(n - 2):
        rows, inv = np.unique(cur, return_inverse=True)
        indptr, cols, numer = _tier_rows(space, t, rows)
        cum = np.cumsum(numer)
        before = np.concatenate(([0], cum))[indptr[inv]]
        thr = np.floor(uniforms[:, t] * binom2(n - t)).astype(np.int64)
        e = np.searchsorted(cum, before + thr, side="right")
        cur = cols[np.minimum(e, indptr[inv + 1] - 1)]
        out[:, t + 1] = cur + space.tier_offsets[t + 1] + 1
    return out


def sample_paths(space, count, seed):
    """Draw ``count`` paths with the Kingman kernel; deterministic given seed."""
    if seed is None:
        raise ValidationError("an explicit seed is required")
    rng = np.random.default_rng(seed)
    return _walk_paths(space, rng.random((count, space.n - 2)))


def sample_path(space, seed):
    """One sampled path as a 1-based index tuple."""
    return tuple(int(v) for v in sample_paths(space, 1, seed)[0])
