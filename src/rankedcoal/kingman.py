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
from .statespace import RankedState, _rank_table, diff_encoding

PATH_ENUM_MAX_N = 12
# Source rows per chunk of the successor kernel ``_successors``.
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
        """Float CSR matrix of the transition probabilities. scipy copies
        the index arrays to int32 where they fit, and a product only reads
        them, so the read-only block arrays go in uncopied."""
        import scipy.sparse

        return scipy.sparse.csr_matrix(
            (self.probs("float"), self.indices, self.indptr),
            shape=(self.n_rows, self.n_cols),
        )

    def dense(self, mode="rational"):
        """Dense block; object array of Fractions in rational mode."""
        out = zeros((self.n_rows, self.n_cols), mode)
        out[self.rows(), self.indices] = self.probs(mode)
        return out


def merges(states):
    """The merged pair of every step of a run of states on consecutive tiers.

    Row r+1 of the (m, n-1) array ``states`` is meant to follow row r by one
    coalescence. Returns an (m-1, 2) int64 array whose row r holds the
    1-based decremental indices (i, k), i <= k, of the pair that merges from
    row r to row r+1 (index n-1 is an external lineage), or (0, 0) when no
    pair does. The pair solves d(x) - d(y) + e_nu = e_i + e_k, where d is
    the code (decremental bits, then the external count) and nu = max(x) - 2
    = n-2-t is the decremental index of the lineage the merge creates.

    An int32 array is read as it is, and anything else as int64.
    """
    x = np.asarray(states)
    if x.dtype != np.int32:
        x = x.astype(np.int64, copy=False)
    n = x.shape[1] + 1
    code = np.concatenate([np.maximum(x[:, :-1] - x[:, 1:], 0), x[:, -1:]], axis=1)
    diff = code[:-1] - code[1:]
    diff[np.arange(len(diff)), x[:-1].max(axis=1) - 3] += 1
    # two units on two indices, or both on the external index
    ok = (diff.sum(axis=1) == 2) & (diff.min(axis=1) >= 0) & (diff[:, :-1].max(axis=1) <= 1)
    hit = diff > 0
    pairs = np.stack([hit.argmax(axis=1) + 1, n - 1 - hit[:, ::-1].argmax(axis=1)], axis=1)
    return pairs * ok[:, None]


def feasible(x, y):
    """The unique coalescence pair (i, k) turning state x into state y.

    Accepts RankedState objects or raw vectors; refuses vectors of
    different n, invalid vectors and a tier gap. Returns None when no pair
    merges x into y (see ``merges``).
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
    diff_encoding(xv)
    diff_encoding(yv)
    i, k = merges([xv, yv])[0].tolist()
    return (i, k) if i else None


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


def _successors(space, t, rows=None):
    """Coalescence successors of the tier-t states ``rows`` (canonical local
    indices in an index array; all if None).

    Yields (src, cols, numer) for at most ROW_CHUNK rows of one popcount
    class d at a time: src indexes ``rows``, cols[e, r] is the canonical
    local index in tier t+1 of the e-th successor of row src[r], and
    numer[e] its Kingman numerator over C(n-t, 2), alike for the class.

    A row's d mask bits sit at sub positions b_0 > ... > b_{d-1} of tier
    t+1. Tier t+1's codes ascend with their sub positions, which hold at
    most R = n-t-2 bits, so a code ranks as the number of such subsets
    below its own: sum_l N(b_l, R - l) over its bits, the subsets that
    agree with it above b_l, leave b_l out and fill the b_l positions below
    with at most R - l bits (N is ``statespace._rank_table``). A merge
    removes bits and shifts the later l down, so with
    F_k[m] = sum_{l<m} N(b_l, R - l + k), bits i < j merge to
    F_0[i] - F_1[i+1] + F_1[j] - F_2[j+1] + F_2[d], bit i and an external
    lineage to F_0[i] - F_1[i+1] + F_1[d], two externals to F_0[d].
    """
    n = space.n
    keys = space._tier_keys[t] if rows is None else space._tier_keys[t][rows]
    table = _rank_table(n)
    # a tier-t code with d mask bits has c = n-t-d external lineages
    ext = keys & 63
    for c in np.flatnonzero(np.bincount(ext)).tolist():
        d = n - t - c
        ia, ib = np.triu_indices(d, 1)
        numer = np.repeat(np.array([1, c, c * (c - 1) // 2], np.int64),
                          [len(ia), d * (c >= 1), c >= 2])
        # flat index of N(0, R - l + k), l = 0..d-1, k = 0, 1, 2 (r = -1 reads 0)
        look = n - t - 2 + np.arange(3)[:, None] - np.arange(d)[:, None, None]
        members = np.flatnonzero(ext == c)
        for lo in range(0, len(members), ROW_CHUNK):
            src = members[lo:lo + ROW_CHUNK]
            sub = keys[src] >> 7
            # prefix[m, k] = F_k[m]: each step adds whole contiguous rows
            prefix = np.zeros((d + 1, 3, len(src)), np.int64)
            for l in range(d - 1, -1, -1):
                low = sub & -sub
                sub ^= low
                bit = np.frexp(low.astype(np.float64))[1] - 1
                prefix[l + 1] = table.take(bit * table.shape[1] + look[l])
            for l in range(d):
                prefix[l + 1] += prefix[l]
            f0, f1, f2 = prefix.transpose(1, 0, 2)
            head = f0[:-1] - f1[1:]
            cols = np.concatenate([head[ia] + (f1[:-1] - f2[1:] + f2[d])[ib], head + f1[d], f0[d:]])
            # with fewer than two external lineages the last merges are absent
            yield src, cols[:len(numer)], numer


def _tier_rows(space, t, rows=None):
    """Out-edges of the tier-t states ``rows`` (canonical local indices; all if None).

    Returns (indptr, cols, numer) over ``rows`` in the given order, each row
    ordered by target column (canonical local index in tier t+1).
    """
    keys = space._tier_keys[t] if rows is None else space._tier_keys[t][rows]
    c = keys & 63
    d = space.n - t - c
    # pairs of mask bits, each bit with an external lineage, two externals
    indptr = np.concatenate(([0], np.cumsum(d * (d - 1) // 2 + d * (c >= 1) + (c >= 2))))
    cols = np.empty(indptr[-1], np.int64)
    numer = np.empty(indptr[-1], np.int64)
    for src, succ, num in _successors(space, t, rows):
        order = np.argsort(succ.T, axis=1)
        at = indptr[src, None] + np.arange(len(num))
        cols[at] = np.take_along_axis(succ.T, order, axis=1)
        numer[at] = num[order]
    return indptr, cols, numer


def tier_edges(space, t, rows):
    """The out-edges of the tier-t states ``rows`` (an index array of
    canonical local indices) as (src, dst) local indices, at most ROW_CHUNK
    source rows at a time, without building the tier's block. Chunks hold
    rows of one popcount class each, so neither the rows nor the targets of
    a row come in order."""
    for src, cols, _ in _successors(space, t, rows):
        yield np.tile(rows[src], len(cols)), cols.ravel()


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
    pairs = merges(space.states[np.array(path) - 1])
    bad = np.flatnonzero(pairs[:, 0] == 0)
    if len(bad):
        t = int(bad[0])
        raise ValidationError(f"infeasible transition {path[t]} -> {path[t + 1]} at step {t}")
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
    """Draw ``count`` paths with the Kingman kernel; deterministic given seed,
    an int or a ``numpy.random.Generator`` to draw from."""
    if seed is None:
        raise ValidationError("an explicit seed is required")
    rng = np.random.default_rng(seed)
    return _walk_paths(space, rng.random((count, space.n - 2)))
