"""Beta-splitting tree sampler (Blum-Francois) for the power studies.

Shapes are built by recursive (i, k-i) splits with weights
Gamma(b+1+i)Gamma(b+1+k-i) / (Gamma(i+1)Gamma(k-i+1)); ranks follow a
uniform random linear extension of the node poset, realized forward in
time by picking the next block to split with probability proportional
to size - 1. At b = 0 this reproduces the Kingman ranked-shape law.

The batch kernel keeps, per tree, only the birth rank of the block each
event splits (n-1 integers), the split record; the F-matrix follows from
it by counting (see ``fmatrix._split_counts``).
"""

from dataclasses import dataclass
from functools import lru_cache
from math import inf, isfinite, lgamma

import numpy as np

from ._common import ValidationError
from .fmatrix import FMatrix, _nonfixed_index, _split_counts, fmatrix_entries

# The sampler runs GRID_CELLS // (n+3)^2 trees per block (2,674 at n = 25).
# A block of F-matrices peaks at two int64 copies of its F entries,
# 16(n-1)^2 bytes per tree (9.2 KB at n = 25, under 32 MiB a block at any
# n); the split record and the kernel's state take about 45n bytes per
# tree, and the statistics path holds one copy of F.
GRID_CELLS = 1 << 21
# A log weight of ``split_weights`` sums four lgammas, and a weight's
# relative error is about the difference of two such logs. At 7,267 random
# (beta, k) that the check accepts, beta in (-1.9, 1e9) and k <= 80, it
# was at most 2.2 x 2^-52 (|lgamma(beta + 2)| + |lgamma(beta + k)| +
# lgamma(k + 1)) against exact Fraction weights; LOG_ERROR = 2^-49 leaves a
# factor of three. The bound passes WEIGHT_TOL from beta = 1.79e7 at n <= 60.
LOG_ERROR = 2.0 ** -49
# Near beta = -2 the argument beta + 1 + k - i of the last weight is about
# beta + 2, but it is computed as (beta + 1 + k) - i and keeps the rounding
# of beta + 1 + k, up to (k - 1) 2^-53. lgamma's slope there is about
# -1 / (beta + 2), so that weight errs by up to about (k - 1) 2^-53 / (beta + 2).
# At 1,320 (beta, k), beta in (-2 + 1e-15, -2 + 1e-5) and k <= 60, the error
# beyond the LOG_ERROR bound was at most 0.56 of that; CANCEL_ERROR =
# 2^-52 leaves a factor of 3.6. This bound passes WEIGHT_TOL within
# 2.2e-10 (k - 1) of -2.
CANCEL_ERROR = 2.0 ** -52
WEIGHT_TOL = 1e-6


@dataclass(frozen=True)
class BetaConfig:
    beta: float
    n: int
    seed: int

    def __post_init__(self):
        if self.n < 3:
            raise ValidationError(f"n must be >= 3, got {self.n}")
        check_beta(self.beta, self.n)


def check_beta(beta, k):
    """Refuse a beta for which ``split_weights`` cannot be computed on
    blocks of up to k leaves: one that is not finite and above -2, one on
    which a sum of two lgammas there overflows, or one whose weights may err
    by more than WEIGHT_TOL. lgamma is convex, so the largest sum is at the
    ends, lgamma(beta + 2) + lgamma(beta + k), which grows with k wherever
    it can overflow, and so do the error bounds of LOG_ERROR and
    CANCEL_ERROR: one O(1) check at n covers every block of a tree, and
    fills no cache."""
    if not (beta > -2 and isfinite(beta)):
        raise ValidationError(f"beta must be finite and exceed -2, got {beta}")
    k = max(k, 2)
    try:
        ends = abs(lgamma(beta + 2)) + abs(lgamma(beta + k))
    except OverflowError:
        ends = inf
    if not isfinite(ends):
        raise ValidationError(f"beta = {beta} is too large: its split weights overflow")
    if LOG_ERROR * (ends + lgamma(k + 1)) + CANCEL_ERROR * (k - 1) / (beta + 2) > WEIGHT_TOL:
        raise ValidationError(
            f"beta = {beta} is too {'close to -2' if beta < -1 else 'large'} at n = {k}: "
            f"its split weights cannot be computed to a relative {WEIGHT_TOL:g}"
        )


@lru_cache(maxsize=4096)
def split_weights(beta, k):
    """P(left part = i), i = 1..k-1, for a block of k leaves; ``check_beta``
    refuses a beta it cannot compute."""
    check_beta(beta, k)
    if k < 2:
        raise ValidationError(f"split requires a block of size >= 2, got {k}")
    logs = np.array([
        lgamma(beta + 1 + i) + lgamma(beta + 1 + k - i)
        - lgamma(i + 1) - lgamma(k - i + 1)
        for i in range(1, k)
    ])
    w = np.exp(logs - logs.max())
    w /= w.sum()
    w.setflags(write=False)  # shared by every caller through the cache
    return w


def _cumulative_table(beta, n):
    """cumw[k, i] = P(left part <= i) rows for every block size k <= n."""
    cumw = np.zeros((n + 1, max(n, 2)))
    for k in range(2, n + 1):
        cumw[k, 1:k] = np.cumsum(split_weights(beta, k))
        cumw[k, k - 1] = 1.0
    return cumw


def beta_split_ranks(n, cumw, uniforms):
    """Sample beta-splitting ranked shapes as their split records.

    cumw[k, i] is the cumulative split law for a block of k leaves
    (cumw[k, k-1] = 1). Each tree consumes one row of the (m, 2(n-1))
    ``uniforms``: a block pick and a split pick per event. The trees
    advance together, one split event at a time. Event ev = 2..n splits
    one block; the node it creates has rank ev, and both parts are born
    at rank ev. Returns P of shape (n-1, m), trees along the last axis:
    P[ev-2, r] is the birth rank of the block that event ev splits in
    tree r (0 for the root block). ``fmatrix_entries`` reads F from it.
    """
    m = uniforms.shape[0]
    cols = np.arange(m)
    # pad[c, k-1] = cumw[k, c+1] for c < k-2 and +inf after, so the left
    # part 1 + #{c : u >= pad[c, k-1]} is where a scan of the law stops
    pad = np.where(np.arange(n - 2)[:, None] < np.arange(n) - 1,
                   cumw[1:n + 1, 1:n - 1].T, np.inf)
    # Block b is picked with probability (size_b - 1) / remaining: it is
    # the first whose prefix sum of (size - 1) exceeds the target, or the
    # count of prefix sums at or below it. A target at or past the total
    # (u = 1) picks the last block of size > 1, which is the count of
    # prefix sums below the total; capping the target at total - 1/2
    # makes both the same count.
    remaining = np.arange(n - 1, 0, -1)[:, None]
    u = uniforms.T
    targets = np.minimum(u[0::2] * remaining, remaining - 0.5)
    splits = u[1::2]
    spare = np.zeros((n, m), np.int64)  # size - 1 of each block
    born = np.zeros((n, m), np.int64)
    spare[0] = n - 1
    ranks = np.empty((n - 1, m), np.int64)
    for ev in range(2, n + 1):
        nb = ev - 1
        at = (spare[:nb].cumsum(axis=0) <= targets[ev - 2]).sum(axis=0)
        at *= m
        at += cols  # flat index of the picked block
        k1 = spare.take(at)
        born.take(at, out=ranks[ev - 2])
        # no block has more than n - ev + 2 leaves: n - ev rows of pad suffice
        left1 = (splits[ev - 2] >= pad[:n - ev].take(k1, axis=1)).sum(axis=0)
        spare.put(at, left1)
        spare[nb] = k1 - 1 - left1
        born.put(at, ev)
        born[nb] = ev
    return ranks


def block_sizes(count, n):
    """Sizes of the successive blocks of ``count`` trees at n, GRID_CELLS //
    (n+3)^2 each but the last, so memory does not grow with the count. Blocks
    drawn in turn from one Generator give the stream of one draw."""
    rows = max(1, GRID_CELLS // (n + 3) ** 2)
    for lo in range(0, count, rows):
        yield min(rows, count - lo)


def _sample_blocks(config, uniforms):
    """(first row, split record) for the successive blocks of rows of
    ``uniforms`` (``block_sizes``); see ``beta_split_ranks``."""
    n = config.n
    cumw = _cumulative_table(config.beta, n)
    lo = 0
    for size in block_sizes(len(uniforms), n):
        yield lo, beta_split_ranks(n, cumw, uniforms[lo:lo + size])
        lo += size


def _fmatrices(config, uniforms):
    n = config.n
    out = []
    for _, ranks in _sample_blocks(config, uniforms):
        out.extend(FMatrix(n=n, entries=e) for e in fmatrix_entries(ranks))
    return out


def sample_beta_fmatrices(config, count, rng=None):
    """A list of ``count`` F-matrices from one seeded stream (``rng``, or a
    new one seeded with ``config.seed``)."""
    if rng is None:
        rng = np.random.default_rng(config.seed)
    return _fmatrices(config, rng.random((count, 2 * (config.n - 1))))


def sample_beta_stats(config, count, rng=None):
    """(S, E, non-fixed entries) per tree, without building F-matrices.

    Draws the same stream as ``sample_beta_fmatrices``; the power harness
    runs on this path.
    """
    n = config.n
    if rng is None:
        rng = np.random.default_rng(config.seed)
    i, j = _nonfixed_index(n)
    e = np.empty(count, np.int64)
    nf = np.empty((count, len(i)), np.int32)
    for lo, ranks in _sample_blocks(config, rng.random((count, 2 * (n - 1)))):
        f = _split_counts(ranks)
        hi = lo + ranks.shape[1]
        e[lo:hi] = f[n - 2].sum(axis=0)
        nf[lo:hi] = f[i, j].T
    return nf.sum(axis=1, dtype=np.int64), e, nf
