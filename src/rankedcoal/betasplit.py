"""Beta-splitting tree sampler (Blum-Francois) for the power studies.

Shapes are built by recursive (i, k-i) splits with weights
Gamma(b+1+i)Gamma(b+1+k-i) / (Gamma(i+1)Gamma(k-i+1)); ranks follow a
uniform random linear extension of the node poset, realized forward in
time by picking the next block to split with probability proportional
to size - 1. At b = 0 this reproduces the Kingman ranked-shape law.
"""

from dataclasses import dataclass
from functools import lru_cache
from math import lgamma

import numpy as np

from ._common import ValidationError
from .fmatrix import FMatrix, nonfixed_positions

# Grid entries per batch of trees: 16 MB of int64.
GRID_CELLS = 1 << 21


@dataclass(frozen=True)
class BetaConfig:
    beta: float
    n: int
    seed: int

    def __post_init__(self):
        if not self.beta > -2:
            raise ValidationError(f"beta must exceed -2, got {self.beta}")
        if self.n < 3:
            raise ValidationError(f"n must be >= 3, got {self.n}")


@lru_cache(maxsize=4096)
def split_weights(beta, k):
    """P(left part = i), i = 1..k-1, for a block of k leaves."""
    if not beta > -2:
        raise ValidationError(f"beta must exceed -2, got {beta}")
    if k < 2:
        raise ValidationError(f"split requires a block of size >= 2, got {k}")
    logs = np.array([
        lgamma(beta + 1 + i) + lgamma(beta + 1 + k - i)
        - lgamma(i + 1) - lgamma(k - i + 1)
        for i in range(1, k)
    ])
    w = np.exp(logs - logs.max())
    return w / w.sum()


def _cumulative_table(beta, n):
    """cumw[k, i] = P(left part <= i) rows for every block size k <= n."""
    cumw = np.zeros((n + 1, max(n, 2)))
    for k in range(2, n + 1):
        cumw[k, 1:k] = np.cumsum(split_weights(beta, k))
        cumw[k, k - 1] = 1.0
    return cumw


def beta_sample_grid(n, cumw, uniforms):
    """Sample beta-splitting ranked shapes as cumulative edge grids.

    cumw[k, i] is the cumulative split law for a block of k leaves
    (cumw[k, k-1] = 1). Each tree consumes one row of ``uniforms``
    (2(n-1) values: a block pick and a split pick per event); the trees
    advance together, one split event at a time. Returns grid of shape
    (m, n+3, n+3) where grid[r, a, b] counts the edges of tree r with parent
    rank <= a and child rank >= b (leaves have rank n+1), so that
    F_ij = grid[r, j+1, i+2].
    """
    m = uniforms.shape[0]
    rows = np.arange(m)
    cols = np.arange(cumw.shape[1])
    sizes = np.zeros((m, n), np.int64)
    parents = np.zeros((m, n), np.int64)
    sizes[:, 0] = n
    grid = np.zeros((m, n + 3, n + 3), np.int64)
    for ev in range(2, n + 1):
        nb = ev - 1
        # Block b is picked with probability (size_b - 1) / remaining.
        target = uniforms[:, 2 * (ev - 2)] * (n - ev + 1)
        hit = np.cumsum(np.maximum(sizes[:, :nb] - 1, 0), axis=1) > target[:, None]
        pick = hit.argmax(axis=1)
        miss = ~hit[rows, pick]
        if miss.any():
            pick[miss] = nb - 1 - (sizes[miss, nb - 1::-1] > 1).argmax(axis=1)
        k = sizes[rows, pick]
        par = parents[rows, pick]
        inner = par > 0
        grid[rows[inner], par[inner], ev] += 1
        # Left part: 1 + #{1 <= i < k-1 : u >= cumw[k, i]}; rows of cumw do
        # not decrease, so this is where a linear scan would stop.
        u2 = uniforms[:, 2 * (ev - 2) + 1]
        below = (u2[:, None] >= cumw[k]) & (cols >= 1) & (cols < k[:, None] - 1)
        left = 1 + below.sum(axis=1)
        sizes[rows, pick] = left
        parents[rows, pick] = ev
        sizes[:, nb] = k - left
        parents[:, nb] = ev
    np.add.at(grid, (rows[:, None], parents, n + 1), 1)
    return grid[:, :, ::-1].cumsum(axis=2)[:, :, ::-1].cumsum(axis=1)


def _sample_grids(config, uniforms):
    """(first row, cumulative edge grids) for successive blocks of rows of
    ``uniforms``; see ``beta_sample_grid``. Blocks hold about GRID_CELLS
    grid entries, so memory does not grow with the tree count."""
    n = config.n
    cumw = _cumulative_table(config.beta, n)
    rows = max(1, GRID_CELLS // (n + 3) ** 2)
    for lo in range(0, len(uniforms), rows):
        yield lo, beta_sample_grid(n, cumw, uniforms[lo:lo + rows])


def _fmatrices(config, uniforms):
    n = config.n
    i, j = np.tril_indices(n - 1)
    out = []
    for _, grid in _sample_grids(config, uniforms):
        entries = np.zeros((len(grid), n - 1, n - 1), dtype=np.int64)
        # F_ij = #edges with parent rank <= j+1 and child rank >= i+2
        entries[:, i, j] = grid[:, j + 2, i + 3]
        out.extend(FMatrix(n=n, entries=e) for e in entries)
    return out


def sample_beta_tree(config, rng=None):
    """One F-matrix drawn from the model; deterministic given the seed."""
    if rng is None:
        rng = np.random.default_rng(config.seed)
    return _fmatrices(config, rng.random((1, 2 * (config.n - 1))))[0]


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
    i, j = np.array(nonfixed_positions(n), dtype=np.int64).reshape(-1, 2).T
    e = np.zeros(count, np.int64)
    nf = np.zeros((count, len(i)), np.int32)
    for lo, grid in _sample_grids(config, rng.random((count, 2 * (n - 1)))):
        e[lo:lo + len(grid)] = grid[:, 2:n + 1, n + 1].sum(axis=1)
        nf[lo:lo + len(grid)] = grid[:, j + 1, i + 2]
    return nf.sum(axis=1, dtype=np.int64), e, nf
