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
from ._kernels import beta_sample_grid
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


def sample_beta_fmatrices(config, count):
    """A list of ``count`` F-matrices from one seeded stream."""
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
