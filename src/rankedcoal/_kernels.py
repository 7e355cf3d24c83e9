"""Array kernels of the state-space builder and the beta-splitting sampler.

Every function here is a pure function of numpy arrays, whole-array numpy
code with one implementation for every install. The sampler advances every
draw together, one step at a time. Randomness enters only through pre-drawn
uniforms.

State keys pack the binary decremental code into an int64: the decremental
index set D as a bitmask shifted left by 6, plus the external count in the
low 6 bits. Decremental index k (1..n-2) sits at bit n-1-k, so the earliest
index is the highest bit, and within a tier the keys ascend in the
canonical order of the states (lexicographically descending on x).
Shifted down by 7, a key holds mask bit b at sub position b-1; the rank of
a key in its tier (``statespace._tier_rank``) and the ranks of its
successors (``kingman._successors``) are sums over these positions, so no
target key is built or looked up.
"""

import numpy as np


def keys_to_states(keys, n, t, out):
    """Decode packed keys of tier t into state vectors (rows of ``out``)."""
    top = n - 1 - t
    mask = keys >> 6
    c = keys & 63
    out[:] = 0
    run = np.zeros(keys.shape[0], np.int64)
    for k in range(n - 2, 0, -1):
        run += (mask >> (n - 1 - k)) & 1
        if k >= top:
            out[:, k - 1] = run + c
    out[:, n - 2] = c


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
