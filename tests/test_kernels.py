"""The whole-array samplers against the per-draw loops they replaced.

The two loop kernels below are kept only as oracles: they walk one tree or
path at a time, the path loop over the whole edge table, exactly as the
samplers used to. The vectorised samplers must reproduce them bit for bit
from the same uniforms, including uniforms of exactly 0, just below 1 and
exactly 1 (which reaches the fallback block pick and the cumw[k, k-1] = 1
end of a split law).
"""

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from test_betasplit import _closest_accepted_to_minus_two

from rankedcoal import betasplit
from rankedcoal.betasplit import (
    BetaConfig,
    _cumulative_table,
    beta_split_ranks,
    sample_beta_fmatrices,
    sample_beta_stats,
)
from rankedcoal.fmatrix import fmatrix_entries, nonfixed_positions
from rankedcoal.kingman import _walk_paths, edge_table
from rankedcoal.statespace import enumerate_states

JUST_BELOW_ONE = np.nextafter(1.0, 0.0)


def loop_sample_paths(indptr, cols, numer, denom, n, uniforms):
    count = uniforms.shape[0]
    out = np.empty((count, n - 1), np.int64)
    for r in range(count):
        cur = 0
        out[r, 0] = 0
        for t in range(n - 2):
            target = uniforms[r, t] * denom[cur]
            acc = 0.0
            e = indptr[cur]
            last = indptr[cur + 1] - 1
            while e < last:
                acc += numer[e]
                if acc > target:
                    break
                e += 1
            cur = cols[e]
            out[r, t + 1] = cur
    return out


def nonfixed_index_table(n):
    """pos[i, j] -> row-wise index of the non-fixed entry F_ij."""
    table = np.full((n, n), -1, dtype=np.int64)
    for a, (i, j) in enumerate(nonfixed_positions(n)):
        table[i, j] = a
    return table


def loop_beta_sample_stats(n, cumw, uniforms, pos_table, fmats=None):
    """(S, E, non-fixed entries) per tree; also fills ``fmats``, an
    (m, n-1, n-1) int64 array of zeros, with the F-matrices if given."""
    m = uniforms.shape[0]
    q = (n - 2) * (n - 3) // 2
    s_out = np.zeros(m, np.int64)
    e_out = np.zeros(m, np.int64)
    nf = np.zeros((m, q), np.int32)
    sizes = np.empty(n + 1, np.int64)
    parents = np.empty(n + 1, np.int64)
    grid = np.zeros((n + 3, n + 3), np.int64)
    for r in range(m):
        grid[:] = 0
        nb = 1
        sizes[0] = n
        parents[0] = 0
        for ev in range(2, n + 1):
            remaining = n - ev + 1
            target = uniforms[r, 2 * (ev - 2)] * remaining
            pick = -1
            acc = 0.0
            for b in range(nb):
                w = sizes[b] - 1
                if w > 0:
                    if acc + w > target:
                        pick = b
                        break
                    acc += w
            if pick < 0:
                for b in range(nb - 1, -1, -1):
                    if sizes[b] > 1:
                        pick = b
                        break
            k = sizes[pick]
            if parents[pick] > 0:
                grid[parents[pick], ev] += 1
            u2 = uniforms[r, 2 * (ev - 2) + 1]
            i = 1
            while i < k - 1 and u2 >= cumw[k, i]:
                i += 1
            sizes[pick] = i
            parents[pick] = ev
            sizes[nb] = k - i
            parents[nb] = ev
            nb += 1
        for b in range(nb):
            grid[parents[b], n + 1] += 1
        for a in range(2, n + 1):
            for b in range(n, 1, -1):
                grid[a, b] += grid[a, b + 1]
        for a in range(3, n + 1):
            for b in range(2, n + 2):
                grid[a, b] += grid[a - 1, b]
        if fmats is not None:
            for i in range(1, n):
                for j in range(1, i + 1):
                    fmats[r, i - 1, j - 1] = grid[j + 1, i + 2]
        for j in range(1, n):
            e_out[r] += grid[j + 1, n + 1]
        for i in range(3, n):
            for j in range(1, i - 1):
                v = grid[j + 1, i + 2]
                s_out[r] += v
                nf[r, pos_table[i, j]] += v
    return s_out, e_out, nf


def _uniforms(rng, count, width):
    """Random uniforms with whole rows and single cells at the extremes."""
    u = rng.random((count, width))
    u[0] = 0.0
    u[1] = JUST_BELOW_ONE
    u[2] = 1.0
    u[3, ::2] = 0.0
    u[4, 1::2] = JUST_BELOW_ONE
    cells = rng.integers(0, u.size, size=u.size // 10)
    u.flat[cells] = rng.choice([0.0, JUST_BELOW_ONE, 1.0], size=len(cells))
    return u


def _assert_kernel_matches_loop(n, beta, uniforms):
    cumw = _cumulative_table(beta, n)
    want = np.zeros((len(uniforms), n - 1, n - 1), np.int64)
    s, e, nf = loop_beta_sample_stats(n, cumw, uniforms, nonfixed_index_table(n), fmats=want)
    f = fmatrix_entries(beta_split_ranks(n, cumw, uniforms))
    assert f.dtype == want.dtype and np.array_equal(f, want)
    i, j = np.array(nonfixed_positions(n), dtype=np.int64).reshape(-1, 2).T
    assert np.array_equal(f[:, i - 1, j - 1], nf)
    assert np.array_equal(f[:, i - 1, j - 1].sum(axis=1), s)
    assert np.array_equal(f[:, n - 2].sum(axis=1), e)


@pytest.mark.parametrize("n", [3, 4, 10, 25])
@pytest.mark.parametrize("beta", [-1.9, -1.0, 0.0, 2.5, 1000.0])
def test_beta_grid_matches_loop_kernel(beta, n):
    """The split-record kernel, read through ``fmatrix_entries``, against
    the loop that builds each tree's edge grid."""
    rng = np.random.default_rng(1000 * n + int(beta * 10))
    _assert_kernel_matches_loop(n, beta, _uniforms(rng, 300, 2 * (n - 1)))


@st.composite
def _n_and_accepted_beta(draw):
    """n in 3..30 and a beta up to 1000 that ``check_beta`` accepts at n."""
    n = draw(st.integers(3, 30))
    return n, draw(st.floats(_closest_accepted_to_minus_two(n), 1000.0))


@given(n_beta=_n_and_accepted_beta(),
       seed=st.integers(0, 2 ** 32 - 1),
       extremes=st.floats(0.0, 1.0))
@example(n_beta=(3, _closest_accepted_to_minus_two(3)), seed=0, extremes=0.5)
@example(n_beta=(30, _closest_accepted_to_minus_two(30)), seed=1, extremes=0.5)
def test_split_ranks_give_the_loop_kernels_fmatrices(n_beta, seed, extremes):
    n, beta = n_beta
    rng = np.random.default_rng(seed)
    u = rng.random((20, 2 * (n - 1)))
    cells = rng.random(u.shape) < extremes
    u[cells] = rng.choice([0.0, JUST_BELOW_ONE, 1.0], size=int(cells.sum()))
    _assert_kernel_matches_loop(n, beta, u)


@pytest.mark.parametrize("n", [3, 4, 5, 10, 25])
def test_sample_paths_matches_loop_kernel(n):
    space = enumerate_states(n)
    table = edge_table(space)
    rng = np.random.default_rng(n)
    uniforms = _uniforms(rng, 400, n - 2)
    expected = loop_sample_paths(table.indptr, table.cols, table.numer, table.denom_state, n, uniforms)
    assert np.array_equal(_walk_paths(n, uniforms), expected + 1)


def test_sample_beta_stats_matches_loop_kernel_across_batches(monkeypatch):
    n, count = 10, 50
    config = BetaConfig(beta=-1.0, n=n, seed=5)
    expected = loop_beta_sample_stats(
        n, _cumulative_table(-1.0, n),
        np.random.default_rng(5).random((count, 2 * (n - 1))), nonfixed_index_table(n),
    )
    whole = sample_beta_fmatrices(config, count)
    # seven trees per batch
    monkeypatch.setattr(betasplit, "GRID_CELLS", 7 * (n + 3) ** 2)
    for got, want in zip(sample_beta_stats(config, count), expected):
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)
    assert sample_beta_fmatrices(config, count) == whole
