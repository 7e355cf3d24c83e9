"""Kingman kernel: frozen transition blocks, feasibility, enumeration
against the Euler numbers, and the seeded sampler's law."""

import functools
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.stats import chisquare

from key_oracle import expand_tier
from rankedcoal import CapacityError, ValidationError, kingman
from rankedcoal.fmatrix import fmatrix_to_path, paths_to_fmatrices
from rankedcoal.kingman import (
    edge_table,
    enumerate_paths,
    feasible,
    path_probability,
    sample_paths,
    tier_blocks,
    transition_prob,
    validate_path,
)
from rankedcoal.statespace import enumerate_states

F = Fraction

# Number of ranked unlabelled tree shapes (zigzag numbers), n = 3..10.
SHAPE_COUNTS = {3: 1, 4: 2, 5: 5, 6: 16, 7: 61, 8: 272, 9: 1385, 10: 7936}

# All five n = 5 paths with hand-multiplied probabilities.
N5_PATHS = {
    (1, 2, 3, 5): F(1, 3),
    (1, 2, 3, 7): F(1, 6),
    (1, 2, 4, 5): F(1, 6),
    (1, 2, 4, 6): F(1, 6),
    (1, 2, 4, 7): F(1, 6),
}


def test_feasible_pair_examples():
    assert feasible((0, 0, 4, 3), (0, 3, 2, 2)) == (3, 4)
    assert feasible((0, 0, 4, 3), (0, 3, 2, 1)) == (4, 4)
    assert feasible((0, 3, 2, 2), (2, 1, 1, 0)) is None


def test_feasible_rejects_tier_gap():
    with pytest.raises(ValidationError):
        feasible((0, 0, 0, 5), (0, 3, 2, 2))


def test_transition_prob_examples():
    assert transition_prob((0, 0, 4, 3), (0, 3, 2, 2)) == F(1, 2)
    assert transition_prob((0, 3, 2, 2), (2, 1, 1, 1)) == F(2, 3)
    assert transition_prob((0, 3, 2, 2), (2, 1, 1, 0)) == 0
    assert transition_prob((0, 0, 4, 3), (0, 3, 2, 2), mode="float") == 0.5


def test_n5_blocks_match_hand_kernel(blocks5):
    assert [b.dense().tolist() for b in blocks5] == [
        [[F(1)]],
        [[F(1, 2), F(1, 2)]],
        [[F(2, 3), F(0), F(1, 3)], [F(1, 3), F(1, 3), F(1, 3)]],
    ]


def test_n6_blocks_match_hand_kernel(blocks6):
    assert blocks6[0].dense().tolist() == [[F(1)]]
    assert blocks6[1].dense().tolist() == [[F(4, 10), F(6, 10)]]
    assert blocks6[2].dense().tolist() == [
        [F(3, 6), F(0), F(3, 6), F(0)],
        [F(1, 6), F(2, 6), F(2, 6), F(1, 6)],
    ]
    assert blocks6[3].dense().tolist() == [
        [F(2, 3), F(0), F(0), F(1, 3)],
        [F(1, 3), F(1, 3), F(0), F(1, 3)],
        [F(1, 3), F(0), F(1, 3), F(1, 3)],
        [F(0), F(1, 3), F(1, 3), F(1, 3)],
    ]


def test_tier_blocks_are_built_once_and_read_only():
    space = enumerate_states(7)
    blocks = tier_blocks(space)
    assert tier_blocks(space) is blocks
    for blk in blocks:
        for arr in (blk.indptr, blk.indices, blk.numer):
            with pytest.raises(ValueError):
                arr[0] = 0
    # a new space of the same n builds its own
    assert tier_blocks(enumerate_states(7)) is not blocks


def test_space_calls_take_no_blocks(space6, blocks6):
    """Consumers read the blocks of the space; a stale positional blocks
    argument is refused instead of landing in a later parameter."""
    from rankedcoal.feedforward import nonfixed_moments
    from rankedcoal.phasetype import coalescent_dph

    with pytest.raises(TypeError):
        path_probability(space6, (1, 2, 4, 6, 10), blocks6)
    with pytest.raises(TypeError):
        edge_table(space6, blocks6)
    with pytest.raises(TypeError):
        nonfixed_moments(space6, blocks6)
    with pytest.raises(TypeError):
        coalescent_dph(space6, blocks6)


@pytest.mark.parametrize("n", range(3, 11))
def test_rows_are_stochastic(n):
    space = enumerate_states(n)
    for blk in tier_blocks(space):
        probs = blk.probs()
        for r in range(blk.n_rows):
            assert sum(probs[blk.indptr[r]:blk.indptr[r + 1]]) == 1


def searchsorted_blocks(space):
    """The tier blocks as (indptr, indices, numer), each successor key found
    by binary search in the sorted next tier, as before the closed-form rank."""
    out = []
    for t in range(space.n - 2):
        src, dst, numer = expand_tier(space._tier_keys[t], space.n, t)
        cols = np.searchsorted(space._tier_keys[t + 1], dst)
        order = np.lexsort((cols, src))
        indptr = np.concatenate(([0], np.cumsum(np.bincount(src, minlength=space.tier_size(t)))))
        out.append((indptr, cols[order], numer[order]))
    return out


def test_blocks_match_searchsorted_oracle():
    for n in range(3, 26):
        space = enumerate_states(n)
        for blk, (indptr, indices, numer) in zip(tier_blocks(space), searchsorted_blocks(space)):
            assert np.array_equal(blk.indptr, indptr)
            assert np.array_equal(blk.indices, indices)
            assert np.array_equal(blk.numer, numer)
            assert blk.denom == (n - blk.from_tier) * (n - blk.from_tier - 1) // 2


@functools.lru_cache(maxsize=2)
def _space(n):
    return enumerate_states(n)


@given(n=st.integers(3, 30), tier=st.data(), chunk=st.sampled_from([1, 3, 4096]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_successor_kernel_matches_key_expansion(n, tier, chunk, seed):
    """The closed-form successor ranks against each successor's packed key,
    found by binary search in the next tier. Above 300 rows a tier is
    checked on 300 of them in random order."""
    t = tier.draw(st.integers(0, n - 3))
    space = _space(n)
    size = space.tier_size(t)
    rng = np.random.default_rng(seed)
    rows = rng.permutation(size)[:300]
    src, dst, numer = expand_tier(space._tier_keys[t][rows], n, t)
    oracle = np.stack([src, np.searchsorted(space._tier_keys[t + 1], dst), numer])
    with mock.patch.object(kingman, "ROW_CHUNK", chunk):
        parts = list(kingman._successors(space, t, rows))
    assert all(len(part[0]) <= chunk for part in parts)
    got = np.concatenate([np.stack([np.tile(s, len(nu)), c.ravel(), np.repeat(nu, len(s))])
                          for s, c, nu in parts], axis=1)
    assert np.array_equal(oracle[:, np.lexsort(oracle[::-1])], got[:, np.lexsort(got[::-1])])


def test_blocks_agree_with_pairwise_probabilities(space6):
    """Every block entry equals the vector-level transition probability.

    This pits the packed-key expansion against the independent
    decremental-code feasibility check, over all tier-adjacent pairs.
    """
    table = edge_table(space6)
    for t in range(space6.num_tiers - 1):
        rows = space6.tier_slice(t)
        cols = space6.tier_slice(t + 1)
        for r in range(rows.start, rows.stop):
            lo, hi = table.indptr[r], table.indptr[r + 1]
            denom = int(table.denom_state[r])
            row = {int(c): F(int(p), denom) for c, p in zip(table.cols[lo:hi], table.numer[lo:hi])}
            assert set(row) <= set(range(cols.start, cols.stop))
            for c in range(cols.start, cols.stop):
                direct = transition_prob(space6.state(r + 1), space6.state(c + 1))
                assert row.get(c, 0) == direct


@pytest.mark.parametrize("n", range(3, 9))
def test_enumeration_counts_and_total_mass(n):
    space = enumerate_states(n)
    results = enumerate_paths(space)
    assert len(results) == SHAPE_COUNTS[n]
    assert sum(prob for _, prob in results) == 1
    paths = [p for p, _ in results]
    assert paths == sorted(paths)


def test_n5_paths_exact(space5):
    assert dict(enumerate_paths(space5)) == N5_PATHS
    assert path_probability(space5, (1, 2, 3, 5)) == F(1, 3)


def test_enumeration_cap():
    space = enumerate_states(13)
    with pytest.raises(CapacityError):
        enumerate_paths(space)


def test_validate_path_errors(space5):
    with pytest.raises(ValidationError):
        validate_path(space5, (1, 2, 3))
    with pytest.raises(ValidationError):
        validate_path(space5, (2, 3, 5, 6))
    with pytest.raises(ValidationError):
        validate_path(space5, (1, 3, 5, 6))
    with pytest.raises(ValidationError):
        validate_path(space5, (1, 2, 3, 6))


def test_sampling_is_deterministic(space5):
    a = sample_paths(space5, 50, seed=123)
    b = sample_paths(space5, 50, seed=123)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, sample_paths(space5, 50, seed=124))
    assert np.array_equal(sample_paths(space5, 1, seed=123)[0], a[0])
    with pytest.raises(ValidationError):
        sample_paths(space5, 10, seed=None)


def test_sampled_paths_are_feasible():
    """The sampler draws only feasible paths, so their F-matrices may be
    gathered without re-validation; each must invert to its path."""
    for n in (5, 6, 10, 25):
        space = enumerate_states(n)
        paths = sample_paths(space, 200, seed=5)
        for row, fmat in zip(paths, paths_to_fmatrices(space, paths)):
            path = validate_path(space, row)
            assert fmatrix_to_path(space, fmat) == path


def test_n4_cherry_frequency(space4):
    """The path through (2, 1, 1) carries probability 2/3."""
    idx = space4.index_of((2, 1, 1))
    draws = sample_paths(space4, 20000, seed=11)
    freq = float(np.mean(draws[:, 2] == idx))
    assert abs(freq - 2 / 3) < 0.015


def test_n5_sampler_matches_enumeration(space5):
    draws = sample_paths(space5, 20000, seed=7)
    order = sorted(N5_PATHS)
    counts = {p: 0 for p in order}
    for row in draws:
        counts[tuple(int(v) for v in row)] += 1
    observed = [counts[p] for p in order]
    expected = [float(N5_PATHS[p]) * len(draws) for p in order]
    assert chisquare(observed, expected).pvalue > 0.01
