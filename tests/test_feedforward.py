"""Feed-forward moment engine: tier products against hand-computed n = 6
vectors, and full equivalence with enumeration and the dense engine."""

from fractions import Fraction
from itertools import combinations_with_replacement

import numpy as np
import pytest

from rankedcoal import ValidationError
from rankedcoal.feedforward import (
    assemble,
    nonfixed_means,
    nonfixed_moments,
    pi_U,
    right_products,
    se_moments,
)
from rankedcoal.fmatrix import nonfixed_positions, path_to_fmatrix
from rankedcoal.kingman import enumerate_paths, tier_blocks
from rankedcoal.phasetype import build_rewards, coalescent_dph, mdph_cross_moment, reward_moments
from rankedcoal.statespace import enumerate_states

F = Fraction

PI_U_5 = [1, 1, F(1, 2), F(1, 2), F(1, 2), F(1, 6), F(1, 3)]
PI_U_6 = [
    1, 1, F(4, 10), F(6, 10),
    F(3, 10), F(2, 10), F(4, 10), F(1, 10),
    F(4, 10), F(1, 10), F(1, 6), F(2, 6),
]

R_42 = [0, 0, 0, 0, 2, 2, 1, 1, 0, 0, 0, 0]
R_51 = [0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0]
UD_42 = [F(3, 2), F(3, 2), F(3, 2), F(3, 2), 2, 2, 1, 1, 0, 0, 0, 0]
UD_51 = [F(4, 10), F(4, 10), F(1, 2), F(1, 3), F(2, 3), F(1, 3), F(1, 3), 0, 1, 0, 0, 0]

N6_MEANS = [F(2, 3), F(1, 2), F(3, 2), F(2, 5), F(6, 5), F(12, 5)]

N5_MEAN = [F(2, 3), F(1, 2), F(3, 2)]
N5_COV = [
    [F(2, 9), F(1, 6), 0],
    [F(1, 6), F(1, 4), F(1, 12)],
    [0, F(1, 12), F(1, 4)],
]


def test_pi_u_goldens(space5, space6):
    assert list(pi_U(space5)) == PI_U_5
    assert list(pi_U(space6)) == PI_U_6


def test_right_products_goldens(blocks6):
    got = assemble(blocks6, right_products(blocks6, R_42))
    assert list(got) == UD_42
    got = assemble(blocks6, right_products(blocks6, R_51))
    assert list(got) == UD_51


def test_right_products_edge_cases(blocks6):
    assert right_products(blocks6, [0] * 12) == []
    two_tier = [0, 0, 1, 0, 1, 0, 0, 0, 0, 0, 0, 0]
    with pytest.raises(ValidationError):
        right_products(blocks6, two_tier)
    # a float reward is converted exactly, not truncated
    half = np.zeros(12)
    half[8] = 0.5
    exact = right_products(blocks6, half)
    assert list(exact[0].values) == [F(1, 2), 0, 0, 0] and exact[-1].values[0] == F(1, 5)
    for e, a in zip(exact, right_products(blocks6, half, mode="float"), strict=True):
        assert np.allclose([float(v) for v in e.values], a.values, rtol=1e-15, atol=0)


def test_pi_u_tiers_sum_to_one(space6):
    """pi T^k is a law on tier k: every tier's segment of pi U sums to 1."""
    piu = pi_U(space6)
    for k in range(space6.num_tiers):
        assert sum(piu[space6.tier_slice(k)]) == 1


@pytest.mark.parametrize("n", range(7, 12))
def test_products_match_dense_fraction_blocks(n):
    """Left products, right products of a reward on each tier, and the
    means, against the same products with dense Fraction blocks."""
    space = enumerate_states(n)
    blocks = tier_blocks(space)
    dense = [blk.dense() for blk in blocks]
    lefts = [np.array([F(1)], dtype=object)]
    for mat in dense:
        lefts.append(lefts[-1].dot(mat))
    got = pi_U(space)
    assert list(got) == [v for w in lefts for v in w]
    assert all(isinstance(v, F) for v in got)

    offs = space.tier_offsets
    for tau in range(n - 1):
        seg = np.array([F(k, 2 + k % 3) for k in range(1, space.tier_size(tau) + 1)], dtype=object)
        r = np.zeros(space.num_states, dtype=object)
        r[offs[tau]:offs[tau + 1]] = seg
        expected = [(tau, list(seg))]
        for t in range(tau - 1, -1, -1):
            seg = dense[t].dot(seg)
            expected.append((t, list(seg)))
        got = right_products(blocks, r)
        assert [(tv.tier, list(tv.values)) for tv in got] == expected
        assert all(isinstance(v, F) for tv in got for v in tv.values)

    positions, mean = nonfixed_means(space)
    states = space.states.astype(object)
    expected = [lefts[n - 1 - j].dot(states[space.tier_slice(n - 1 - j), i - 1]) for i, j in positions]
    assert list(mean) == expected
    assert all(isinstance(v, F) for v in mean)


def test_n5_moment_summary(space5):
    summary = nonfixed_moments(space5)
    assert summary.positions == [(3, 1), (4, 1), (4, 2)]
    assert list(summary.mean) == N5_MEAN
    assert summary.cov.tolist() == N5_COV
    assert summary.mode == "rational"
    assert summary.work > 0


def test_n6_means_and_cross_moment(space6):
    summary = nonfixed_moments(space6)
    assert summary.positions == nonfixed_positions(6)
    assert list(summary.mean) == N6_MEANS
    a = summary.positions.index((4, 2))
    b = summary.positions.index((5, 1))
    assert summary.cov[a, b] == F(1, 15)
    cross = summary.cov[a, b] + summary.mean[a] * summary.mean[b]
    assert cross == F(2, 3)


def test_se_moments_goldens(space5):
    mean, cov = se_moments(space5)
    assert list(mean) == [F(8, 3), 10]
    assert cov.tolist() == [[F(11, 9), F(5, 6)], [F(5, 6), F(2, 3)]]


@pytest.mark.parametrize("n", [6, 8])
def test_means_shortcut_matches_full_summary(n):
    space = enumerate_states(n)
    positions, mean = nonfixed_means(space)
    summary = nonfixed_moments(space)
    assert positions == summary.positions
    assert list(mean) == list(summary.mean)


@pytest.mark.parametrize("n", [5, 6, 7, 8])
def test_moments_match_path_enumeration(n):
    """Exact equality with the brute-force law over all paths."""
    space = enumerate_states(n)
    summary = nonfixed_moments(space)
    positions = summary.positions
    q = len(positions)
    mean = [F(0)] * q
    second = [[F(0)] * q for _ in range(q)]
    for path, prob in enumerate_paths(space):
        entries = path_to_fmatrix(space, path).entries
        vals = [int(entries[i - 1, j - 1]) for i, j in positions]
        for a in range(q):
            mean[a] += prob * vals[a]
            for b in range(a, q):
                second[a][b] += prob * vals[a] * vals[b]
    assert list(summary.mean) == mean
    for a in range(q):
        for b in range(a, q):
            assert summary.cov[a, b] == second[a][b] - mean[a] * mean[b]


def test_agrees_with_dense_engine_exactly(space6):
    """Tier products and the dense solver give identical rationals."""
    summary = nonfixed_moments(space6)
    d = coalescent_dph(space6)
    rewards = build_rewards(space6)
    for a, (i, j) in enumerate(summary.positions):
        mean, var = reward_moments(d, rewards.column(f"F({i},{j})"))
        assert mean == summary.mean[a]
        assert var == summary.cov[a, a]
    for a, b in combinations_with_replacement(range(len(summary.positions)), 2):
        ia, ja = summary.positions[a]
        ib, jb = summary.positions[b]
        _, cov = mdph_cross_moment(
            d, rewards.column(f"F({ia},{ja})"), rewards.column(f"F({ib},{jb})")
        )
        assert cov == summary.cov[a, b]


def test_float_mode_tracks_rational(space6):
    exact = nonfixed_moments(space6)
    approx = nonfixed_moments(space6, mode="float")
    np.testing.assert_allclose(
        approx.mean, [float(v) for v in exact.mean], rtol=1e-13
    )
    np.testing.assert_allclose(
        approx.cov,
        np.array([[float(v) for v in row] for row in exact.cov]),
        atol=1e-13,
    )


@pytest.mark.parametrize("n", [14, 20])
def test_float_means_are_the_float_summary_means(n):
    """The means shortcut runs the sweep's own mean step, so its float means
    are those of ``nonfixed_moments`` to the bit."""
    space = enumerate_states(n)
    _, mean = nonfixed_means(space, mode="float")
    summary = nonfixed_moments(space, mode="float")
    assert mean.dtype == summary.mean.dtype == np.float64
    assert mean.tobytes() == summary.mean.tobytes()


@pytest.mark.parametrize("n", [12, 25])
def test_float_means_match_closed_form(n):
    """E[F_ij] = j(j+1)/i; the float reduction keeps it to rounding."""
    positions, mean = nonfixed_means(enumerate_states(n), mode="float")
    np.testing.assert_allclose(mean, [j * (j + 1) / i for i, j in positions], rtol=1e-13)


def test_small_n_rejected():
    space = enumerate_states(3)
    with pytest.raises(ValidationError):
        nonfixed_moments(space)
    with pytest.raises(ValidationError):
        nonfixed_means(space)
