"""Discrete phase-type machinery against the worked n = 5 chain: exact
moments, the reward transform with censoring, and the sparse branch."""

from fractions import Fraction

import numpy as np
import pytest
import scipy.sparse
from hypothesis import assume, given
from hypothesis import strategies as st

import rankedcoal.phasetype as phasetype
from rankedcoal import ValidationError
from rankedcoal.fmatrix import path_to_fmatrix
from rankedcoal.kingman import enumerate_paths
from rankedcoal.phasetype import (
    DiscretePhaseType,
    build_rewards,
    coalescent_dph,
    dph_mean_var,
    dph_pmf,
    dph_pmf_range,
    mdph_cross_moment,
    reward_moments,
    reward_transform,
)

F = Fraction

N5_T = [
    [0, 1, 0, 0, 0, 0, 0],
    [0, 0, F(1, 2), F(1, 2), 0, 0, 0],
    [0, 0, 0, 0, F(2, 3), 0, F(1, 3)],
    [0, 0, 0, 0, F(1, 3), F(1, 3), F(1, 3)],
    [0, 0, 0, 0, 0, 0, 0],
    [0, 0, 0, 0, 0, 0, 0],
    [0, 0, 0, 0, 0, 0, 0],
]

R_S = [0, 0, 2, 1, 2, 1, 0]
R_E = [5, 3, 2, 1, 1, 0, 0]


@pytest.fixture(scope="module")
def dph5(space5):
    return coalescent_dph(space5)


def test_n5_chain_representation(dph5):
    assert list(dph5.pi) == [1, 0, 0, 0, 0, 0, 0]
    assert dph5.T.tolist() == N5_T
    assert list(dph5.exit) == [0, 0, 0, 0, 1, 1, 1]
    assert dph5.defect == 0


def test_absorption_time_is_deterministic(dph5):
    mean, var = dph_mean_var(dph5)
    assert (mean, var) == (4, 0)
    assert dph_pmf(dph5, 4) == 1
    assert dph_pmf_range(dph5, 6) == [0, 0, 0, 1, 0, 0]


def test_reward_columns(space5, dph5):
    rewards = build_rewards(space5)
    assert rewards.column("S").tolist() == R_S
    assert rewards.column("E").tolist() == R_E
    assert rewards.labels == ["S", "E", "F(3,1)", "F(4,1)", "F(4,2)"]


def test_reward_moments_goldens(dph5):
    assert reward_moments(dph5, R_S) == (F(8, 3), F(11, 9))
    assert reward_moments(dph5, R_E) == (F(10), F(2, 3))
    # a float reward is converted exactly, not truncated
    assert reward_moments(dph5, np.array(R_S) / 2) == (F(4, 3), F(11, 36))
    cross, cov = mdph_cross_moment(dph5, R_S, R_E)
    assert cov == F(5, 6)
    assert cross == F(5, 6) + F(8, 3) * 10


def test_transform_representation(dph5):
    d_s = reward_transform(dph5, R_S)
    assert list(d_s.pi) == [F(1, 2), 0, F(1, 2), 0, 0, 0]
    assert d_s.T.tolist() == [
        [0, 1, 0, 0, 0, 0],
        [0, 0, 0, F(2, 3), 0, 0],
        [0, 0, 0, F(1, 3), 0, F(1, 3)],
        [0, 0, 0, 0, 1, 0],
        [0, 0, 0, 0, 0, 0],
        [0, 0, 0, 0, 0, 0],
    ]
    assert list(d_s.exit) == [0, F(1, 3), F(1, 3), 0, 1, 1]


def test_transform_pmf_matches_enumeration(space5, dph5):
    """P(S = s) from the transform equals the path-enumeration law."""
    d_s = reward_transform(dph5, R_S)
    law = {}
    for path, prob in enumerate_paths(space5):
        s = sum(R_S[idx - 1] for idx in path)
        law[s] = law.get(s, F(0)) + prob
    assert d_s.defect == law.get(0, F(0))
    pmf = dph_pmf_range(d_s, 8)
    for s in range(1, 9):
        assert pmf[s - 1] == law.get(s, F(0))


def test_transform_preserves_e_law(space5, dph5):
    d_e = reward_transform(dph5, R_E)
    assert d_e.defect == 0
    assert dph_mean_var(d_e) == (F(10), F(2, 3))


@given(st.lists(st.integers(min_value=0, max_value=3), min_size=7, max_size=7))
def test_transform_preserves_moments(r):
    assume(any(r))
    from rankedcoal.statespace import enumerate_states

    d = coalescent_dph(enumerate_states(5))
    direct = reward_moments(d, r)
    assert dph_mean_var(reward_transform(d, r)) == direct


def test_all_zero_reward_rejected(dph5):
    with pytest.raises(ValidationError):
        reward_transform(dph5, [0] * 7)


@pytest.mark.parametrize("value", [2.7, F(1, 2), 0.5])
def test_transform_refuses_non_integer_rewards(dph5, value):
    r = [1] * 7
    r[3] = value
    with pytest.raises(ValidationError, match="entry 3"):
        reward_transform(dph5, r)
    r[3] = float(R_E[3])
    reward_transform(dph5, r)


def test_moment_argument_guards(dph5):
    with pytest.raises(ValidationError):
        dph_pmf(dph5, 0)
    with pytest.raises(ValidationError):
        phasetype.dph_factorial_moment(dph5, 0)


def test_invalid_representation_rejected():
    with pytest.raises(ValidationError):
        DiscretePhaseType(pi=np.array([F(1), F(1)]), T=np.array([[F(0)]] * 2))
    bad_t = np.array([[F(1, 2), F(2, 3)], [F(0), F(0)]])
    with pytest.raises(ValidationError):
        DiscretePhaseType(pi=np.array([F(1), F(0)]), T=bad_t)


def test_sparse_transform_agrees_with_dense(space6, monkeypatch):
    d = coalescent_dph(space6, mode="float")
    r = build_rewards(space6).column("S")
    dense = reward_transform(d, r)
    monkeypatch.setattr(phasetype, "SPARSE_MIN_ORDER", 1)
    sparse = reward_transform(d, r)
    assert scipy.sparse.issparse(sparse.T)
    assert not scipy.sparse.issparse(dense.T)
    np.testing.assert_allclose(
        dph_pmf_range(sparse, 15), dph_pmf_range(dense, 15), atol=1e-13
    )
    np.testing.assert_allclose(dph_mean_var(sparse), dph_mean_var(dense), rtol=1e-12)


def _sparse_transform_loop(d, r):
    """The former element-by-element build of the sparse transform's T,
    kept as the reference for the array version."""
    r = [int(v) for v in r]
    pos = [j for j in range(d.order) if r[j] > 0]
    zero = [j for j in range(d.order) if r[j] == 0]
    t_full = d.T
    t_pp = t_full[np.ix_(pos, pos)]
    if zero:
        resolvent = np.linalg.solve(
            np.eye(len(zero)) - t_full[np.ix_(zero, zero)], t_full[np.ix_(zero, pos)]
        )
        t_cens = t_pp + t_full[np.ix_(pos, zero)].dot(resolvent)
    else:
        t_cens = t_pp
    first, last, cursor = {}, {}, 0
    for j in pos:
        first[j], last[j] = cursor, cursor + r[j] - 1
        cursor += r[j]
    rows, cols, vals = [], [], []
    for a, j in enumerate(pos):
        for step in range(first[j], last[j]):
            rows.append(step)
            cols.append(step + 1)
            vals.append(1.0)
        for b, k in enumerate(pos):
            if t_cens[a, b] != 0.0:
                rows.append(last[j])
                cols.append(first[k])
                vals.append(t_cens[a, b])
    return scipy.sparse.csr_matrix((vals, (rows, cols)), shape=(cursor, cursor))


@pytest.mark.parametrize("n", [8, 10])
def test_sparse_transform_matches_the_loop(n, monkeypatch):
    from rankedcoal.statespace import enumerate_states

    space = enumerate_states(n)
    d = coalescent_dph(space, mode="float")
    rewards = build_rewards(space)
    monkeypatch.setattr(phasetype, "SPARSE_MIN_ORDER", 1)
    for label in ("S", "E", "F(4,1)", f"F({n - 1},{n - 3})"):
        r = rewards.column(label)
        got = reward_transform(d, r).T
        want = _sparse_transform_loop(d, r)
        for name in ("data", "indices", "indptr"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype and np.array_equal(a, b), (label, name)


def test_float_mode_tracks_rational(space5, dph5):
    d_float = coalescent_dph(space5, mode="float")
    mean, var = reward_moments(d_float, R_S)
    assert mean == pytest.approx(8 / 3, rel=1e-14)
    assert var == pytest.approx(11 / 9, rel=1e-14)


def test_nonfixed_reward_moments_match_sample_identities(space5, dph5):
    """E[F_ij] via rewards equals the path-weighted average entry."""
    rewards = build_rewards(space5)
    positions = [(3, 1), (4, 1), (4, 2)]
    paths = enumerate_paths(space5)
    for i, j in positions:
        r = rewards.column(f"F({i},{j})")
        mean, _ = reward_moments(dph5, r)
        direct = sum(
            prob * int(path_to_fmatrix(space5, p).entries[i - 1, j - 1])
            for p, prob in paths
        )
        assert mean == direct


@pytest.mark.parametrize("n,mode", [(8, "rational"), (12, "float")])
def test_pmf_range_stops_early_with_the_same_list(n, mode):
    from rankedcoal.bcp import bcp_E_distribution

    d = bcp_E_distribution(n, mode=mode)
    cap = 4 * d.order + 100
    full = []
    w = d.pi
    for _ in range(cap):
        full.append(w.dot(d.exit))
        w = phasetype._vm(w, d.T)
    assert not np.any(w != 0)
    pmf = dph_pmf_range(d, cap)
    assert pmf == full
    assert [type(v) for v in pmf] == [type(v) for v in full]
