"""Ranked block-counting process: state counts equal partition numbers,
the n = 5 worked chain, and distributional agreement with the ranked
coalescent on the external length."""

from fractions import Fraction

import numpy as np
import pytest

from rankedcoal.bcp import (
    BcpState,
    bcp_chain,
    bcp_dph,
    bcp_E_distribution,
    bcp_states,
    partition_count,
)
from rankedcoal.phasetype import (
    coalescent_dph,
    dph_mean_var,
    dph_pmf,
    dph_pmf_range,
    reward_E,
    reward_transform,
)
from rankedcoal.kingman import tier_blocks
from rankedcoal.statespace import enumerate_states
from rankedcoal._common import ValidationError

F = Fraction

N5_STATES = [
    (5, 0, 0, 0),
    (3, 1, 0, 0),
    (2, 0, 1, 0), (1, 2, 0, 0),
    (1, 0, 0, 1), (0, 1, 1, 0),
]


def _pentagonal_counts(limit):
    """Partition numbers by Euler's pentagonal recurrence."""
    p = [1]
    for m in range(1, limit + 1):
        total = 0
        k = 1
        while True:
            g = k * (3 * k - 1) // 2
            if g > m:
                break
            sign = 1 if k % 2 else -1
            total += sign * p[m - g]
            g = k * (3 * k + 1) // 2
            if g <= m:
                total += sign * p[m - g]
            k += 1
        p.append(total)
    return p


def test_partition_count_against_pentagonal_recurrence():
    oracle = _pentagonal_counts(40)
    assert partition_count(10) == 42
    for m in range(41):
        assert partition_count(m) == oracle[m]


def _recursive_partitions(n, largest):
    if n == 0:
        yield ()
        return
    for first in range(min(n, largest), 0, -1):
        for rest in _recursive_partitions(n - first, first):
            yield (first,) + rest


@pytest.mark.parametrize("n", range(3, 21))
def test_states_match_sorted_recursive_partitions(n):
    # tiered by block count, each tier lex-descending on the a-vector
    by_tier = [[] for _ in range(n - 1)]
    for parts in _recursive_partitions(n, n - 1):
        by_tier[n - len(parts)].append(tuple(parts.count(i) for i in range(1, n)))
    expected = [a for tier in by_tier for a in sorted(tier, reverse=True)]
    states = bcp_states(n)
    assert [s.a for s in states] == expected
    assert [s.tier for s in states] == [n - sum(a) for a in expected]


@pytest.mark.parametrize("n", list(range(3, 13)) + [25, 40])
def test_state_count_is_partition_number(n):
    assert len(bcp_states(n)) + 1 == partition_count(n)


def test_n5_chain():
    chain = bcp_chain(5)
    assert [s.a for s in chain.states] == N5_STATES
    assert [b.dense().tolist() for b in chain.blocks] == [
        [[F(1)]],
        [[F(1, 2), F(1, 2)]],
        [[F(2, 3), F(1, 3)], [F(1, 3), F(2, 3)]],
    ]
    assert [s.blocks for s in chain.states] == [5, 4, 3, 3, 2, 2]
    assert [s.tier for s in chain.states] == [0, 1, 2, 2, 3, 3]


def test_n4_coincides_with_ranked_chain():
    ranked = tier_blocks(enumerate_states(4))
    bcp = bcp_chain(4).blocks
    assert len(ranked) == len(bcp)
    for rb, bb in zip(ranked, bcp):
        assert np.array_equal(rb.dense(), bb.dense())


@pytest.mark.parametrize("n", range(3, 13))
def test_blocks_are_stochastic(n):
    chain = bcp_chain(n)
    for t, block in enumerate(chain.blocks):
        dense = block.dense()
        assert block.denom == (n - t) * (n - t - 1) // 2
        for row in dense:
            assert sum(row) == 1
    offsets = chain.tier_offsets
    assert offsets[0] == 0 and offsets[-1] == len(chain.states)
    assert all(offsets[i] < offsets[i + 1] for i in range(n - 1))


def test_state_validation():
    with pytest.raises(ValidationError):
        BcpState(n=5, a=(5, 0, 0))
    with pytest.raises(ValidationError):
        BcpState(n=5, a=(3, -1, 0, 0))
    with pytest.raises(ValidationError):
        BcpState(n=5, a=(4, 1, 0, 0))
    with pytest.raises(ValidationError):
        bcp_states(2)


def test_n4_external_length_distribution():
    assert [s.singletons for s in bcp_chain(4).states] == [4, 2, 1, 0]
    dist = bcp_E_distribution(4)
    assert len(dist.pi) == 7
    assert dph_pmf(dist, 7) == F(2, 3)
    assert dph_pmf(dist, 6) == F(1, 3)
    assert sum(dph_pmf_range(dist, 7)) == 1


def test_e_distribution_enumerates_the_states_once(monkeypatch):
    from rankedcoal import bcp

    calls = []

    def counted(n):
        calls.append(n)
        return states(n)

    states = bcp.bcp_states
    monkeypatch.setattr(bcp, "bcp_states", counted)
    bcp_E_distribution(6)
    assert calls == [6]


def test_n5_external_moments():
    assert dph_mean_var(bcp_E_distribution(5)) == (10, F(2, 3))


@pytest.mark.parametrize("n", range(4, 11))
def test_external_pmf_matches_ranked_coalescent(n):
    space = enumerate_states(n)
    ranked = reward_transform(coalescent_dph(space), reward_E(space))
    bcp = bcp_E_distribution(n)
    upper = n * (n + 1) // 2 - 1
    assert dph_pmf_range(ranked, upper) == dph_pmf_range(bcp, upper)
    assert dph_mean_var(ranked) == dph_mean_var(bcp)


def test_n25_float_mass():
    dist = bcp_E_distribution(25)
    upper = 25 * 26 // 2 - 1
    mass = float(np.sum(np.asarray(dph_pmf_range(dist, upper), dtype=float)))
    assert abs(mass - 1.0) < 1e-10


def test_strictly_coarser_than_ranked_space():
    for n in range(5, 13):
        assert len(bcp_states(n)) < enumerate_states(n).num_states
    assert len(bcp_states(4)) == enumerate_states(4).num_states


def test_dph_modes_agree():
    exact = bcp_dph(6)
    approx = bcp_dph(6, mode="float")
    np.testing.assert_allclose(
        approx.T, np.array([[float(v) for v in row] for row in exact.T]),
        rtol=0, atol=1e-15)
