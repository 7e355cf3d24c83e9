"""State-space construction: frozen small enumerations, the Fibonacci
counting laws, decremental codes, and canonical ordering."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from rankedcoal import CapacityError, ValidationError
from rankedcoal._kernels import expand_tier
from rankedcoal.statespace import (
    KEY_MAX_N,
    _rank_tables,
    _tier_keys,
    _tier_rank,
    diff_encoding,
    enumerate_states,
    tier_sizes,
)

# Transient states of X_5 in canonical (tier-major, lex-descending) order,
# worked out by hand from the definition.
N5_STATES = [
    (0, 0, 0, 5),
    (0, 0, 4, 3),
    (0, 3, 2, 2),
    (0, 3, 2, 1),
    (2, 1, 1, 1),
    (2, 1, 1, 0),
    (2, 1, 0, 0),
]

N4_STATES = {(0, 0, 4), (0, 3, 2), (2, 1, 1), (2, 1, 0)}


def _fib(k):
    a, b = 0, 1
    for _ in range(k):
        a, b = b, a + b
    return a


def test_n5_canonical_enumeration(space5):
    got = [tuple(int(v) for v in row) for row in space5.states]
    assert got == N5_STATES


def test_n4_state_set(space4):
    got = {tuple(int(v) for v in row) for row in space4.states}
    assert got == N4_STATES
    assert space4.num_states == 4


def test_n3_tier_structure():
    space = enumerate_states(3)
    assert space.num_states == 2
    assert tuple(space.states[0]) == (0, 3)
    assert tuple(space.states[1]) == (2, 1)
    assert list(tier_sizes(3)) == [0, 1, 0, 1]


@pytest.mark.parametrize("n", range(3, 13))
def test_state_counts_follow_fibonacci(n):
    space = enumerate_states(n)
    assert space.num_states + 1 == _fib(n + 1)


@pytest.mark.parametrize("n", range(3, 19))
def test_closed_form_tiers_are_the_successors_of_the_previous_tier(n):
    # The closed-form tiers must be exactly what the transition kernel
    # reaches: tier t+1 is the set of all successors of tier t.
    space = enumerate_states(n)
    assert list(space._tier_keys[0]) == [n]
    for t in range(n - 2):
        _, dst, _ = expand_tier(space._tier_keys[t], n, t)
        assert np.array_equal(space._tier_keys[t + 1], np.unique(dst))


@pytest.mark.parametrize("n", range(3, 23))
def test_tier_rank_inverts_tier_keys(n):
    for t in range(n - 1):
        keys = _tier_keys(n, t)
        assert np.array_equal(_tier_rank(n, t, keys), np.arange(len(keys)))


def test_rank_tables_stay_small_at_the_default_cap():
    # a direct lookup on the subset would need 2^27 entries at n = 30
    for t in range(1, 29):
        assert max(table.size for table in _rank_tables(30, t)[1:]) <= 2 ** 14


@pytest.mark.parametrize("n", range(3, 21))
def test_last_entry_grouping_law(n):
    space = enumerate_states(n)
    law = tier_sizes(n)
    assert law[0] == _fib(n - 1) - 1
    for j in range(1, n - 1):
        assert law[j] == _fib(n - 1 - j)
    counts = space.last_entry_counts()
    # The absorbing state is the lone member of the j = n group.
    assert counts[n] == 1
    assert np.array_equal(counts, law)
    assert counts.sum() == space.num_states


def test_diff_encoding_examples():
    assert diff_encoding((0, 3, 2, 1, 1)) == ((0, 1, 1, 0), 1)
    assert diff_encoding((0, 0, 0, 5)) == ((0, 0, 0), 5)
    assert diff_encoding((0, 0, 0, 5, 4, 4, 3, 2, 1, 0)) == (
        (0, 0, 0, 1, 0, 1, 1, 1, 1),
        0,
    )


def test_diff_encoding_is_injective_over_states(space8):
    codes = {diff_encoding(tuple(int(v) for v in row)) for row in space8.states}
    assert len(codes) == space8.num_states


def test_state_accessors(space5):
    s = space5.state(4)
    assert s.x == (0, 3, 2, 1)
    assert s.tier == 2
    assert s.index == 4
    assert s.external_count == 1
    assert s.x_max == 3
    assert s.dcode == ((0, 1, 1), 1)


def test_tier_slices_partition_the_order(space6):
    total = 0
    for t in range(space6.num_tiers):
        block = space6.tier_states(t)
        total += len(block)
        assert np.all(space6.tier_of[space6.tier_slice(t)] == t)
        # Canonical within-tier order is lexicographically descending.
        for a in range(len(block) - 1):
            assert tuple(block[a]) > tuple(block[a + 1])
    assert total == space6.num_states


@given(st.integers(min_value=3, max_value=9))
def test_index_roundtrip(n):
    space = enumerate_states(n)
    for i in range(1, space.num_states + 1):
        s = space.state(i)
        assert space.index_of(s.x) == i
        assert s.x_max == n - s.tier
        assert s.external_count == s.x[-1]


def test_rejects_small_n():
    with pytest.raises(ValidationError):
        enumerate_states(2)


def test_capacity_guard_names_the_count():
    with pytest.raises(CapacityError) as err:
        enumerate_states(40, max_n=30)
    assert "40" in str(err.value)


def test_capacity_guard_keeps_keys_inside_int64():
    # refused before anything is allocated, whatever max_n allows
    with pytest.raises(CapacityError) as err:
        enumerate_states(KEY_MAX_N + 1, max_n=100)
    assert f"cap {KEY_MAX_N}" in str(err.value)


def test_index_of_rejects_non_states(space5):
    with pytest.raises(ValidationError):
        space5.index_of((0, 0, 5))
    with pytest.raises(ValidationError):
        space5.index_of((0, 3, 2, 0))
    with pytest.raises(ValidationError):
        space5.index_of((1, 1, 1, 1))


def test_state_index_bounds(space5):
    with pytest.raises(ValidationError):
        space5.state(0)
    with pytest.raises(ValidationError):
        space5.state(space5.num_states + 1)
