"""State-space construction: frozen small enumerations, the Fibonacci
counting laws, decremental codes, and canonical ordering."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from key_oracle import expand_tier
from rankedcoal import CapacityError, ValidationError, statespace
from rankedcoal._common import fib
from rankedcoal.statespace import (
    KEY_MAX_N,
    STATES_MAX_BYTES,
    _pack,
    _rank_table,
    _tier_keys,
    diff_encoding,
    enumerate_states,
    keys_to_states,
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
    # a key's rank in its tier is its position: decoding the keys and
    # looking each state up again gives the tier's indices in order
    space = enumerate_states(n)
    for t in range(n - 1):
        keys = _tier_keys(n, t)
        states = np.empty((len(keys), n - 1), np.int8)
        keys_to_states(keys, n, t, states)
        got = [space.index_of(x) for x in states]
        assert got == list(range(space.tier_offsets[t] + 1, space.tier_offsets[t + 1] + 1))


@pytest.mark.parametrize("n", range(3, 26))
def test_keys_ascend_in_canonical_order(n):
    # np.lexsort is the oracle: within every tier the states are strictly
    # lex-descending and the keys strictly ascending
    space = enumerate_states(n)
    assert len(space._tier_keys) == n - 1
    for t in range(n - 1):
        block = space.tier_states(t)
        order = np.lexsort((-block[:, ::-1]).T)
        assert np.array_equal(order, np.arange(len(block)))
        assert np.all(np.any(block[1:] != block[:-1], axis=1))
        assert np.all(np.diff(space._tier_keys[t]) > 0)


@pytest.mark.parametrize("n", range(3, 17))
def test_pack_gives_each_state_its_key(n):
    space = enumerate_states(n)
    keys = np.concatenate(space._tier_keys)
    packed = [_pack(*diff_encoding(row)) for row in space.states]
    assert np.array_equal(packed, keys)


def test_rank_table_fits_int64_at_the_key_cap():
    # int64 sums wrap silently, so compare every entry with Python ints
    n = KEY_MAX_N
    table = _rank_table(n)
    assert table.dtype == np.int64 and table.shape == (n - 1, n + 2)
    exact = [[sum(math.comb(b, k) for k in range(r + 1)) for r in range(n + 1)] + [0]
             for b in range(n - 1)]
    assert table.tolist() == exact
    assert int(table.max()) == 2 ** (n - 2) < 2 ** 63


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
    assert diff_encoding(s.x) == ((0, 1, 1), 1)


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
        assert max(s.x) == n - s.tier


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


def _no_tiers(*args, **kwargs):
    raise AssertionError("a tier was built")


@pytest.mark.parametrize("n", [35, 40, KEY_MAX_N])
def test_capacity_guard_refuses_by_bytes_before_any_tier(n, monkeypatch):
    monkeypatch.setattr(statespace, "_tier_keys", _no_tiers)
    with pytest.raises(CapacityError) as err:
        enumerate_states(n, max_n=KEY_MAX_N)
    assert f"{fib(n + 1) - 1} states" in str(err.value) and "MiB" in str(err.value)


def test_byte_budget_admits_n_34(monkeypatch):
    # n = 34 is past the check: the patched tier builder is what stops it
    assert (fib(35) - 1) * (34 + 9) <= STATES_MAX_BYTES
    monkeypatch.setattr(statespace, "_tier_keys", _no_tiers)
    with pytest.raises(AssertionError, match="a tier was built"):
        enumerate_states(34, max_n=KEY_MAX_N)


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
