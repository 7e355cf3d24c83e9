"""The one merge rule, ``kingman.merges``, on random chain paths: the path
to F-matrix to path round trip, tree reconstruction, and agreement with
the scalar rule it replaced, kept here as an oracle, on every step and on
single-entry mutations of a state."""

import functools

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from rankedcoal import ValidationError
from rankedcoal.fmatrix import fmatrix_to_path, fmatrix_to_tree, path_to_fmatrix
from rankedcoal.kingman import feasible, merges, sample_paths
from rankedcoal.statespace import diff_encoding, enumerate_states


def oracle_feasible(xv, yv):
    """The scalar merge rule, one state pair at a time (raises like
    ``diff_encoding`` on an invalid vector)."""
    n = len(xv) + 1
    tx = n - max(xv)
    px, cx = diff_encoding(xv)
    py, cy = diff_encoding(yv)
    diff = [a - b for a, b in zip(px + (cx,), py + (cy,))]
    nu = n - 2 - tx
    diff[nu - 1] += 1
    if sum(diff) != 2 or any(v < 0 for v in diff):
        return None
    hits = [pos + 1 for pos, v in enumerate(diff) if v > 0]
    if len(hits) == 1:
        if hits[0] == n - 1 and diff[n - 2] == 2:
            return (n - 1, n - 1)
        return None
    if len(hits) == 2 and all(diff[h - 1] == 1 for h in hits):
        return (hits[0], hits[1])
    return None


@functools.lru_cache(maxsize=None)
def _space(n):
    return enumerate_states(n)


def _paths(n, seed, count=5):
    space = _space(n)
    return space, sample_paths(space, count, seed=seed)


@given(st.integers(4, 20), st.integers(0, 2 ** 32 - 1))
def test_path_fmatrix_path_round_trip(n, seed):
    space, paths = _paths(n, seed)
    for row in paths:
        path = tuple(int(v) for v in row)
        assert fmatrix_to_path(space, path_to_fmatrix(space, path)) == path


@given(st.integers(4, 20), st.integers(0, 2 ** 32 - 1))
def test_tree_has_ranks_2_to_n_and_n_leaves(n, seed):
    space, paths = _paths(n, seed)
    for row in paths:
        tree = fmatrix_to_tree(path_to_fmatrix(space, row))
        assert [nd.rank for nd in tree.internal_nodes()] == list(range(2, n + 1))
        leaves, stack = 0, [tree.root]
        while stack:
            node = stack.pop()
            if node.is_leaf:
                leaves += 1
            else:
                stack += [node.left, node.right]
        assert leaves == tree.root.size == n


@given(st.integers(4, 20), st.integers(0, 2 ** 32 - 1))
def test_merges_agree_with_the_scalar_rule_on_every_step(n, seed):
    space, paths = _paths(n, seed)
    for row in paths:
        states = space.states[row - 1]
        pairs = merges(states)
        for t, (i, k) in enumerate(pairs.tolist()):
            want = oracle_feasible(tuple(states[t].tolist()), tuple(states[t + 1].tolist()))
            assert want is not None and (i, k) == want


@given(st.integers(4, 20), st.integers(0, 2 ** 32 - 1), st.data())
def test_merges_agree_with_the_scalar_rule_on_mutations(n, seed, data):
    space, paths = _paths(n, seed, count=1)
    states = space.states[paths[0] - 1].astype(np.int64)
    t = data.draw(st.integers(0, n - 3))
    side = data.draw(st.integers(0, 1))
    entry = data.draw(st.integers(0, n - 2))
    delta = data.draw(st.sampled_from([-2, -1, 1, 2]))
    pair = states[t:t + 2].copy()
    pair[side, entry] += delta
    x, y = (tuple(v) for v in pair.tolist())
    try:
        if max(x) != max(y) + 1:
            raise ValidationError("tier gap")
        want = oracle_feasible(x, y)
    except ValidationError:
        with pytest.raises(ValidationError):
            feasible(x, y)
        return
    assert feasible(x, y) == want
    got = tuple(merges(pair)[0].tolist())
    assert got == (want or (0, 0))


def test_merges_examples():
    pairs = merges([(0, 0, 4, 3), (0, 3, 2, 2), (2, 1, 1, 0)])
    assert pairs.tolist() == [[3, 4], [0, 0]]
    assert merges([(0, 0, 4, 3), (0, 3, 2, 1)]).tolist() == [[4, 4]]
    assert merges(np.zeros((1, 4), np.int8)).shape == (0, 2)
    # both units on one decremental index are no merge: (3, 2, 1, 0) is a
    # vector with valid decrements, though no state of X_5
    x, y = (3, 2, 1, 0), (2, 2, 1, 0)
    assert oracle_feasible(x, y) is None
    assert merges([x, y]).tolist() == [[0, 0]]
    assert feasible(x, y) is None
