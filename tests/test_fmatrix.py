"""F-matrix encoding: the five n = 5 matrices, path bijection, tree
reconstruction, balance indices, and the jsonl corpus format."""

import itertools

import numpy as np
import pytest

from rankedcoal import ValidationError
from rankedcoal.fmatrix import (
    FMatrix,
    balance_E,
    balance_S,
    colless,
    distance,
    distance_sq,
    fmatrix_to_path,
    fmatrix_to_tree,
    nonfixed_positions,
    nonfixed_vector,
    path_to_fmatrix,
    read_jsonl,
    sackin,
    write_jsonl,
)
from rankedcoal.kingman import enumerate_paths
from rankedcoal.statespace import enumerate_states

# The five ranked trees with n = 5, as F-matrices, and the chain paths
# they encode (hand-checked column by column).
FIG_N5 = {
    (1, 2, 3, 5): [[2, 0, 0, 0], [1, 3, 0, 0], [1, 2, 4, 0], [1, 2, 3, 5]],
    (1, 2, 4, 5): [[2, 0, 0, 0], [1, 3, 0, 0], [1, 2, 4, 0], [1, 1, 3, 5]],
    (1, 2, 4, 6): [[2, 0, 0, 0], [1, 3, 0, 0], [1, 2, 4, 0], [0, 1, 3, 5]],
    (1, 2, 3, 7): [[2, 0, 0, 0], [1, 3, 0, 0], [0, 2, 4, 0], [0, 2, 3, 5]],
    (1, 2, 4, 7): [[2, 0, 0, 0], [1, 3, 0, 0], [0, 2, 4, 0], [0, 1, 3, 5]],
}

# A worked n = 11 example matrix.
N11_MATRIX = [
    [2, 0, 0, 0, 0, 0, 0, 0, 0, 0],
    [1, 3, 0, 0, 0, 0, 0, 0, 0, 0],
    [1, 2, 4, 0, 0, 0, 0, 0, 0, 0],
    [1, 1, 3, 5, 0, 0, 0, 0, 0, 0],
    [1, 1, 3, 4, 6, 0, 0, 0, 0, 0],
    [1, 1, 3, 4, 5, 7, 0, 0, 0, 0],
    [1, 1, 2, 3, 4, 6, 8, 0, 0, 0],
    [1, 1, 1, 2, 3, 5, 7, 9, 0, 0],
    [1, 1, 1, 1, 2, 4, 6, 8, 10, 0],
    [0, 0, 0, 0, 1, 3, 5, 7, 9, 11],
]

# Two n = 10 trees: an imbalanced and a balanced one.
N10_IMBALANCED = [
    [2, 0, 0, 0, 0, 0, 0, 0, 0],
    [1, 3, 0, 0, 0, 0, 0, 0, 0],
    [1, 2, 4, 0, 0, 0, 0, 0, 0],
    [1, 2, 3, 5, 0, 0, 0, 0, 0],
    [1, 2, 3, 4, 6, 0, 0, 0, 0],
    [1, 1, 2, 3, 5, 7, 0, 0, 0],
    [1, 1, 2, 3, 4, 6, 8, 0, 0],
    [1, 1, 2, 3, 4, 6, 7, 9, 0],
    [1, 1, 2, 3, 4, 6, 7, 8, 10],
]
N10_BALANCED = [
    [2, 0, 0, 0, 0, 0, 0, 0, 0],
    [1, 3, 0, 0, 0, 0, 0, 0, 0],
    [0, 2, 4, 0, 0, 0, 0, 0, 0],
    [0, 1, 3, 5, 0, 0, 0, 0, 0],
    [0, 1, 2, 4, 6, 0, 0, 0, 0],
    [0, 1, 2, 4, 5, 7, 0, 0, 0],
    [0, 0, 1, 3, 3, 6, 8, 0, 0],
    [0, 0, 1, 2, 3, 5, 7, 9, 0],
    [0, 0, 1, 1, 2, 4, 6, 8, 10],
]


def _fmat(n, rows):
    return FMatrix(n, np.array(rows, dtype=np.int64))


def _caterpillar(n):
    arr = np.zeros((n - 1, n - 1), dtype=np.int64)
    for j in range(1, n):
        arr[j - 1, j - 1] = j + 1
        arr[j:, j - 1] = j
    return FMatrix(n, arr)


def test_n5_matrices_encode_their_paths(space5):
    for path, rows in FIG_N5.items():
        fmat = _fmat(5, rows)
        assert fmatrix_to_path(space5, fmat) == path
        assert path_to_fmatrix(space5, path) == fmat


def test_distance_examples():
    f1 = _fmat(5, FIG_N5[(1, 2, 3, 5)])
    f2 = _fmat(5, FIG_N5[(1, 2, 4, 5)])
    assert distance_sq(f1, f2) == 1
    assert distance(f1, f2) == 1.0
    assert distance(f1, f1) == 0.0


def test_distance_triangle_inequality():
    mats = [_fmat(5, rows) for rows in FIG_N5.values()]
    for a, b, c in itertools.permutations(mats, 3):
        assert distance(a, c) <= distance(a, b) + distance(b, c) + 1e-12


def test_distance_rejects_mixed_n():
    with pytest.raises(ValidationError):
        distance(_fmat(5, FIG_N5[(1, 2, 3, 5)]), _caterpillar(6))


def test_n11_matrix_roundtrip():
    fmat = _fmat(11, N11_MATRIX)
    space = enumerate_states(11)
    path = fmatrix_to_path(space, fmat)
    assert path_to_fmatrix(space, path) == fmat
    assert fmat.column(4) == (0, 0, 0, 5, 4, 4, 3, 2, 1, 0)
    assert fmat.column(3) == (0, 0, 4, 3, 3, 3, 2, 1, 1, 0)


def test_n10_balance_goldens():
    imb = _fmat(10, N10_IMBALANCED)
    bal = _fmat(10, N10_BALANCED)
    assert (balance_E(imb), balance_S(imb)) == (42, 69)
    assert (balance_E(bal), balance_S(bal)) == (32, 43)


def test_n3_unique_matrix():
    space = enumerate_states(3)
    fmat = path_to_fmatrix(space, (1, 2))
    assert fmat.entries.tolist() == [[2, 0], [1, 3]]


def test_caterpillar_depth_indices():
    cat = _caterpillar(10)
    assert sackin(cat) == 54
    assert colless(cat) == 36
    assert balance_S(_caterpillar(4)) == 1


def test_n4_balance_support(space4):
    values = sorted(balance_S(path_to_fmatrix(space4, p)) for p, _ in enumerate_paths(space4))
    assert values == [0, 1]


def test_n8_colless_range(space8):
    values = [colless(path_to_fmatrix(space8, p)) for p, _ in enumerate_paths(space8)]
    assert min(values) == 0
    assert max(values) == colless(_caterpillar(8)) == 21


@pytest.mark.parametrize("n", range(3, 9))
def test_path_bijection(n):
    space = enumerate_states(n)
    seen = set()
    for path, _ in enumerate_paths(space):
        fmat = path_to_fmatrix(space, path)
        assert fmatrix_to_path(space, fmat) == path
        seen.add(fmat)
    assert len(seen) == len(enumerate_paths(space))


def test_caterpillar_maximizes_both_indices():
    for n in range(5, 9):
        space = enumerate_states(n)
        cat = _caterpillar(n)
        cat_s, cat_e = balance_S(cat), balance_E(cat)
        for path, _ in enumerate_paths(space):
            fmat = path_to_fmatrix(space, path)
            assert balance_S(fmat) <= cat_s
            assert balance_E(fmat) <= cat_e


def test_tree_reconstruction_shapes():
    tree = fmatrix_to_tree(_fmat(5, FIG_N5[(1, 2, 3, 5)]))
    assert {nd.rank: nd.size for nd in tree.internal_nodes()} == {2: 5, 3: 4, 4: 3, 5: 2}
    tree = fmatrix_to_tree(_fmat(5, FIG_N5[(1, 2, 4, 5)]))
    assert {nd.rank: nd.size for nd in tree.internal_nodes()} == {2: 5, 3: 4, 4: 2, 5: 2}
    for nd in tree.internal_nodes():
        assert nd.left.size >= nd.right.size


def test_sackin_equals_internal_size_sum(space6):
    """Depth accumulation agrees with counting each leaf once per ancestor."""
    for path, _ in enumerate_paths(space6):
        fmat = path_to_fmatrix(space6, path)
        tree = fmatrix_to_tree(fmat)
        assert sackin(fmat) == sum(nd.size for nd in tree.internal_nodes())


def test_nonfixed_layout():
    assert nonfixed_positions(6) == [(3, 1), (4, 1), (4, 2), (5, 1), (5, 2), (5, 3)]
    vec = nonfixed_vector(_fmat(5, FIG_N5[(1, 2, 4, 5)]))
    assert vec.tolist() == [1, 1, 1]


def test_jsonl_roundtrip(tmp_path, space5):
    mats = [path_to_fmatrix(space5, p) for p, _ in enumerate_paths(space5)]
    target = tmp_path / "corpus.jsonl"
    write_jsonl(target, mats)
    assert read_jsonl(target) == mats


def test_jsonl_reports_bad_line(tmp_path):
    target = tmp_path / "broken.jsonl"
    target.write_text('{"n": 5, "tri": [[2]]}\nnot json\n')
    with pytest.raises(ValidationError) as err:
        read_jsonl(target)
    assert ":1:" in str(err.value)


def test_validate_static_errors():
    bad = np.array(FIG_N5[(1, 2, 3, 5)])
    bad[0, 0] = 3
    with pytest.raises(ValidationError):
        FMatrix(5, bad).validate_static()
    bad = np.array(FIG_N5[(1, 2, 3, 5)])
    bad[0, 1] = 1
    with pytest.raises(ValidationError):
        FMatrix(5, bad).validate_static()
    bad = np.array(FIG_N5[(1, 2, 3, 5)])
    bad[3, 0] = -1
    with pytest.raises(ValidationError):
        FMatrix(5, bad).validate_static()
    bad = np.array(FIG_N5[(1, 2, 3, 5)])
    bad[2, 1] = 1
    with pytest.raises(ValidationError, match="subdiagonal F_3,2 = 1, expected 2"):
        FMatrix(5, bad).validate_static()


def test_validate_static_accepts_exactly_the_shapes(space6):
    """Every change of one lower-triangular entry of an n = 6 shape to a
    value in -1..7 is accepted exactly when the result is again one of
    the 16 shapes."""
    shapes = [path_to_fmatrix(space6, p).entries for p, _ in enumerate_paths(space6)]
    known = {arr.tobytes() for arr in shapes}
    accepted = 0
    for arr in shapes:
        for i, j in zip(*np.tril_indices(5)):
            for value in range(-1, 8):
                changed = arr.copy()
                changed[i, j] = value
                try:
                    FMatrix(6, changed).validate_static()
                    ok = True
                except ValidationError:
                    ok = False
                assert ok == (changed.tobytes() in known), changed
                accepted += ok
    # the unchanged shapes, and some one-entry moves between shapes
    assert accepted > 16 * 15
