"""F-matrix encoding: the five n = 5 matrices, path bijection, tree
reconstruction, balance indices, and the jsonl corpus format."""

import itertools
import json
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
import reader_oracle
import sums_oracle
from hypothesis import given
from hypothesis import strategies as st

from rankedcoal import ValidationError
from rankedcoal import fmatrix as fmatrix_module
from rankedcoal.betasplit import BetaConfig, sample_beta_fmatrices
from rankedcoal.fmatrix import (
    FMatrix,
    balance_E,
    balance_S,
    colless,
    corpus_sums,
    distance,
    distance_sq,
    fmatrix_to_path,
    fmatrix_to_tree,
    iter_jsonl,
    jsonl_text,
    nonfixed_positions,
    nonfixed_vector,
    path_to_fmatrix,
    paths_to_fmatrices,
    read_jsonl,
    sackin,
)
from rankedcoal.frechet import mean_matrix_sample
from rankedcoal.kingman import enumerate_paths, sample_paths
from rankedcoal.neutrality import SampleStats
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


def _line(fmat):
    """The fmat.jsonl line of ``fmat`` through ``json``, without its newline."""
    return json.dumps({"n": fmat.n, "tri": fmat.tri()})


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
    assert fmat.entries[:, 3].tolist() == [0, 0, 0, 5, 4, 4, 3, 2, 1, 0]
    assert fmat.entries[:, 2].tolist() == [0, 0, 4, 3, 3, 3, 2, 1, 1, 0]


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
    target.write_text("".join(_line(f) + "\n" for f in mats))
    assert read_jsonl(target) == mats


def test_jsonl_reports_bad_line(tmp_path):
    target = tmp_path / "broken.jsonl"
    target.write_text('{"n": 5, "tri": [[2]]}\nnot json\n')
    with pytest.raises(ValidationError) as err:
        read_jsonl(target)
    assert ":1:" in str(err.value)


@pytest.mark.parametrize("n", [5.0, True, "5"])
def test_reader_refuses_an_n_that_is_not_an_integer(n, tmp_path):
    target = tmp_path / "one.jsonl"
    target.write_text(json.dumps({"n": n, "tri": [[2], [1, 3], [1, 2, 4], [1, 1, 1, 5]]}) + "\n")
    with pytest.raises(ValidationError, match=f":1: n = {n!r} is not an integer"):
        read_jsonl(target)


@pytest.mark.parametrize("n, tri", [(1, []), (2, [[2]])])
def test_an_n_below_3_is_refused(n, tri, tmp_path):
    with pytest.raises(ValidationError, match=f"need n >= 3, got n = {n}"):
        FMatrix(n, np.array(tri, dtype=np.int64).reshape(n - 1, n - 1)).validate_static()
    target = tmp_path / "small.jsonl"
    target.write_text(json.dumps({"n": n, "tri": tri}) + "\n")
    with pytest.raises(ValidationError, match=f":1: F-matrices need n >= 3"):
        read_jsonl(target)


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


# The block reader against the per-line reference in reader_oracle: on
# corpora around the block size, with blank lines and up to two corrupted
# lines, both yield the same matrices and then raise the same message.
PER_BLOCK = 8
CORPUS_SIZES = (1, PER_BLOCK - 1, PER_BLOCK, PER_BLOCK + 1, 3 * PER_BLOCK)
LINE_FAULTS = ("json", "key", "bool", "big", "float", "row", "diagonal", "subdiagonal",
               "negative", "fall", "infeasible", "mixed")


def _static_fault(fmat):
    try:
        reader_oracle.validate_static(fmat)
    except ValidationError as exc:
        return str(exc)
    return None


def _corrupt_tri(tri, kind, spot):
    """Give the lower triangle ``tri`` (lists, changed in place) a fault of
    ``kind``; ``spot`` picks where."""
    n = len(tri) + 1
    i = spot % (n - 1)
    if kind == "diagonal":
        tri[i][i] += 1 + spot % 3
    elif kind == "subdiagonal":
        tri[1 + spot % (n - 2)][spot % (n - 2)] -= 1
    elif kind in ("bool", "big", "float"):
        tri[i][spot % (i + 1)] = {"bool": True, "big": 2 ** 63, "float": 1.0}[kind]
    elif kind == "row":
        tri[i].append(0)
    else:
        # a change below the subdiagonal: a negative entry, a fall of 2
        # from the entry above, or one that keeps every column a state but
        # breaks a transition, when some change does
        below = [(r, c) for r in range(2, n - 1) for c in range(r - 1)]
        r, c = below[spot % len(below)]
        if kind == "negative":
            tri[r][c] = -1
        elif kind == "fall":
            tri[r][c] = tri[r - 1][c] - 2
        else:
            for r, c in below[spot % len(below):] + below[:spot % len(below)]:
                for step in (1, -1):
                    tri[r][c] += step
                    if "infeasible" in (_static_fault(reader_oracle.from_tri(n, tri)) or ""):
                        return
                    tri[r][c] -= step
            tri[r][c] = -1


def _corrupt(line, kind, spot):
    if kind == "json":
        return line[:len(line) // 2]
    obj = json.loads(line)
    if kind == "key":
        del obj[("n", "tri")[spot % 2]]
    elif kind == "mixed":
        obj = json.loads(_line(sample_beta_fmatrices(BetaConfig(0.0, obj["n"] + 1, spot), 1)[0]))
    else:
        _corrupt_tri(obj["tri"], kind, spot)
    return json.dumps(obj)


def _read(reader, path):
    """The matrices ``reader`` yields from ``path``, and the message it then raises."""
    out = []
    try:
        for fmat in reader(path):
            out.append(fmat)
    except ValidationError as exc:
        return out, str(exc)
    return out, None


def _check_reader(tmp_path, lines, blank):
    """Write ``lines`` with a blank line after each index in ``blank``, and
    compare the two readers with blocks of about PER_BLOCK lines."""
    text = "".join(line + "\n" + ("  \n" if k in blank else "") for k, line in enumerate(lines))
    path = tmp_path / "corpus.jsonl"
    path.write_text(text, encoding="utf-8")
    block = sum(len(line) + 1 for line in lines[:PER_BLOCK])
    with mock.patch.object(fmatrix_module, "BLOCK_BYTES", block):
        got = _read(fmatrix_module.iter_jsonl, path)
    assert got == _read(reader_oracle.iter_jsonl, path)
    return got


@given(n=st.integers(5, 8), size=st.sampled_from(CORPUS_SIZES), seed=st.integers(0, 2 ** 16),
       faults=st.lists(st.tuples(st.sampled_from(LINE_FAULTS), st.integers(0, 10 ** 6),
                                 st.integers(0, 2 * PER_BLOCK - 2)), max_size=2),
       blank=st.sets(st.integers(0, 3 * PER_BLOCK)))
def test_block_reader_equals_the_per_line_reader(tmp_path_factory, n, size, seed, faults, blank):
    """One fault at a random line, or two: the second, when drawn, lies
    within a block of the first, before or after it."""
    lines = [_line(f) for f in sample_beta_fmatrices(BetaConfig(-1.0, n, seed), size)]
    first = None
    for kind, spot, offset in faults:
        if first is None:
            k = first = spot % size
        else:
            k = min(max(first - PER_BLOCK + 1 + offset, 0), size - 1)
            if k == first:
                continue
        lines[k] = _corrupt(lines[k], kind, spot)
    _check_reader(tmp_path_factory.mktemp("reader"), lines, blank)


@pytest.mark.parametrize("kinds", [("json", "diagonal"), ("diagonal", "json"),
                                   ("float", "fall"), ("fall", "float"),
                                   ("big", "infeasible"), ("infeasible", "big"),
                                   ("row", "negative"), ("negative", "row")])
def test_first_bad_line_of_a_block_wins(tmp_path, kinds):
    """Of two bad lines in one block, the earlier is refused, whether it is
    caught while parsing or only when the block is checked."""
    lines = [_line(f) for f in sample_beta_fmatrices(BetaConfig(-1.0, 7, 5), 20)]
    lines[10] = _corrupt(lines[10], kinds[0], 3)
    lines[13] = _corrupt(lines[13], kinds[1], 4)
    got, message = _check_reader(tmp_path, lines, blank={4})
    assert len(got) == 10 and message.startswith(f"{tmp_path / 'corpus.jsonl'}:12: ")


# Respellings of a canonical line, each a function of it: json reads some
# and refuses others, and the reader must agree with the per-line reader
# on each, whichever route it takes.
def _swapped_keys(line):
    obj = json.loads(line)
    return json.dumps({"tri": obj["tri"], "n": obj["n"]})


def _with_entry(text):
    """A spelling that writes ``text`` in place of the last entry of row 3."""
    def spell(line):
        head, sep, tail = line.partition("], [")
        row3, sep2, rest = tail.partition("], [")
        row3 = row3.rpartition(", ")[0] + ", " + text
        return head + sep + row3 + sep2 + rest
    return spell


SPELLINGS = {
    "swapped keys": _swapped_keys,
    "another key than n": lambda line: line.replace('"n"', '"m"', 1),
    "no spaces": lambda line: json.dumps(json.loads(line), separators=(",", ":")),
    "extra spaces": lambda line: line.replace(", ", ",  ").replace('"n": ', '"n":   '),
    "space before the line": lambda line: " " + line,
    "leading zero in n": lambda line: line.replace('"n": ', '"n": 0', 1),
    "leading zero in an entry": _with_entry("03"),
    "19-digit entry": _with_entry("3000000000000000000"),
    "19-digit entry past int64": _with_entry("9300000000000000000"),
    "18-digit entry": _with_entry("300000000000000000"),
    "negative entry": _with_entry("-3"),
    "float entry": _with_entry("3.0"),
    "bool entry": _with_entry("true"),
    "non-ASCII digit": _with_entry("\u0663"),
    "non-ASCII digit after a digit": _with_entry("3\u0663"),
    "fullwidth digit": _with_entry("\uff13"),
    "n of another tree": lambda line: _line(sample_beta_fmatrices(BetaConfig(0.0, 8, 1), 1)[0]),
    "n off by one": lambda line: line.replace('"n": 7', '"n": 8', 1),
    "empty entry": _with_entry(""),
    "cut short": lambda line: line[:len(line) // 2],
    "digit between two rows": lambda line: line.replace("], [", "], 5[", 1),
}


@pytest.mark.parametrize("spelling", sorted(SPELLINGS))
def test_reader_equals_the_per_line_reader_on_other_spellings(tmp_path, spelling):
    """Lines respelled as json allows, or as it refuses, at none, one, two
    or many places of a corpus of canonical lines with LF or CRLF endings,
    with or without a final newline, and with or without a diagonal fault
    later on: the block reader yields the same matrices and then raises
    the same message as the per-line reader."""
    mats = sample_beta_fmatrices(BetaConfig(-1.0, 7, 11), 21)
    path = tmp_path / "corpus.jsonl"
    for where, ending, fault in itertools.product(
            [(), (5,), (9, 10), (20,), tuple(range(0, 21, 3))], ["\n", "\r\n", None],
            [None, 14]):
        lines = [_line(f) for f in mats]
        if fault is not None:
            lines[fault] = _corrupt(lines[fault], "diagonal", 2)
        for k in where:
            lines[k] = SPELLINGS[spelling](lines[k])
        data = "\n".join(lines) if ending is None else "".join(line + ending for line in lines)
        path.write_bytes(data.encode("utf-8"))
        block = sum(len(line) + 1 for line in lines[:PER_BLOCK])
        with mock.patch.object(fmatrix_module, "BLOCK_BYTES", block):
            got = _read(fmatrix_module.iter_jsonl, path)
        assert got == _read(reader_oracle.iter_jsonl, path), (where, ending, fault)
        if not where and fault is None:
            assert got == (mats, None)


@pytest.mark.parametrize("n", [3, 9, 25])
def test_canonical_lines_are_read_without_json(tmp_path, n):
    """A corpus as the writer spells it never reaches json, also without
    its final newline: each block is read as one array of digits, and
    yields what json reads."""
    mats = sample_beta_fmatrices(BetaConfig(0.5, n, 2), 300)
    path = tmp_path / "corpus.jsonl"
    text = "".join(jsonl_text(mats))
    for data in (text, text[:-1]):
        path.write_text(data, encoding="utf-8")
        with mock.patch.object(fmatrix_module.json, "loads", side_effect=AssertionError("json")):
            got = read_jsonl(path)
        assert got == mats == list(reader_oracle.iter_jsonl(path))


@pytest.mark.parametrize("n", [*range(3, 31), 100])
def test_writer_spells_each_line_as_json_does(n):
    """Each line the writer emits is json.dumps of its {n, tri} object and
    a newline, for either sampler up to n = 30 and for beta trees at n =
    100, whose numbers take up to three digits, across the writer's groups
    of trees."""
    beta = sample_beta_fmatrices(BetaConfig(-1.0, n, n), 2 * fmatrix_module.WRITE_TREES + 3)
    kingman = []
    if n <= 30:
        space = enumerate_states(n)
        kingman = paths_to_fmatrices(space, sample_paths(space, 70, seed=np.random.default_rng(n)))
    for mats in (beta, kingman, beta[:1]):
        assert "".join(jsonl_text(mats)) == "".join(_line(f) + "\n" for f in mats)
        assert all(len(text.splitlines()) <= fmatrix_module.WRITE_TREES
                   for text in jsonl_text(mats))


@pytest.mark.parametrize("value", [-1, 7])
def test_writer_refuses_an_entry_outside_0_to_n(value):
    """The writer's template holds the numbers 0..n, the range of an
    F-matrix's entries."""
    arr = sample_beta_fmatrices(BetaConfig(0.0, 6, 1), 1)[0].entries.copy()
    arr[4, 0] = value
    with pytest.raises(ValidationError, match=r"lie in \[0, 6\]"):
        list(jsonl_text([FMatrix(6, arr)]))


@given(count=st.integers(1, 6), seed=st.integers(0, 2 ** 16),
       faults=st.lists(st.tuples(st.integers(0, 5), st.sampled_from(
           ("upper", "diagonal", "subdiagonal", "negative", "fall", "infeasible", "entry")),
           st.integers(0, 10 ** 6)), max_size=2))
def test_stack_check_names_the_first_bad_matrix(count, seed, faults):
    """The whole-stack check finds the first matrix that the per-matrix
    check refuses, with its message; this covers the zeros above the
    diagonal, which a lower triangle read from JSON cannot break."""
    n = 7
    mats = sample_beta_fmatrices(BetaConfig(0.5, n, seed), count)
    stack = np.stack([f.entries for f in mats])
    for index, kind, spot in faults:
        arr = stack[index % count]
        if kind == "upper":
            arr[spot % (n - 2), n - 2] = 1 + spot % 3
        elif kind == "entry":
            arr[spot % (n - 1), spot % (n - 1)] = spot % 9 - 1
            arr.flat[spot % arr.size] = spot % 7 - 1
        else:
            tri = FMatrix(n, arr).tri()
            _corrupt_tri(tri, kind, spot)
            arr[np.tri(n - 1, dtype=bool)] = [v for row in tri for v in row]
    expected = next(((k, message) for k, arr in enumerate(stack)
                     if (message := _static_fault(FMatrix(n, arr))) is not None), None)
    assert fmatrix_module._first_fault(stack) == expected


def _outcome(call):
    """What ``call()`` returns, or the message of the ValidationError it raises."""
    try:
        return call()
    except ValidationError as exc:
        return str(exc)


def _stats_fields(stats):
    """The fields of a SampleStats, arrays as (dtype, bytes), so that == is bitwise."""
    if isinstance(stats, str):
        return stats
    return [(v.dtype, v.tobytes()) if isinstance(v, np.ndarray) else (type(v), v)
            for v in vars(stats).values()]


def _mean_entries(mean):
    if isinstance(mean, str):
        return mean
    return mean.n, [(type(v), v) for v in mean.M.flat]


@given(n=st.integers(3, 8), size=st.sampled_from((0,) + CORPUS_SIZES),
       seed=st.integers(0, 2 ** 16), mixed=st.none() | st.integers(0, 3 * PER_BLOCK))
def test_corpus_sums_equal_the_per_tree_loops(tmp_path_factory, n, size, seed, mixed):
    """The test summaries and the sample mean of an empty corpus, of one
    tree, of one block and of several blocks, and of a corpus with one
    tree of another n, read from a list and streamed from ``iter_jsonl``:
    the same fields bit for bit, or the same message, as the per-tree loops
    of sums_oracle."""
    mats = sample_beta_fmatrices(BetaConfig(-1.0, n, seed), size)
    if mixed is not None and size:
        mats[mixed % size] = sample_beta_fmatrices(BetaConfig(0.0, n + 1, seed), 1)[0]
    path = tmp_path_factory.mktemp("sums") / "corpus.jsonl"
    path.write_text("".join(_line(f) + "\n" for f in mats))
    want_stats = _stats_fields(_outcome(lambda: sums_oracle.sample_stats(mats)))
    # the sample mean refuses what the summaries refuse
    want_mean = _outcome(lambda: sums_oracle.sample_stats(mats))
    if not isinstance(want_mean, str):
        want_mean = mats[0].n, [(Fraction, v) for v in sums_oracle.mean_entries(mats).flat]
    block = sum(len(_line(f)) + 1 for f in mats[:PER_BLOCK])
    with mock.patch.object(fmatrix_module, "BLOCK_BYTES", block):
        for source in (lambda: mats, lambda: iter_jsonl(path)):
            got = _outcome(lambda: SampleStats.from_fmatrices(source()))
            assert _stats_fields(got) == want_stats
            assert _mean_entries(_outcome(lambda: mean_matrix_sample(source()))) == want_mean


def test_corpus_sums_read_each_matrix_once():
    """A one-shot iterator is enough, and the matrices it yields are not changed."""
    mats = sample_beta_fmatrices(BetaConfig(0.5, 6, 3), 5)
    before = [f.entries.copy() for f in mats]
    n, m, total, e = corpus_sums(iter(mats))
    assert (n, m) == (6, 5)
    assert np.array_equal(total, sum(before)) and total.dtype == np.int64
    assert e.tolist() == np.bincount([balance_E(f) for f in mats]).tolist()
    assert e.dtype == np.int64 and len(e) == max(map(balance_E, mats)) + 1 <= 6 * 6
    assert all(np.array_equal(f.entries, b) for f, b in zip(mats, before))
