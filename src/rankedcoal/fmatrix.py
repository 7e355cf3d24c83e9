"""F-matrix representation: path decoding, the split record, distance, balance.

Column j of an F-matrix is the chain state at step n-1-j; the diagonal
F_jj = j+1 and subdiagonal F_{j+1,j} = j are fixed, and the non-fixed
entries {F_ij : 1 <= j <= n-3, j+2 <= i <= n-1} carry all randomness.
"""

import functools
import json
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from ._common import CapacityError, ValidationError

# Peak bytes per entry of the q x q covariance of the non-fixed entries:
# at most seven 8-byte q x q arrays are alive while the Kingman null is
# built and inverted (6.4 at n = 60). The budget first refuses n = 82;
# below it the int64 sums of numerators, under q^2 n^4, fit int64.
NULL_BYTES_PER_PAIR = 56
NULL_MAX_BYTES = 512 << 20


def merges(states):
    """The merged pair of every step of a run of states on consecutive tiers.

    Row r+1 of the (m, n-1) array ``states`` is meant to follow row r by one
    coalescence. Returns an (m-1, 2) int64 array whose row r holds the
    1-based decremental indices (i, k), i <= k, of the pair that merges from
    row r to row r+1 (index n-1 is an external lineage), or (0, 0) when no
    pair does. The pair solves d(x) - d(y) + e_nu = e_i + e_k, where d is
    the code (decremental bits, then the external count) and nu = max(x) - 2
    = n-2-t is the decremental index of the lineage the merge creates.

    An int32 array is read as it is, and anything else as int64.
    """
    x = np.asarray(states)
    if x.dtype != np.int32:
        x = x.astype(np.int64, copy=False)
    n = x.shape[1] + 1
    code = np.empty_like(x)
    np.maximum(np.subtract(x[:, :-1], x[:, 1:], out=code[:, :-1]), 0, out=code[:, :-1])
    code[:, -1] = x[:, -1]
    diff = code[:-1] - code[1:]
    diff[np.arange(len(diff)), x[:-1].max(axis=1) - 3] += 1
    # two units on two indices, or both on the external index
    ok = (diff.sum(axis=1) == 2) & (diff.min(axis=1) >= 0) & (diff[:, :-1].max(axis=1) <= 1)
    hit = diff > 0
    pairs = np.stack([hit.argmax(axis=1) + 1, n - 1 - hit[:, ::-1].argmax(axis=1)], axis=1)
    return pairs * ok[:, None]


@dataclass(frozen=True)
class FMatrix:
    """Lower-triangular integer encoding of one ranked unlabelled tree."""

    n: int
    entries: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.entries, dtype=np.int64)
        if arr.shape != (self.n - 1, self.n - 1):
            raise ValidationError(
                f"F-matrix for n = {self.n} must be {self.n - 1}x{self.n - 1}, got {arr.shape}"
            )
        object.__setattr__(self, "entries", arr)

    def __eq__(self, other):
        return (
            isinstance(other, FMatrix)
            and self.n == other.n
            and bool(np.array_equal(self.entries, other.entries))
        )

    def __hash__(self):
        return hash((self.n, self.entries.tobytes()))

    def tri(self):
        """Lower triangle row by row, for the fmat.jsonl format."""
        return [row[:i + 1] for i, row in enumerate(self.entries.tolist())]

    def validate_static(self):
        """Check that the matrix is the F-matrix of a chain path, without a state space.

        Fixed diagonal and subdiagonal, zeros above the diagonal, no negative
        entry, each column a state (entries below the diagonal fall by 0 or
        1 per row), and each column one Kingman coalescence after the column
        to its right.
        """
        fault = _first_fault(self.entries[None])
        if fault:
            raise ValidationError(fault[1])
        return self


def _tri_entries(n, tri):
    """The entries of the lower triangle ``tri`` of an F-matrix of n, row by
    row: n must be an integer and row i must hold i entries."""
    if type(n) is not int:
        raise ValidationError(f"n = {n!r} is not an integer")
    if len(tri) != n - 1 or any(len(row) != i + 1 for i, row in enumerate(tri)):
        raise ValidationError("tri rows must have lengths 1..n-1")
    return [v for row in tri for v in row]


def _stack(n, count, entries):
    """The ``count`` lower triangles of F-matrices of n whose entries
    ``entries`` lists row by row, one triangle after another, as a
    (count, n-1, n-1) int64 stack, and None; or, if some entry is not an
    integer within int64, the stack of the triangles before the first such
    entry's, and the message that names that entry."""
    size = n * (n - 1) // 2
    try:
        flat = np.array(entries, dtype=np.int64) if set(map(type, entries)) <= {int} else None
    except OverflowError:
        flat = None
    fault = None
    if flat is None:
        p, v = next((p, v) for p, v in enumerate(entries)
                    if type(v) is not int or not -2 ** 63 <= v < 2 ** 63)
        count, p = divmod(p, size)
        i = (1 + math.isqrt(8 * p + 1)) // 2  # row i holds entries i(i-1)/2 .. i(i+1)/2 - 1
        fault = f"row {i}, entry {p - i * (i - 1) // 2 + 1}: {v!r} is not an integer within int64"
        flat = np.array(entries[:count * size], dtype=np.int64)
    stack = np.zeros((count, n - 1, n - 1), dtype=np.int64)
    stack[:, np.tri(n - 1, dtype=bool)] = flat.reshape(count, size)
    return stack, fault


def _first_fault(stack):
    """The first matrix of a (b, n-1, n-1) int64 stack that fails
    ``FMatrix.validate_static``, as (index, its message), or None.

    Each check runs once over the whole stack, and a matrix's message is
    that of its first failing check, in the order of the docstring there.
    """
    b, n = len(stack), stack.shape[1] + 1
    fall = stack[:, :-1] - stack[:, 1:]
    # fall[:, k, c] = F_{k+1,c+1} - F_{k+2,c+1}; on and below the diagonal
    # it is the 0/1 decremental code of column c+1, above it <= 0.
    checks = [
        (np.full((b, 1), n < 3), lambda a, _: f"F-matrices need n >= 3, got n = {n}"),
        (np.diagonal(stack, 0, 1, 2) != np.arange(2, n + 1),
         lambda a, i: f"diagonal F_{i + 1},{i + 1} = {a[i, i]}, expected {i + 2}"),
        (np.diagonal(stack, -1, 1, 2) != np.arange(1, n - 1),
         lambda a, j: f"subdiagonal F_{j + 2},{j + 1} = {a[j + 1, j]}, expected {j + 1}"),
        ((stack != 0) & ~np.tri(*stack.shape[1:], dtype=bool),
         lambda a, *_: "entries above the diagonal must be 0"),
        (stack < 0, lambda a, *_: "negative entry"),
        (((fall < 0) | (fall > 1)) & np.tri(*fall.shape[1:], dtype=bool),
         lambda a, k, c: f"column {c + 1}: F_{k + 2},{c + 1} = {a[k + 1, c]} is not "
                         f"F_{k + 1},{c + 1} = {a[k, c]} or one less"),
    ]
    bad = np.zeros(b, dtype=bool)
    for mask, _ in checks:
        bad |= mask.any(axis=tuple(range(1, mask.ndim)))
    first = int(bad.argmax()) if bad.any() else b
    if first:
        # the matrices before the first static fault, as one run of states:
        # row t of matrix i is its column n-1-t, the state at step t, and the
        # merge from each matrix's last state to the next one's first is
        # ignored; the static checks bound the entries to [0, n], so they
        # fit int32, on which the pass runs about a third faster
        states = stack[:first, :, ::-1].transpose(0, 2, 1).astype(np.int32).reshape(-1, n - 1)
        infeasible = np.zeros((first, n - 1), dtype=bool)
        infeasible.flat[:-1] = merges(states)[:, 0] == 0
        infeasible = infeasible[:, :-1]
        if infeasible.any():
            i, t = (int(v) for v in np.argwhere(infeasible)[0])
            return i, f"column {n - 2 - t}: infeasible transition from column {n - 1 - t}"
    if first == b:
        return None
    mask, message = next(check for check in checks if check[0][first].any())
    return first, message(stack[first], *(int(v) for v in np.argwhere(mask[first])[0]))


def path_to_fmatrix(space, path):
    """F-matrix whose column n-1-t is the state at step t of the path."""
    from .kingman import validate_path

    return paths_to_fmatrices(space.n, [validate_path(space, path)])[0]


def paths_to_fmatrices(n, paths):
    """F-matrices of a (count, n-1) array of 1-based index paths of X_n,
    each state decoded from its key, with no state space.

    Step t of a path must index a tier-t state, as in every path that
    ``validate_path`` accepts or ``kingman.sample_paths`` draws. The steps
    are checked with one ``merges`` call over all paths, and the first that
    is not one coalescence is refused, naming it.
    """
    from .statespace import _tier_offsets, _unrank, keys_to_states

    index = np.asarray(paths, dtype=np.int64).reshape(-1, n - 1)
    offsets = _tier_offsets(n)
    # states[p, t] is the state at step t of path p; entries are at most n,
    # so int32 holds them, on which ``merges`` runs faster
    states = np.empty((len(index), n - 1, n - 1), dtype=np.int32)
    for t in range(n - 1):
        keys_to_states(_unrank(n, t, index[:, t] - 1 - offsets[t]), n, t, states[:, t])
    # the merge from each path's last state to the next path's first is ignored
    infeasible = np.zeros((len(index), n - 1), dtype=bool)
    infeasible.flat[:-1] = merges(states.reshape(-1, n - 1))[:, 0] == 0
    bad = np.argwhere(infeasible[:, :-1])
    if len(bad):
        p, t = (int(v) for v in bad[0])
        raise ValidationError(
            f"infeasible transition {index[p, t]} -> {index[p, t + 1]} at step {t}")
    # F's column n-1-t is the state at step t
    return [FMatrix(n, run[::-1].T) for run in states]


def _split_counts(ranks):
    """F from a split record P, trees along the last axis: an
    (n-1, n-1, m) int64 array with F_ij at [i-1, j-1] (1-based, i >= j);
    entries above the diagonal are not F.

    F_ij counts the j+1 lineages of epoch j (the blocks born at rank
    <= j+1 and not split by event j+1) that are still unsplit after event
    i+1. Such a block is split, if at all, by one event ev >= j+2, and an
    event ev >= j+2 splits one of them exactly when its block was born at
    rank P_ev <= j+1. So

        F_ij = (j+1) - #{ev in [j+2, i+1] : P_ev <= j+1}.

    Every event ev <= j+1 has P_ev < ev <= j+1, so with the running count
    C_ij = #{ev in [2, i+1] : P_ev <= j+1} this is F_ij = 2j + 1 - C_ij.
    """
    e, m = ranks.shape
    j = np.arange(1, e + 1)[:, None]
    # one (n-1, n-1, m) array, counted and turned into F in place; with
    # the trees last, each step runs over contiguous rows of m values
    f = np.empty((e, e, m), np.int64)
    np.less_equal(ranks[:, None, :], j + 1, out=f)
    np.cumsum(f, axis=0, out=f)
    np.subtract(2 * j + 1, f, out=f)
    return f


def fmatrix_entries(ranks):
    """The F-matrices of a split record (see ``_split_counts``), as an
    (m, n-1, n-1) int64 array with zeros above the diagonal."""
    f = np.ascontiguousarray(_split_counts(ranks).transpose(2, 0, 1))
    f *= np.tri(len(ranks), dtype=bool)
    return f


def split_record(stack):
    """The split record P of a checked (m, n-1, n-1) stack of F-matrices,
    the inverse of ``fmatrix_entries``: an (n-1, m) int64 array, trees along
    the last axis, whose P[ev-2] is the rank of the parent of the node of
    rank ev (0 for the root), which is the birth rank of the block that
    event ev splits.

    By ``_split_counts``, F_{i-1,j} - F_ij = [P_{i+1} <= j + 1] for j < i,
    and F_{i-1,j} <= F_ij = 0 or i + 1 for j >= i. So P_{i+1} is the least
    j + 1 at which F_{i-1,j} > F_ij.
    """
    ranks = np.zeros((stack.shape[1], len(stack)), np.int64)
    ranks[1:] = (stack[:, :-1] > stack[:, 1:]).argmax(axis=2).T + 2
    return ranks


def _node_sizes(ranks):
    """(size, child) of the internal nodes of the trees of a split record
    P, two (n-1, m) int64 arrays indexed like P by rank - 2: the leaf count
    of the node of each rank, and the leaf count of one of its children:
    its split child of lowest rank, or a leaf if both children are leaves.

    One pass over the events ev = n..3, each node's size complete before
    its parent's is read: a node has two leaves until a child splits, and a
    child of size s adds s - 1.
    """
    size = np.full(ranks.shape, 2, np.int64)
    child = np.ones(ranks.shape, np.int64)
    cols = np.arange(ranks.shape[1])
    for ev in range(len(ranks) + 1, 2, -1):
        parent = ranks[ev - 2] - 2
        size[parent, cols] += size[ev - 2] - 1
        child[parent, cols] = size[ev - 2]
    return size, child


def _balance_rows(entries):
    """E, S, Sackin and Colless of each of m checked F-matrices of one n,
    given as a sequence of their entries, as an (m, 4) int64 array (see
    ``balance_E``, ``balance_S``, ``sackin`` and ``colless``)."""
    stack = np.stack(entries)
    rows, cols = _nonfixed_index(stack.shape[1] + 1)
    size, child = _node_sizes(split_record(stack))
    return np.column_stack([stack[:, -1].sum(axis=1), stack[:, rows, cols].sum(axis=1),
                            size.sum(axis=0), np.abs(2 * child - size).sum(axis=0)])


def distance(f1, f2):
    """Frobenius distance between two F-matrices of the same n."""
    return math.sqrt(distance_sq(f1, f2))


def distance_sq(f1, f2):
    if f1.n != f2.n:
        raise ValidationError(f"dimension mismatch: n = {f1.n} vs {f2.n}")
    diff = f1.entries - f2.entries
    return int((diff * diff).sum())


def balance_E(fmat):
    """External branch length: sum of the last row."""
    return int(fmat.entries[-1].sum())


def balance_S(fmat):
    """Sum of the non-fixed entries."""
    return int(nonfixed_vector(fmat).sum())


def sackin(fmat):
    """Sum of leaf depths of the encoded tree: each leaf counts once per
    internal node above it, so this is the sum of internal node sizes."""
    return int(_balance_rows([fmat.validate_static().entries])[0, 2])


def colless(fmat):
    """Sum over the internal nodes of the encoded tree of |left leaf count
    - right leaf count|."""
    return int(_balance_rows([fmat.validate_static().entries])[0, 3])


def nonfixed_positions(n):
    """Non-fixed index pairs (i, j), row-wise: (3,1), (4,1), (4,2), ..."""
    return [(i, j) for i in range(3, n) for j in range(1, i - 1)]


def kingman_moment_terms(n):
    """E[F] and Cov(F, F) of the non-fixed entries under the Kingman law as
    exact int64 fractions, once n < 4 and n over the byte budget are refused.

    Forward in time, the split that takes row r to row r+1 (r+1 to r+2
    lineages) removes one of the F_rj unsplit lineages of column j with
    probability F_rj / (r+1), so E[F_ij] = j(j+1)/i, and for j <= k <= r,
    r(r-1) E[F_rj F_rk] grows by j(j+1) from each row to the next, and
    E[F_Mk | row e] = F_ek e/M for k <= e <= M. For positions (a, j),
    (b, k) with j <= k this gives

        Cov = j(j+1) x(x-1) / (e(e-1) M),  e = min(a, b), M = max(a, b),
                                           x = max(e - k, 0).

    Returns ``(mean_num, mean_den, cov_num, cov_key, den_of_key)`` in
    ``nonfixed_positions`` order: the covariance denominator of a pair
    is ``den_of_key[cov_key]``, with key e n + M. Numerators stay below
    n^4 and denominators below n^3.
    """
    if n < 4:
        raise ValidationError("non-fixed moments require n >= 4")
    q = (n - 2) * (n - 3) // 2
    if NULL_BYTES_PER_PAIR * q * q > NULL_MAX_BYTES:
        raise CapacityError(
            f"the Kingman moments at n = {n} need about {NULL_BYTES_PER_PAIR * q * q >> 20} MiB "
            f"for their {q} x {q} covariance, over the budget of {NULL_MAX_BYTES >> 20} MiB")
    i, j = np.array(nonfixed_positions(n), dtype=np.int64).T
    e = np.minimum.outer(i, i)
    x = e - np.maximum.outer(j, j)
    np.maximum(x, 0, out=x)
    x *= x - 1
    lo = np.minimum.outer(j, j)
    x *= lo * (lo + 1)
    del lo
    e *= n
    e += np.maximum.outer(i, i)
    rows = np.arange(n, dtype=np.int64)
    den_of_key = (rows * (rows - 1))[:, None] * rows[None, :]
    return j * (j + 1), i, x, e, den_of_key.ravel()


def _exact_sum(num, key, den_of_key):
    """sum num / den_of_key[key] as a Fraction: numerators are added per
    key in int64, then the few distinct fractions in Python ints."""
    acc = np.zeros(len(den_of_key), dtype=np.int64)
    np.add.at(acc, key.ravel(), num.ravel())
    return sum((Fraction(int(a), int(den_of_key[k])) for k, a in enumerate(acc) if a),
               Fraction(0))


def kingman_se_moments(n, terms):
    """(E[S], E[E], Var S, Cov(S, E), Var E) under the Kingman law as exact
    Fractions, summed from ``terms = kingman_moment_terms(n)``: S is the sum
    of the non-fixed entries, and E adds the fixed last-row entries n and
    n-2 to the last row's non-fixed part."""
    mean_num, mean_den, cov_num, cov_key, den_of_key = terms
    last = slice(len(mean_num) - (n - 3), None)
    # a mean's denominator is its row i, which also serves as its key
    row_den = np.arange(n, dtype=np.int64)
    return (_exact_sum(mean_num, mean_den, row_den),
            _exact_sum(mean_num[last], mean_den[last], row_den) + 2 * n - 2,
            _exact_sum(cov_num, cov_key, den_of_key),
            _exact_sum(cov_num[:, last], cov_key[:, last], den_of_key),
            _exact_sum(cov_num[last, last], cov_key[last, last], den_of_key))


@functools.lru_cache(maxsize=64)
def _nonfixed_index(n):
    """0-based (rows, cols) of the non-fixed positions, row-wise."""
    index = np.array(nonfixed_positions(n), dtype=np.intp).reshape(-1, 2).T - 1
    index.setflags(write=False)
    return index[0], index[1]


def nonfixed_vector(fmat):
    """Non-fixed entries in row-wise order."""
    rows, cols = _nonfixed_index(fmat.n)
    return fmat.entries[rows, cols]


@functools.lru_cache(maxsize=64)
def _line_layout(n):
    """The fmat.jsonl line of an F-matrix of n as ``json.dumps`` writes its
    {n, tri} object, with a newline, as its skeleton, the bytes of the line
    with every number removed, and each number's gap, the count of
    skeleton bytes before it: n's first, then the lower triangle's entries
    row by row."""
    rows = ", ".join("[" + ", ".join(["%d"] * (i + 1)) + "]" for i in range(n - 1))
    parts = ('{"n": %d, "tri": [' + rows + "]}\n").split("%d")
    gaps = np.cumsum([len(part) for part in parts[:-1]])
    gaps.setflags(write=False)
    return "".join(parts).encode("ascii"), gaps


@functools.lru_cache(maxsize=64)
def _line_template(n):
    """The line of ``_line_layout(n)`` as a uint8 array, with n in place
    and a slot of zero bytes in each entry's gap, as wide as n, the largest
    entry; the index of each slot byte, slot by slot; and the slot bytes
    of each value 0..n, right-aligned on zero bytes."""
    skeleton, gaps = _line_layout(n)
    width = len(str(n))
    fill = np.zeros(width * len(gaps), dtype=np.uint8)
    fill[:width] = np.frombuffer(str(n).encode("ascii"), dtype=np.uint8)
    template = np.insert(np.frombuffer(skeleton, dtype=np.uint8), np.repeat(gaps, width), fill)
    slots = (gaps + width * np.arange(len(gaps)))[1:, None] + np.arange(width)
    text = "".join(str(v).rjust(width, "\0") for v in range(n + 1))
    digits = np.frombuffer(text.encode("ascii"), dtype=np.uint8).reshape(n + 1, width)
    return template, slots.ravel(), digits


# Trees per template fill of the writer. At n = 25, groups of 16, 32 and
# 64 trees wrote 1,000 trees in about the same time, but with 64 the peak
# RSS of a `simulate --model kingman` call was 0.3 MB above that with 32.
WRITE_TREES = 32


def jsonl_text(fmats):
    """The fmat.jsonl lines of a list of F-matrices of one n, a string of
    at most WRITE_TREES lines at a time: each line is
    ``json.dumps({"n": n, "tri": fmat.tri()})`` and a newline.

    Each group of trees fills one copy of n's line template per tree with
    the slot bytes of its lower-triangle entries, row by row, and then
    deletes the zero bytes left in the slots.
    """
    for lo in range(0, len(fmats), WRITE_TREES):
        part = fmats[lo:lo + WRITE_TREES]
        n = part[0].n
        tri = np.stack([f.entries for f in part])[:, np.tri(n - 1, dtype=bool)]
        if tri.min() < 0 or tri.max() > n:
            raise ValidationError(f"the entries of an F-matrix of n = {n} lie in [0, {n}]")
        template, slots, digits = _line_template(n)
        text = np.tile(template, (len(part), 1))
        text[:, slots] = digits.take(tri, axis=0).reshape(len(part), -1)
        yield text.tobytes().translate(None, b"\0").decode("ascii")


def iter_jsonl(path):
    """Yield F-matrices from a fmat.jsonl file, each checked by ``validate_static``;
    a malformed line is refused with its number, once the lines before it
    have been yielded.

    The lines are read in blocks of about BLOCK_BYTES of text that start
    alike up to their first "[", and each block is checked as one stack
    (see ``_first_fault``). A block of lines that are each just as
    ``jsonl_text`` writes them is parsed as one array of digits (see
    ``_parse_block``); any other block goes line by line through ``json``.
    """
    with open(path, "r", encoding="utf-8") as fh:
        head, linenos, lines, size = None, [], [], 0
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            if lines and (size >= BLOCK_BYTES or not line.startswith(head)):
                yield from _read_block(path, head, linenos, lines)
                linenos, lines, size = [], [], 0
            if not lines:
                head = line.partition("[")[0]
            linenos.append(lineno)
            lines.append(line)
            size += len(line)
        yield from _read_block(path, head, linenos, lines)


# Text per block: about 60 trees at n = 25, where a line is about 1 KB.
# Reading 1,000 such trees took 0.06-0.07 s with blocks of 16 KiB to
# 1 MiB, but the peak RSS of a `test` call rose from 37 MB at 64 KiB to
# 61 MB at 1 MiB, from the block's parsed lines and check temporaries.
BLOCK_BYTES = 1 << 16
# The longest number the digit parser reads: 10^18 - 1 < 2^63. A longer
# one, which may still fit int64, sends its block through ``json``.
MAX_DIGITS = 18


def _read_block(path, head, linenos, lines):
    """Yield the F-matrices of the lines ``lines`` (numbered ``linenos``),
    which all start with ``head``, up to the first that is malformed;
    refuse that one with its line number."""
    if not lines:
        return
    digits = head[6:-9]  # N of a head '{"n": N, "tri": '; _parse_block checks the rest
    n = int(digits) if digits.isascii() and digits.isdigit() and len(digits) <= MAX_DIGITS else 0
    # A line of n holds n(n-1)/2 entries, each a digit and a separator or
    # more, so the line bounds the size of the layout built for n.
    stack = _parse_block(n, lines) if 3 <= n and n * (n - 1) <= len(lines[0]) else None
    if stack is None:
        yield from _json_block(path, linenos, lines)
    else:
        yield from _checked(path, linenos, stack)


def _parse_block(n, lines):
    """The (count, n-1, n-1) int64 stack of the F-matrices of n that the
    lines ``lines``, which all start with '{"n": <n>, "tri": ', hold when
    each line is as ``jsonl_text`` writes it: ASCII, with the skeleton of n
    (see ``_line_layout``), and each number in its gap and of the form
    0|[1-9][0-9]{0,17}. Otherwise None.

    The block is read as one array of bytes: the non-digits bound each
    number's run of digits, and the numbers are summed from their digits
    with one multiply-add per digit position.
    """
    skeleton, gaps = _line_layout(n)
    text = "".join(lines)
    if text[-1] != "\n":  # the last line of a file without a final newline
        text += "\n"
    # the skeleton is ASCII, so a line with any other byte does not match it
    raw = text.encode("utf-8")
    if raw.translate(None, b"0123456789") != skeleton * len(lines):
        return None
    buf = np.frombuffer(raw, dtype=np.uint8)
    # number k of the block runs from after non-digit at[k] - 1 up to
    # non-digit at[k]; the digits of all runs add up to all digits only if
    # no other gap between two non-digits holds one
    nondigit = np.flatnonzero(buf - np.uint8(48) >= 10)
    at = (np.arange(len(lines))[:, None] * len(skeleton) + gaps).ravel()
    ends = nondigit[at]
    width = ends - nondigit[at - 1] - 1
    if width.min() < 1 or width.sum() != len(buf) - len(nondigit):
        return None
    if width.max() > MAX_DIGITS or ((width > 1) & (buf[ends - width] == 48)).any():
        return None
    values = buf[ends - 1] - np.int64(48)
    for p in range(1, int(width.max())):
        values += np.where(width > p, (buf[ends - 1 - p] - np.int64(48)) * 10 ** p, 0)
    stack = np.zeros((len(lines), n - 1, n - 1), dtype=np.int64)
    stack[:, np.tri(n - 1, dtype=bool)] = values.reshape(len(lines), len(gaps))[:, 1:]
    return stack


def _json_block(path, linenos, lines):
    """``_read_block`` through ``json``, one line at a time: the lines
    are checked in runs of one n."""
    n, numbers, entries = None, [], []
    for lineno, line in zip(linenos, lines):
        try:
            obj = json.loads(line)
            line_n = obj["n"]
            flat = _tri_entries(line_n, obj["tri"])
        except (json.JSONDecodeError, KeyError, TypeError, ValidationError) as exc:
            yield from _checked_entries(path, n, numbers, entries)
            raise ValidationError(f"{path}:{lineno}: {exc}") from None
        if numbers and line_n != n:
            yield from _checked_entries(path, n, numbers, entries)
            numbers, entries = [], []
        n = line_n
        numbers.append(lineno)
        entries += flat
    yield from _checked_entries(path, n, numbers, entries)


def _checked_entries(path, n, linenos, entries):
    """``_checked`` on the lines ``linenos`` of an n corpus, whose triangle
    entries ``entries`` holds one after another; an entry that is not an
    integer within int64 refuses its line, after the lines before it."""
    if linenos:
        yield from _checked(path, linenos, *_stack(n, len(linenos), entries))


def _checked(path, linenos, stack, fault=None):
    """Yield the F-matrices of a (count, n-1, n-1) stack read from the
    lines ``linenos``, up to the first that is malformed; refuse that one
    with its line number. ``fault`` is the message of the line after the
    stack, if that line failed before it could be stacked."""
    found = _first_fault(stack)
    index, fault = found or (len(stack), fault)
    n = stack.shape[1] + 1
    for arr in stack[:index]:
        yield FMatrix(n, arr)
    if fault:
        raise ValidationError(f"{path}:{linenos[index]}: {fault}")


def corpus_sums(fmats):
    """(n, m, total, e_counts) of an iterable of F-matrices of one n, read
    once: their count m, the int64 sum of their entries, and how many of
    them have each E (``balance_E``), e_counts[v] of them E = v, in an
    int64 array as long as the largest E plus one, at most n^2."""
    n, m, total, e = None, 0, None, {}
    for f in fmats:
        if total is None:
            n, total = f.n, f.entries.copy()
        elif f.n != n:
            raise ValidationError(f"mixed n in sample: {f.n} vs {n}")
        else:
            total += f.entries
        value = int(f.entries[-1].sum())
        e[value] = e.get(value, 0) + 1
        m += 1
    if total is None:
        raise ValidationError("empty sample")
    return n, m, total, np.bincount(list(e), weights=list(e.values())).astype(np.int64)
