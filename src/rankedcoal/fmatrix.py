"""F-matrix representation: path bijection, tree reconstruction, distance, balance.

Column j of an F-matrix is the chain state at step n-1-j; the diagonal
F_jj = j+1 and subdiagonal F_{j+1,j} = j are fixed, and the non-fixed
entries {F_ij : 1 <= j <= n-3, j+2 <= i <= n-1} carry all randomness.
"""

import functools
import json
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ._common import ValidationError
from .kingman import merges, validate_path


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
    return paths_to_fmatrices(space, [validate_path(space, path)])[0]


def paths_to_fmatrices(space, paths):
    """F-matrices of a (count, n-1) array of 1-based index paths.

    The paths are not checked: pass only paths that ``validate_path``
    accepts, such as those ``kingman.sample_paths`` draws.
    """
    grid = space.states[np.asarray(paths, dtype=np.int64) - 1]
    # grid[m, t] is the state at step t; F's column n-1-t is that state
    entries = grid[:, ::-1, :].transpose(0, 2, 1)
    return [FMatrix(space.n, arr) for arr in entries]


def fmatrix_to_path(space, fmat):
    """Inverse of path_to_fmatrix; names the failing column on rejection
    (see ``FMatrix.validate_static``)."""
    n = space.n
    if fmat.n != n:
        raise ValidationError(f"F-matrix n = {fmat.n} does not match space n = {n}")
    fmat.validate_static()
    return tuple(space.index_of(fmat.entries[:, j - 1]) for j in range(n - 1, 0, -1))


@dataclass
class TreeNode:
    """Internal node (rank 2..n) or leaf (rank None) of a ranked tree."""

    rank: Optional[int]
    size: int
    left: Optional["TreeNode"] = None
    right: Optional["TreeNode"] = None

    @property
    def is_leaf(self):
        return self.rank is None


@dataclass
class RankedTree:
    """Ranked unlabelled tree; internal nodes ranked 2..n from the root down."""

    n: int
    root: TreeNode

    def internal_nodes(self):
        out = []
        stack = [self.root]
        while stack:
            node = stack.pop()
            if not node.is_leaf:
                out.append(node)
                stack.append(node.left)
                stack.append(node.right)
        return sorted(out, key=lambda nd: nd.rank)


def _leaf():
    return TreeNode(rank=None, size=1)


def _join(rank, a, b):
    # canonical child order: larger subtree left, then smaller rank first
    ka = (-a.size, a.rank if a.rank is not None else math.inf)
    kb = (-b.size, b.rank if b.rank is not None else math.inf)
    if kb < ka:
        a, b = b, a
    return TreeNode(rank=rank, size=a.size + b.size, left=a, right=b)


def fmatrix_to_tree(fmat):
    """Reconstruct the ranked tree, unique up to child order.

    Each column pair fixes the coalescence pair (i, k) of decremental
    indices; index n-1 refers to an external (leaf) lineage, anything
    smaller to the unique internal lineage with that decremental index.
    """
    return _build_tree(fmat.validate_static())


def _build_tree(fmat):
    """``fmatrix_to_tree`` of an F-matrix that ``validate_static`` has accepted."""
    n = fmat.n
    internal = {}
    externals = n
    for t, (i, k) in enumerate(merges(fmat.entries[:, ::-1].T).tolist()):
        rank = n - t
        if i == n - 1:
            externals -= 2
            node = _join(rank, _leaf(), _leaf())
        elif k == n - 1:
            externals -= 1
            node = _join(rank, internal.pop(i), _leaf())
        else:
            node = _join(rank, internal.pop(i), internal.pop(k))
        internal[n - 2 - t] = node
    rest = list(internal.values()) + [_leaf() for _ in range(externals)]
    if len(rest) != 2:
        raise ValidationError("reconstruction did not end with two lineages")
    return RankedTree(n, _join(2, rest[0], rest[1]))


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
    """Sum of leaf depths of the reconstructed shape."""
    tree = fmat if isinstance(fmat, RankedTree) else fmatrix_to_tree(fmat)
    total = 0
    stack = [(tree.root, 0)]
    while stack:
        node, depth = stack.pop()
        if node.is_leaf:
            total += depth
        else:
            stack.append((node.left, depth + 1))
            stack.append((node.right, depth + 1))
    return total


def colless(fmat):
    """Sum over internal nodes of |left leaf count - right leaf count|."""
    tree = fmat if isinstance(fmat, RankedTree) else fmatrix_to_tree(fmat)
    total = 0
    stack = [tree.root]
    while stack:
        node = stack.pop()
        if not node.is_leaf:
            total += abs(node.left.size - node.right.size)
            stack.append(node.left)
            stack.append(node.right)
    return total


def nonfixed_positions(n):
    """Non-fixed index pairs (i, j), row-wise: (3,1), (4,1), (4,2), ..."""
    return [(i, j) for i in range(3, n) for j in range(1, i - 1)]


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


def read_jsonl(path):
    return list(iter_jsonl(path))
