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
from .kingman import feasible, validate_path


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

    def column(self, j):
        """Column j (1-based) as a state vector tuple."""
        return tuple(int(v) for v in self.entries[:, j - 1])

    def tri(self):
        """Lower triangle row by row, for the fmat.jsonl format."""
        return [row[:i + 1] for i, row in enumerate(self.entries.tolist())]

    @classmethod
    def from_tri(cls, n, tri):
        """The F-matrix of a lower triangle given row by row, as read from
        JSON: n and every entry must be integers within int64, not bools."""
        if type(n) is not int:
            raise ValidationError(f"n = {n!r} is not an integer")
        if len(tri) != n - 1 or any(len(row) != i + 1 for i, row in enumerate(tri)):
            raise ValidationError("tri rows must have lengths 1..n-1")
        flat = [v for row in tri for v in row]
        arr = np.zeros((n - 1, n - 1), dtype=np.int64)
        try:
            if set(map(type, flat)) <= {int}:
                arr[np.tri(n - 1, dtype=bool)] = flat
                return cls(n, arr)
        except OverflowError:
            pass
        # some entry is not an integer within int64: name the first
        for i, row in enumerate(tri, start=1):
            for j, v in enumerate(row, start=1):
                if type(v) is not int or not -2 ** 63 <= v < 2 ** 63:
                    raise ValidationError(f"row {i}, entry {j}: {v!r} is not an integer within int64")

    def validate_static(self):
        """Check that the matrix is the F-matrix of a chain path, without a state space.

        Fixed diagonal and subdiagonal, zeros above the diagonal, no negative
        entry, each column a state (entries below the diagonal fall by 0 or
        1 per row), and each column one Kingman coalescence after the column
        to its right.
        """
        arr = self.entries
        n = self.n
        bad = np.flatnonzero(np.diagonal(arr) != np.arange(2, n + 1))
        if len(bad):
            i = int(bad[0])
            raise ValidationError(f"diagonal F_{i + 1},{i + 1} = {arr[i, i]}, expected {i + 2}")
        bad = np.flatnonzero(np.diagonal(arr, -1) != np.arange(1, n - 1))
        if len(bad):
            j = int(bad[0])
            raise ValidationError(f"subdiagonal F_{j + 2},{j + 1} = {arr[j + 1, j]}, expected {j + 1}")
        if np.any(np.triu(arr, 1) != 0):
            raise ValidationError("entries above the diagonal must be 0")
        if np.any(arr < 0):
            raise ValidationError("negative entry")
        # fall[k, c] = F_{k+1,c+1} - F_{k+2,c+1}; on and below the diagonal
        # it is the 0/1 decremental code of column c+1, above it <= 0.
        fall = arr[:-1] - arr[1:]
        bad = np.argwhere(np.tril((fall < 0) | (fall > 1)))
        if len(bad):
            k, c = (int(v) for v in bad[0])
            raise ValidationError(
                f"column {c + 1}: F_{k + 2},{c + 1} = {arr[k + 1, c]} is not "
                f"F_{k + 1},{c + 1} = {arr[k, c]} or one less"
            )
        # Column c+1 follows column c+2 when their codes (decremental bits,
        # then the external count) differ by the merged pair minus the new
        # lineage, whose decremental index is c+1. A code sums to its
        # column's lineage count, so the difference always sums to two; it
        # is a merge exactly when no unit of it is negative.
        code = np.vstack([np.maximum(fall, 0), arr[-1:]])
        diff = code[:, 1:] - code[:, :-1]
        diff[np.arange(n - 2), np.arange(n - 2)] += 1
        bad = np.flatnonzero(np.any(diff < 0, axis=0))
        if len(bad):
            c = int(bad[-1])
            raise ValidationError(f"column {c + 1}: infeasible transition from column {c + 2}")
        return self


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
    """Inverse of path_to_fmatrix; names the failing column on rejection."""
    n = space.n
    if fmat.n != n:
        raise ValidationError(f"F-matrix n = {fmat.n} does not match space n = {n}")
    arr = fmat.entries
    indices = []
    for t in range(n - 1):
        j = n - 1 - t
        col = arr[:, j - 1]
        if np.any(col[: j - 1] != 0):
            raise ValidationError(f"column {j}: nonzero entry above the diagonal")
        if col[j - 1] != j + 1:
            raise ValidationError(f"column {j}: diagonal entry {col[j - 1]}, expected {j + 1}")
        try:
            indices.append(space.index_of(col))
        except ValidationError as exc:
            raise ValidationError(f"column {j}: {exc}") from None
    for t in range(n - 2):
        if feasible(space.state(indices[t]), space.state(indices[t + 1])) is None:
            raise ValidationError(f"column {n - 2 - t}: infeasible transition from column {n - 1 - t}")
    return tuple(indices)


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
    fmat.validate_static()
    n = fmat.n
    internal = {}
    externals = n
    for t in range(n - 2):
        x = fmat.column(n - 1 - t)
        y = fmat.column(n - 2 - t)
        pair = feasible(x, y)
        if pair is None:
            raise ValidationError(f"column {n - 2 - t}: infeasible transition")
        i, k = pair
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
    total = 0
    for i, j in nonfixed_positions(fmat.n):
        total += int(fmat.entries[i - 1, j - 1])
    return total


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


def jsonl_line(fmat):
    """One fmat.jsonl line, the {n, tri} object of ``fmat``, without its newline."""
    return json.dumps({"n": fmat.n, "tri": fmat.tri()})


def write_jsonl(path, fmats):
    """Stream F-matrices to a file, one ``jsonl_line`` per line."""
    with open(path, "w", encoding="utf-8") as fh:
        for fmat in fmats:
            fh.write(jsonl_line(fmat) + "\n")


def iter_jsonl(path):
    """Yield F-matrices from a fmat.jsonl file, each checked by ``validate_static``;
    malformed lines report their number."""
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
                fmat = FMatrix.from_tri(obj["n"], obj["tri"]).validate_static()
            except (json.JSONDecodeError, KeyError, TypeError, ValidationError) as exc:
                raise ValidationError(f"{path}:{lineno}: {exc}") from None
            yield fmat


def read_jsonl(path):
    return list(iter_jsonl(path))
