"""Per-line reference for the corpus reader: each line of a fmat.jsonl file
parsed, converted and checked on its own, one small numpy call after
another, where ``fmatrix.iter_jsonl`` checks a block of lines as one stack."""

import json

import numpy as np

from rankedcoal import ValidationError
from rankedcoal.fmatrix import FMatrix
from rankedcoal.kingman import merges


def from_tri(n, tri):
    if type(n) is not int:
        raise ValidationError(f"n = {n!r} is not an integer")
    if len(tri) != n - 1 or any(len(row) != i + 1 for i, row in enumerate(tri)):
        raise ValidationError("tri rows must have lengths 1..n-1")
    flat = [v for row in tri for v in row]
    arr = np.zeros((n - 1, n - 1), dtype=np.int64)
    try:
        if set(map(type, flat)) <= {int}:
            arr[np.tri(n - 1, dtype=bool)] = flat
            return FMatrix(n, arr)
    except OverflowError:
        pass
    for i, row in enumerate(tri, start=1):
        for j, v in enumerate(row, start=1):
            if type(v) is not int or not -2 ** 63 <= v < 2 ** 63:
                raise ValidationError(f"row {i}, entry {j}: {v!r} is not an integer within int64")


def validate_static(fmat):
    arr = fmat.entries
    n = fmat.n
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
    fall = arr[:-1] - arr[1:]
    bad = np.argwhere(np.tril((fall < 0) | (fall > 1)))
    if len(bad):
        k, c = (int(v) for v in bad[0])
        raise ValidationError(
            f"column {c + 1}: F_{k + 2},{c + 1} = {arr[k + 1, c]} is not "
            f"F_{k + 1},{c + 1} = {arr[k, c]} or one less"
        )
    bad = np.flatnonzero(merges(arr[:, ::-1].T)[:, 0] == 0)
    if len(bad):
        t = int(bad[0])
        raise ValidationError(f"column {n - 2 - t}: infeasible transition from column {n - 1 - t}")
    return fmat


def iter_jsonl(path):
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
                fmat = validate_static(from_tri(obj["n"], obj["tri"]))
            except (json.JSONDecodeError, KeyError, TypeError, ValidationError) as exc:
                raise ValidationError(f"{path}:{lineno}: {exc}") from None
            yield fmat
