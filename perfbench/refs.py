"""Independent references for checking rankedcoal's outputs.

Nothing here imports rankedcoal: every reference is derived from the
forward (root-to-leaves) description of the ranked Kingman coalescent.
Going from k to k+1 lineages, one of the k lineages, chosen uniformly,
splits in two. Writing b for the epoch at which a lineage was born (the
number of lineages just after its birth; the root's children have
b = 2), the F-matrix entry F[i][j] (1-based, 1 <= j <= i <= n-1) counts the
lineages alive at epoch j+1 that are still unsplit at epoch i+1.

F-matrices are handled as their lower triangle, ``tri[i-1][j-1] = F_ij``,
which is the ``tri`` field of rankedcoal's JSONL format.
"""

from fractions import Fraction
from math import comb, factorial

import numpy as np


def kingman_mean(n):
    """E[F_ij] = j(j+1)/i as Fractions, in ``tri`` layout.

    A lineage alive at epoch j+1 survives the split from k to k+1
    lineages with probability (k-1)/k, so it is still unsplit at epoch
    i+1 with probability j/i; there are j+1 of them.
    """
    return [[Fraction(j * (j + 1), i) for j in range(1, i + 1)] for i in range(1, n)]


def e_law(n):
    """Exact law of E = sum of the last row of F, as {value: Fraction}.

    Backwards in time, the chain on (lineages k, singletons s) starts at
    (n, n) and merges a uniform pair at each step; E adds up s over
    k = n..2. Weights are kept as integers over prod_k C(k, 2).
    """
    if n < 2:
        raise ValueError(f"E needs n >= 2, got {n}")
    dist = {(n, n): 1}
    denom = 1
    for k in range(n, 2, -1):
        denom *= comb(k, 2)
        nxt = {}
        for (s, e), w in dist.items():
            for s2, ways in ((s - 2, comb(s, 2)), (s - 1, s * (k - s)), (s, comb(k - s, 2))):
                if ways and s2 >= 0:
                    key = (s2, e + s2)
                    nxt[key] = nxt.get(key, 0) + w * ways
        dist = nxt
    pmf = {}
    for (_, e), w in dist.items():
        pmf[e] = pmf.get(e, 0) + w
    return {e: Fraction(w, denom) for e, w in sorted(pmf.items())}


def law_mean_var(pmf):
    mean = sum(v * p for v, p in pmf.items())
    second = sum(v * v * p for v, p in pmf.items())
    return mean, second - mean * mean


def births_to_row(births, k):
    """Row k-1 of F (epoch k) from the birth-epoch counts of its k lineages."""
    row = []
    acc = 0
    for j in range(1, k):
        acc += births.get(j + 1, 0)
        row.append(acc)
    return row


def enumerate_shapes(n):
    """Every ranked shape on n leaves with its Kingman probability.

    Histories that differ only in which child of a node splits give the
    same shape, so the walk branches on the birth epoch of the splitting
    lineage, with weight (lineages of that epoch) / k. Returns a list of
    (tri as a tuple of tuples, Fraction).
    """
    if n < 2:
        raise ValueError(f"shapes need n >= 2, got {n}")
    total = factorial(n - 1)
    out = []
    stack = [({2: 2}, ((2,),), 1)]
    while stack:
        births, rows, weight = stack.pop()
        k = len(rows) + 1
        if k == n:
            out.append((rows, Fraction(weight, total)))
            continue
        for b, count in births.items():
            nxt = dict(births)
            nxt[b] -= 1
            if not nxt[b]:
                del nxt[b]
            nxt[k + 1] = 2
            row = tuple(births_to_row(nxt, k + 1))
            stack.append((nxt, rows + (row,), weight * count))
    out.sort()
    return out


def as_array(tris, n):
    """Stack of F-matrices, shape (m, n-1, n-1), from ``tri`` lists."""
    arr = np.zeros((len(tris), n - 1, n - 1), dtype=np.int64)
    for t, tri in enumerate(tris):
        if len(tri) != n - 1 or any(len(row) != i + 1 for i, row in enumerate(tri)):
            raise ValueError(f"tree {t}: tri rows must have lengths 1..{n - 1}")
        for i, row in enumerate(tri):
            arr[t, i, : i + 1] = row
    return arr


def fmatrix_problem(arr):
    """First reason why some F-matrix in the stack is invalid, else None.

    An F-matrix is valid when its diagonal is j+1, its subdiagonal j, it
    is zero above the diagonal and nonnegative, and each pair of adjacent
    columns is one coalescence apart: from one row to the next, a column
    loses at most one lineage, every later column loses one whenever an
    earlier column does, and no birth epoch is left with a negative count
    (rows never decrease from left to right).
    """
    arr = np.asarray(arr, dtype=np.int64)
    if arr.ndim == 2:
        arr = arr[None]
    m, size, _ = arr.shape
    idx = np.arange(size)
    checks = []
    checks.append((np.triu(np.ones((size, size), bool), 1), arr != 0, "nonzero above the diagonal"))
    diag = np.zeros((size, size), bool)
    diag[idx, idx] = True
    checks.append((diag, arr != (idx + 2)[None, :, None], "diagonal F_jj != j+1"))
    sub = np.zeros((size, size), bool)
    sub[idx[1:], idx[:-1]] = True
    checks.append((sub, arr != idx[None, :, None], "subdiagonal F_j+1,j != j"))
    lower = np.tril(np.ones((size, size), bool))
    checks.append((lower, arr < 0, "negative entry"))
    # rows never decrease: F[i, j] <= F[i, j+1] for j < i
    inc = lower[:, :-1] & lower[:, 1:]
    checks.append((inc, arr[:, :, :-1] > arr[:, :, 1:], "row decreases from left to right"))
    # d[i, j] = F[i, j] - F[i+1, j]: lineages of column j that split between rows
    d = arr[:, :-1, :] - arr[:, 1:, :]
    both = lower[:-1, :]
    checks.append((both, (d < 0) | (d > 1), "a column loses more than one lineage per row"))
    pair = both[:, :-1] & both[:, 1:]
    checks.append((pair, d[:, :, :-1] > d[:, :, 1:], "adjacent columns more than one coalescence apart"))
    for mask, bad, reason in checks:
        hit = bad & mask
        if hit.any():
            t, i, j = (int(v) for v in np.argwhere(hit)[0])
            return f"tree {t}: {reason} at F_{i + 1},{j + 1}"
    return None


def frechet_cost(tri, mean):
    """||F - M||^2 over the lower triangle, exact when ``mean`` holds Fractions."""
    return sum((v - mv) ** 2 for row, mrow in zip(tri, mean) for v, mv in zip(row, mrow))


def exhaustive_frechet(n):
    """(minimum cost, set of minimising tri tuples) over every ranked shape."""
    mean = kingman_mean(n)
    costs = [(frechet_cost(tri, mean), tri) for tri, _ in enumerate_shapes(n)]
    best = min(c for c, _ in costs)
    return best, {tri for c, tri in costs if c == best}


def mean_deviations(arr, mean, z=5.0):
    """Entries whose sample mean is more than ``z`` standard errors from ``mean``.

    An entry with zero sample variance must equal its mean exactly.
    Returns a list of (i, j, sample mean, expected) with 1-based i, j.
    """
    m = arr.shape[0]
    sample_mean = arr.mean(axis=0)
    se = arr.std(axis=0, ddof=1) / np.sqrt(m)
    out = []
    for i, row in enumerate(mean):
        for j, mv in enumerate(row):
            diff = abs(sample_mean[i, j] - float(mv))
            if (se[i, j] == 0 and diff != 0) or diff > z * se[i, j]:
                out.append((i + 1, j + 1, float(sample_mean[i, j]), float(mv)))
    return out


def _box(value, uppers):
    k = 0
    while k < len(uppers) - 1 and value >= uppers[k]:
        k += 1
    return k


def ge_statistic(e_values, uppers, pmf):
    """G = 2 sum_k o_k log(o_k / (m p_k)) over the boxes [uppers[k-1], uppers[k]);
    the first box is open below and the last open above."""
    probs = [0.0] * len(uppers)
    for v, p in pmf.items():
        probs[_box(v, uppers)] += float(p)
    observed = [0] * len(uppers)
    for v in e_values:
        observed[_box(v, uppers)] += 1
    m = len(e_values)
    return 2.0 * sum(o * np.log(o / (m * p)) for o, p in zip(observed, probs) if o > 0)
