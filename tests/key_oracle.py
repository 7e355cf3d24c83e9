"""Key-level references: every Kingman successor of a tier's packed keys
built as a packed key, to be ranked by binary search in the next tier's
sorted keys, and the path of an F-matrix looked up state by state in the
enumerated state space."""

import numpy as np

from rankedcoal import ValidationError


def expand_tier(keys, n, t):
    """All coalescence successors of the tier-t states given by ``keys``.

    Returns (src, dst_keys, numer): one entry per transition, where src is
    the local row in tier t, dst_keys the packed successor code in tier t+1,
    and numer the Kingman numerator (the common denominator is C(n-t, 2)).
    Entries are grouped by src; within a row come the pairs of set mask
    bits (a, b) in lexicographic order of bit position, then each set bit
    with an external lineage, then the external-external merge.
    """
    num = keys.shape[0]
    nubit = np.int64(1) << (t + 1)
    mask = keys >> 6
    c = keys & 63
    bits = ((mask[:, None] >> np.arange(1, n - 1)) & 1).astype(bool)
    d = bits.sum(axis=1)
    counts = d * (d - 1) // 2 + np.where(c >= 1, d, 0) + (c >= 2)
    start = np.zeros(num + 1, np.int64)
    np.cumsum(counts, out=start[1:])
    src = np.repeat(np.arange(num, dtype=np.int64), counts)
    dst = np.empty(start[-1], np.int64)
    numer = np.empty(start[-1], np.int64)
    # Rows sharing a popcount d share the layout of their successor list.
    for dv in np.flatnonzero(np.bincount(d)):
        rows = np.flatnonzero(d == dv)
        idx = (np.nonzero(bits[rows])[1] + 1).reshape(len(rows), dv)
        bitv = np.int64(1) << idx
        m, cr, base = mask[rows, None], c[rows, None], start[rows, None]
        ia, ib = np.triu_indices(dv, 1)
        pos = base + np.arange(len(ia))
        dst[pos] = (((m & ~(bitv[:, ia] | bitv[:, ib])) | nubit) << 6) | cr
        numer[pos] = 1
        sel = cr[:, 0] >= 1
        pos = base[sel] + len(ia) + np.arange(dv)
        dst[pos] = (((m[sel] & ~bitv[sel]) | nubit) << 6) | (cr[sel] - 1)
        numer[pos] = cr[sel]
        sel = cr[:, 0] >= 2
        pos = base[sel] + len(ia) + dv
        dst[pos] = ((m[sel] | nubit) << 6) | (cr[sel] - 2)
        numer[pos] = cr[sel] * (cr[sel] - 1) // 2
    return src, dst, numer


def fmatrix_to_path(space, fmat):
    """The index path whose F-matrix is ``fmat``: column j is the state at
    step n-1-j, looked up by its key (``StateSpace.index_of``); names the
    failing column on rejection (see ``FMatrix.validate_static``)."""
    n = space.n
    if fmat.n != n:
        raise ValidationError(f"F-matrix n = {fmat.n} does not match space n = {n}")
    fmat.validate_static()
    return tuple(space.index_of(fmat.entries[:, j - 1]) for j in range(n - 1, 0, -1))
