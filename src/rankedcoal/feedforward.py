"""Tier-exploiting moment engine.

Because T only moves mass one tier forward, pi T^k is supported exactly
on tier k and T^k Delta(r) e on tier tau - k where tau is the reward's
supporting tier. All means and covariances of the non-fixed entries then
reduce to per-tier products, with no dense inversion anywhere. Rationals
are used through n = 12, float64 above.
"""

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from ._common import ValidationError, zeros
from .fmatrix import nonfixed_positions

RATIONAL_MAX_N = 12


@dataclass
class TieredVector:
    """Dense segment of a state-indexed vector, zero off its tier."""

    n: int
    tier: int
    values: np.ndarray


@dataclass
class MomentSummary:
    """Mean vector and covariance of non-fixed entries, row-wise order."""

    n: int
    positions: list
    mean: np.ndarray
    cov: np.ndarray
    mode: str
    work: int


def _default_mode(n):
    return "rational" if n <= RATIONAL_MAX_N else "float"


def _tier_sizes(blocks):
    sizes = [blk.n_rows for blk in blocks]
    sizes.append(blocks[-1].n_cols)
    return sizes


def _left_step(blk, w, mat=None):
    """w T restricted to the next tier, for w on blk.from_tier."""
    if mat is not None:
        return w @ mat
    out = zeros(blk.n_cols, "rational")
    for row in range(blk.n_rows):
        wv = w[row]
        if wv == 0:
            continue
        for e in range(blk.indptr[row], blk.indptr[row + 1]):
            out[blk.indices[e]] += wv * Fraction(int(blk.numer[e]), blk.denom)
    return out


def _right_step(blk, v, mat=None):
    """T v restricted to the previous tier, v on blk.from_tier + 1.

    v may carry several reward columns at once.
    """
    if mat is not None:
        return mat @ v
    shape = (blk.n_rows,) + v.shape[1:]
    out = zeros(shape, "rational")
    for row in range(blk.n_rows):
        for e in range(blk.indptr[row], blk.indptr[row + 1]):
            out[row] = out[row] + Fraction(int(blk.numer[e]), blk.denom) * v[blk.indices[e]]
    return out


def _csr_blocks(blocks, mode):
    """Float CSR matrices of the blocks in float mode, None per block otherwise."""
    return [blk.csr() for blk in blocks] if mode == "float" else [None] * len(blocks)


def left_products(blocks, pi=None, mode="rational", mats=None):
    """The sequence pi T^0, ..., pi T^{n-2}, one TieredVector per tier.

    ``mats`` is ``_csr_blocks(blocks, mode)`` when the caller has it already.
    """
    sizes = _tier_sizes(blocks)
    n = len(sizes) + 1
    if pi is None:
        pi = zeros(sizes[0], mode)
        pi[0] = Fraction(1) if mode == "rational" else 1.0
    else:
        pi = np.asarray(pi) if mode == "rational" else np.asarray(pi, dtype=np.float64)
    if mats is None:
        mats = _csr_blocks(blocks, mode)
    out = [TieredVector(n=n, tier=0, values=pi)]
    w = pi
    for k, blk in enumerate(blocks):
        w = _left_step(blk, w, mats[k])
        out.append(TieredVector(n=n, tier=k + 1, values=w))
    return out


def _support_tier(r, sizes):
    offs = np.concatenate([[0], np.cumsum(sizes)])
    if len(r) != offs[-1]:
        raise ValidationError(f"reward length {len(r)} does not match state count {offs[-1]}")
    tiers = [t for t in range(len(sizes)) if np.any(np.asarray(r[offs[t]:offs[t + 1]], dtype=np.float64) != 0)]
    if len(tiers) > 1:
        raise ValidationError(
            f"reward supported on tiers {tiers}; single-tier support required "
            "(use the generic phasetype route)"
        )
    if not tiers:
        return None, offs
    return tiers[0], offs


def right_products(blocks, r, mode="rational"):
    """The sequence T^k Delta(r) e for a single-tier reward r.

    Element k is supported on tier tau - k; an all-zero reward yields
    an empty list.
    """
    sizes = _tier_sizes(blocks)
    n = len(sizes) + 1
    tau, offs = _support_tier(r, sizes)
    if tau is None:
        return []
    seg = np.asarray(r[offs[tau]:offs[tau + 1]])
    if mode == "rational":
        v = np.empty(len(seg), dtype=object)
        for i, val in enumerate(seg):
            v[i] = val if isinstance(val, Fraction) else Fraction(int(val))
    else:
        v = seg.astype(np.float64)
    mats = _csr_blocks(blocks, mode)
    out = [TieredVector(n=n, tier=tau, values=v)]
    for k in range(1, tau + 1):
        v = _right_step(blocks[tau - k], v, mats[tau - k])
        out.append(TieredVector(n=n, tier=tau - k, values=v))
    return out


def assemble(blocks, tiered, mode="rational"):
    """Full state-indexed vector from tier segments (zeros elsewhere)."""
    sizes = _tier_sizes(blocks)
    offs = np.concatenate([[0], np.cumsum(sizes)])
    out = zeros(int(offs[-1]), mode)
    for tv in tiered:
        out[offs[tv.tier]:offs[tv.tier + 1]] = tv.values
    return out


def pi_U(space, blocks=None, mode=None):
    """pi U as a full vector: the tier-k segment is pi T^k."""
    from .kingman import tier_blocks

    if mode is None:
        mode = _default_mode(space.n)
    if blocks is None:
        blocks = tier_blocks(space)
    return assemble(blocks, left_products(blocks, mode=mode), mode=mode)


def nonfixed_means(space, blocks=None, mode=None):
    """Means of all non-fixed entries, skipping the covariance chains.

    E[F_ij] only needs pi U against the tier-(n-1-j) slice of the state
    table, so this stays cheap even at n = 25 where the full covariance
    runs thousands of right products.
    """
    from .kingman import tier_blocks

    n = space.n
    if n < 4:
        raise ValidationError("non-fixed moments require n >= 4")
    if mode is None:
        mode = _default_mode(n)
    if blocks is None:
        blocks = tier_blocks(space)
    piu = left_products(blocks, mode=mode)
    positions = nonfixed_positions(n)
    index = {pos: a for a, pos in enumerate(positions)}
    mean = zeros(len(positions), mode)
    for j in range(1, n - 2):
        tau = n - 1 - j
        sl = space.tier_slice(tau)
        if mode == "float":
            # One numpy reduction per column tier, pairwise along each
            # contiguous column: unlike a BLAS dot, its summation order
            # does not depend on the thread count.
            cols = np.ascontiguousarray(space.states[sl][:, j + 1:].T, dtype=np.float64)
            col_means = (cols * piu[tau].values).sum(axis=1)
            for c, i in enumerate(range(j + 2, n)):
                mean[index[(i, j)]] = col_means[c]
        else:
            for i in range(j + 2, n):
                acc = Fraction(0)
                for w, v in zip(piu[tau].values, space.states[sl][:, i - 1]):
                    acc += w * int(v)
                mean[index[(i, j)]] = acc
    return positions, mean


def nonfixed_moments(space, blocks=None, mode=None):
    """Means and covariances of all non-fixed entries under the Kingman law.

    Work is the exact multiply-add count of the tiered algebra, returned
    on the summary so the tier-product complexity is checkable.
    """
    from .kingman import tier_blocks

    n = space.n
    if n < 4:
        raise ValidationError("non-fixed moments require n >= 4")
    if mode is None:
        mode = _default_mode(n)
    if blocks is None:
        blocks = tier_blocks(space)
    mats = _csr_blocks(blocks, mode)
    piu = [tv.values for tv in left_products(blocks, mode=mode, mats=mats)]
    work = sum(blk.nnz for blk in blocks)

    # Non-fixed columns j share the supporting tier n-1-j; chain each
    # column's reward block once and slice per row index i.
    cols = {}
    chains = {}
    for j in range(1, n - 2):
        tau = n - 1 - j
        sl = space.tier_slice(tau)
        rows = list(range(j + 2, n))
        block = space.states[sl][:, [i - 1 for i in rows]].astype(np.int64)
        if mode == "rational":
            v = np.empty(block.shape, dtype=object)
            for idx, val in np.ndenumerate(block):
                v[idx] = Fraction(int(val))
        else:
            v = block.astype(np.float64)
        levels = [v]
        for k in range(1, tau + 1):
            v = _right_step(blocks[tau - k], v, mats[tau - k])
            levels.append(v)
            work += blocks[tau - k].nnz * len(rows)
        cols[j] = rows
        chains[j] = levels

    positions = nonfixed_positions(n)
    index = {pos: a for a, pos in enumerate(positions)}
    q = len(positions)
    mean = zeros(q, mode)
    cov = zeros((q, q), mode)

    for j, rows in cols.items():
        tau = n - 1 - j
        m_col = piu[tau].dot(chains[j][0])
        for c, i in enumerate(rows):
            mean[index[(i, j)]] = m_col[c]
        work += chains[j][0].shape[0] * len(rows)

    # E[F_a F_b]: for columns on distinct tiers only the order-respecting
    # bracket survives; on a shared tier the product collapses pointwise.
    for ja, rows_a in cols.items():
        tau_a = n - 1 - ja
        for jb, rows_b in cols.items():
            if jb < ja:
                continue
            tau_b = n - 1 - jb
            weighted = chains[jb][0] * piu[tau_b][:, None]
            if ja == jb:
                cross = weighted.T.dot(chains[jb][0])
            else:
                cross = weighted.T.dot(chains[ja][tau_a - tau_b])
            work += weighted.shape[0] * len(rows_b) * len(rows_a)
            for cb, ib in enumerate(rows_b):
                b = index[(ib, jb)]
                for ca, ia in enumerate(rows_a):
                    a = index[(ia, ja)]
                    val = cross[cb, ca] - mean[a] * mean[b]
                    cov[a, b] = val
                    cov[b, a] = val
    return MomentSummary(n=n, positions=positions, mean=mean, cov=cov, mode=mode, work=work)


def se_moments(space, blocks=None, mode=None, summary=None):
    """Mean vector and covariance of (S, E) via the non-fixed summary.

    S is the plain sum of non-fixed entries; E adds the fixed last-row
    entries n and n-2 to the non-fixed part of the last row.
    """
    if summary is None:
        summary = nonfixed_moments(space, blocks=blocks, mode=mode)
    n = summary.n
    mode = summary.mode
    q = len(summary.positions)
    a_s = zeros(q, mode)
    a_e = zeros(q, mode)
    one = Fraction(1) if mode == "rational" else 1.0
    for a, (i, j) in enumerate(summary.positions):
        a_s[a] = one
        if i == n - 1:
            a_e[a] = one
    mean = zeros(2, mode)
    mean[0] = summary.mean.dot(a_s)
    mean[1] = summary.mean.dot(a_e) + (2 * n - 2)
    cov = zeros((2, 2), mode)
    cov[0, 0] = a_s.dot(summary.cov.dot(a_s))
    cov[0, 1] = cov[1, 0] = a_s.dot(summary.cov.dot(a_e))
    cov[1, 1] = a_e.dot(summary.cov.dot(a_e))
    return mean, cov


def frechet_variance(space, blocks=None, mean=None, engine=None):
    """E ||F - M||^2 under Kingman: the dispersion around ``mean``.

    Enumeration below n = 13 gives the exact rational value; above, the
    moment identity tr(Sigma) + ||mean_vec - M_vec||^2 is used.
    """
    from .frechet import mean_matrix_exact, state_costs
    from .kingman import enumerate_paths, tier_blocks

    n = space.n
    if blocks is None:
        blocks = tier_blocks(space)
    if mean is None:
        mean = mean_matrix_exact(space)
    if engine is None:
        engine = "enumeration" if n <= 12 else "moments"
    if engine == "enumeration":
        # a path's ||F - M||^2 is the sum of its states' costs
        costs = state_costs(space, mean)
        return sum(prob * costs[np.asarray(path) - 1].sum()
                   for path, prob in enumerate_paths(space, blocks))
    if engine != "moments":
        raise ValidationError(f"unknown engine {engine!r}")
    summary = nonfixed_moments(space, blocks=blocks)
    exact = summary.mode == "rational" and mean.mode == "rational"
    acc = Fraction(0) if exact else 0.0
    for a, (i, j) in enumerate(nonfixed_positions(n)):
        acc += summary.cov[a, a] if exact else float(summary.cov[a, a])
        diff = summary.mean[a] - mean.M[i - 1, j - 1]
        if not exact:
            diff = float(diff)
        acc += diff * diff
    return acc
