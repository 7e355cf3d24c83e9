"""Tier-exploiting moment engine.

Because T only moves mass one tier forward, pi T^k is supported exactly
on tier k and T^k Delta(r) e on tier tau - k where tau is the reward's
supporting tier. All means and covariances of the non-fixed entries then
reduce to per-tier products, run as one sweep down the tiers. A product
takes its arithmetic from its vector: rational vectors hold Python-int
numerators over per-tier denominators, L_k = prod_{t<k} C(n-t, 2) for
pi T^k, with one ``Fraction`` per output entry at the end. Float right
products meet a CSR copy of the block, built for that step only; the
float left chain sums edge by edge, so a call builds each block's CSR at
most once. Blocks come from ``kingman.tier_blocks``, which builds them
once per space.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from ._common import ValidationError, default_mode, exact_fractions, to_fractions, zeros
from .fmatrix import nonfixed_positions


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


def _ratio(mode):
    """num, den -> value: Fractions in rational mode; float values carry no denominator."""
    return to_fractions if mode == "rational" else (lambda num, den: num)


def _tier_sizes(blocks):
    sizes = [blk.n_rows for blk in blocks]
    sizes.append(blocks[-1].n_cols)
    return sizes


def _tier_denominators(blocks):
    """L_0, ..., L_{n-2} with L_k = prod_{t<k} C(n-t, 2), the denominator of pi T^k."""
    return np.cumprod([1] + [blk.denom for blk in blocks], dtype=object)


def _left_step(blk, w):
    """w T restricted to the next tier, for w on blk.from_tier. An object w
    holds integer numerators, whose denominator gains blk.denom. A float w
    is summed edge by edge in edge order, as a CSR product would sum it,
    without building the block's CSR copy."""
    if w.dtype != object:
        weights = np.repeat(w, np.diff(blk.indptr)) * blk.probs("float")
        return np.bincount(blk.indices, weights=weights, minlength=blk.n_cols)
    out = np.zeros(blk.n_cols, dtype=object)
    np.add.at(out, blk.indices, w[blk.rows()] * blk.numer.astype(object))
    return out


def _push_down(blk, vectors):
    """Replace each v in ``vectors``, on tier blk.from_tier + 1, by T v on
    blk.from_tier; v may carry several reward columns. Object vectors hold
    integer numerators, whose denominator gains blk.denom; float vectors
    share one CSR copy of the block, dropped on return."""
    if vectors[0].dtype != object:
        step = blk.csr().__matmul__
    else:
        # every state below the last tier has a successor: no empty segment
        assert np.all(np.diff(blk.indptr) > 0)
        numer = blk.numer.astype(object)

        def step(v):
            scaled = numer.reshape((-1,) + (1,) * (v.ndim - 1)) * v[blk.indices]
            return np.add.reduceat(scaled, blk.indptr[:-1], axis=0)
    for k, v in enumerate(vectors):
        vectors[k] = step(v)


def _left_chain(blocks, mode):
    """pi T^k for k = 0..n-2: floats, or integer numerators over L_k."""
    out = [np.ones(1, dtype=np.float64 if mode == "float" else object)]  # tier 0 is the start state
    for blk in blocks:
        out.append(_left_step(blk, out[-1]))
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
    seg = r[offs[tau]:offs[tau + 1]]
    if mode == "rational":
        # integer numerators over the rewards' common denominator
        seg = exact_fractions(seg)
        scale = math.lcm(*(val.denominator for val in seg))
        v = np.array([val.numerator * (scale // val.denominator) for val in seg], dtype=object)
    else:
        v = np.array(seg, dtype=np.float64)
    out = [TieredVector(n=n, tier=tau, values=v)]
    level = [v]
    for t in range(tau - 1, -1, -1):
        _push_down(blocks[t], level)
        out.append(TieredVector(n=n, tier=t, values=level[0]))
    if mode == "rational":
        dens = _tier_denominators(blocks)
        for tv in out:
            tv.values = to_fractions(tv.values, scale * dens[tau] // dens[tv.tier])
    return out


def assemble(blocks, tiered, mode="rational"):
    """Full state-indexed vector from tier segments (zeros elsewhere)."""
    sizes = _tier_sizes(blocks)
    offs = np.concatenate([[0], np.cumsum(sizes)])
    out = zeros(int(offs[-1]), mode)
    for tv in tiered:
        out[offs[tv.tier]:offs[tv.tier + 1]] = tv.values
    return out


def pi_U(space, *, mode=None):
    """pi U as a full vector: the tier-k segment is pi T^k."""
    from .kingman import tier_blocks

    if mode is None:
        mode = default_mode(space.n)
    blocks = tier_blocks(space)
    values = _left_chain(blocks, mode)
    if mode == "rational":
        values = [to_fractions(a, d) for a, d in zip(values, _tier_denominators(blocks))]
    return np.concatenate(values)


def _column_means(space, tau, w, index):
    """The mean step of column j = n-1-tau: its reward block on tier tau, in
    w's dtype, its covariance indices, and the numerators of its means,
    w v, for w = pi T^tau."""
    j = space.n - 1 - tau
    rows = range(j + 2, space.n)
    # a column-major copy, as the float golden's summation order expects
    v = space.tier_states(tau)[:, [i - 1 for i in rows]].astype(w.dtype)
    return v, [index[(i, j)] for i in rows], w.dot(v)


def nonfixed_means(space, *, mode=None):
    """Means of all non-fixed entries, skipping the covariance chains.

    E[F_ij] only needs pi U against the tier-(n-1-j) slice of the state
    table, so this stays cheap even at n = 25 where the full covariance
    runs thousands of right products. Each column's means come from the
    mean step of ``nonfixed_moments``, so the two agree to the bit.
    """
    from .kingman import tier_blocks

    n = space.n
    if n < 4:
        raise ValidationError("non-fixed moments require n >= 4")
    if mode is None:
        mode = default_mode(n)
    blocks = tier_blocks(space)
    piu = _left_chain(blocks, mode)
    dens = _tier_denominators(blocks)
    value = _ratio(mode)
    positions = nonfixed_positions(n)
    index = {pos: a for a, pos in enumerate(positions)}
    mean = zeros(len(positions), mode)
    for tau in range(n - 2, 1, -1):
        _, idx, sums = _column_means(space, tau, piu[tau], index)
        mean[idx] = value(sums, dens[tau])
    return positions, mean


def nonfixed_moments(space, *, mode=None):
    """Means and covariances of all non-fixed entries under the Kingman law.

    One sweep runs down from the top reward tier n-2 to tier 2. At tier
    tau it pushes every open column's right product one block down, opens
    column n-1-tau with its reward block, and writes that column's means
    and its cross terms with every open column, so only the current tier's
    vectors are alive. Work is the exact multiply-add count of the products
    used, returned on the summary so the tier-product complexity is
    checkable.
    """
    from .kingman import tier_blocks

    n = space.n
    if n < 4:
        raise ValidationError("non-fixed moments require n >= 4")
    if mode is None:
        mode = default_mode(n)
    blocks = tier_blocks(space)
    exact = mode == "rational"
    piu = _left_chain(blocks, mode)
    # a rational value is its numerator over dens[tier]; floats need none
    dens = _tier_denominators(blocks) if exact else [1] * (n - 1)
    value = _ratio(mode)
    work = sum(blk.nnz for blk in blocks)
    positions = nonfixed_positions(n)
    index = {pos: a for a, pos in enumerate(positions)}
    q = len(positions)
    mean = zeros(q, mode)
    cov = zeros((q, q), mode)

    # The cross term of columns on tiers tau_a >= tau_b reads column a's
    # right product on tier tau_b only: the order-respecting bracket, which
    # on a shared tier collapses pointwise.
    opened = []  # (tier, covariance indices, numerators of the means)
    vectors = []  # each open column's right product on the current tier
    for tau in range(n - 2, 1, -1):
        if vectors:
            _push_down(blocks[tau], vectors)
            work += blocks[tau].nnz * sum(v.shape[1] for v in vectors)
        v, idx, sums = _column_means(space, tau, piu[tau], index)
        mean[idx] = value(sums, dens[tau])
        work += v.shape[0] * len(idx)
        opened.append((tau, idx, sums))
        vectors.append(v)

        weighted = v * piu[tau][:, None]
        for (tau_a, idx_a, sums_a), level in zip(opened, vectors):
            cross = weighted.T.dot(level)
            work += weighted.shape[0] * len(idx) * len(idx_a)
            # cross is over L_{tau_a}, the means over L_{tau_a} and L_tau
            centred = value(cross * dens[tau] - np.multiply.outer(sums, sums_a),
                            dens[tau_a] * dens[tau])
            for cb, b in enumerate(idx):
                for ca, a in enumerate(idx_a):
                    cov[a, b] = cov[b, a] = centred[cb, ca]
    return MomentSummary(n=n, positions=positions, mean=mean, cov=cov, mode=mode, work=work)


def se_moments(space, *, mode=None, summary=None):
    """Mean vector and covariance of (S, E) via the non-fixed summary.

    S is the plain sum of non-fixed entries; E adds the fixed last-row
    entries n and n-2 to the non-fixed part of the last row. Rational
    sums run on integer numerators over one common denominator.
    """
    if summary is None:
        summary = nonfixed_moments(space, mode=mode)
    n = summary.n
    mode = summary.mode
    mean_f, cov_f, den = summary.mean, summary.cov, 1
    if mode == "rational":
        den = math.lcm(*(v.denominator for v in mean_f), *(v.denominator for v in cov_f.flat))
        numerator = np.frompyfunc(lambda v: v.numerator * (den // v.denominator), 1, 1)
        mean_f, cov_f = numerator(mean_f), numerator(cov_f)
    value = _ratio(mode)
    a_s = np.ones(len(summary.positions), dtype=mean_f.dtype)
    a_e = np.array([i == n - 1 for i, _ in summary.positions]).astype(mean_f.dtype)
    mean = zeros(2, mode)
    mean[0] = value(mean_f.dot(a_s), den)
    mean[1] = value(mean_f.dot(a_e) + (2 * n - 2) * den, den)
    cov = zeros((2, 2), mode)
    cov[0, 0] = value(a_s.dot(cov_f.dot(a_s)), den)
    cov[0, 1] = cov[1, 0] = value(a_s.dot(cov_f.dot(a_e)), den)
    cov[1, 1] = value(a_e.dot(cov_f.dot(a_e)), den)
    return mean, cov


def frechet_variance(space, *, mean=None, engine="moments"):
    """E ||F - M||^2 under Kingman: the dispersion around ``mean``.

    The moment identity tr(Sigma) + ||mean_vec - M_vec||^2 over the
    non-fixed entries gives it, exact where the moments are.
    ``engine="enumeration"`` sums over every chain path instead, as an
    oracle for small n.
    """
    from .frechet import mean_matrix_exact, state_costs
    from .kingman import enumerate_paths

    n = space.n
    if mean is None:
        mean = mean_matrix_exact(space)
    if engine == "enumeration":
        # a path's ||F - M||^2 is the sum of its states' costs
        costs = state_costs(space, mean)
        return sum(prob * costs[np.asarray(path) - 1].sum()
                   for path, prob in enumerate_paths(space))
    if engine != "moments":
        raise ValidationError(f"unknown engine {engine!r}")
    if n < 4:
        return Fraction(0)  # every entry is fixed
    summary = nonfixed_moments(space)
    exact = summary.mode == "rational" and mean.mode == "rational"
    acc = Fraction(0) if exact else 0.0
    for a, (i, j) in enumerate(nonfixed_positions(n)):
        acc += summary.cov[a, a] if exact else float(summary.cov[a, a])
        diff = summary.mean[a] - mean.M[i - 1, j - 1]
        if not exact:
            diff = float(diff)
        acc += diff * diff
    return acc
