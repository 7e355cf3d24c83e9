"""Ranked block-counting process: a partition-valued coarsening of the
ranked coalescent that is small enough for dense phase-type work at any
n of interest. Tracks only how many branches carry i descendants."""

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from ._common import CapacityError, ValidationError, binom2, default_mode


@dataclass(frozen=True)
class BcpState:
    """a_i = number of branches with i descendants; sum i*a_i = n."""

    n: int
    a: tuple

    def __post_init__(self):
        if len(self.a) != self.n - 1 or min(self.a, default=0) < 0:
            raise ValidationError(f"invalid BCP vector {self.a} for n = {self.n}")
        if sum([i * v for i, v in enumerate(self.a, start=1)]) != self.n:
            raise ValidationError(f"{self.a} does not satisfy sum i*a_i = {self.n}")

    @property
    def blocks(self):
        return sum(self.a)

    @property
    def tier(self):
        return self.n - self.blocks

    @property
    def singletons(self):
        return self.a[0]


# The largest n whose partition count is taken: the n_max of a ``bcp
# --sizes`` table, or the n of a BCP chain
SIZES_MAX_N = 1000


def partition_counts(n_max):
    """[p(0), ..., p(n_max)] from one bounded-part dynamic program."""
    table = [1] + [0] * n_max
    for part in range(1, n_max + 1):
        for total in range(part, n_max + 1):
            table[total] += table[total - part]
    return table


def partition_count(n):
    """p(n), the number of partitions of n."""
    return partition_counts(n)[n]


def _partitions(n):
    """All partitions of n >= 3 into parts below n, in lexicographically
    descending order of their descending part lists.

    Yields (a, blocks): a[i-1] is the number of parts of size i, and blocks
    the number of parts. Each step takes the last part above 1 down by one
    and refills what follows with parts as large as that allows.
    """
    parts = [n - 1, 1]
    a = [1] + [0] * (n - 3) + [1]
    while True:
        yield tuple(a), len(parts)
        del parts[len(parts) - a[0]:]
        if not parts:
            return
        k = parts.pop() - 1
        q, r = divmod(a[0] + 1, k)
        a[0] = 0
        a[k] -= 1
        a[k - 1] += q + 1
        parts += [k] * (q + 1)
        if r:
            a[r - 1] += 1
            parts.append(r)


def bcp_states(n):
    """Transient ranked-BCP states, tiered by block count, lex-descending.

    The absorbing single-block state is excluded, so the list has
    p(n) - 1 entries.
    """
    if n < 3:
        raise ValidationError(f"bcp_states requires n >= 3, got {n}")
    by_tier = [[] for _ in range(n - 1)]
    for a, blocks in _partitions(n):
        by_tier[n - blocks].append(a)
    return [BcpState(n=n, a=a) for tier in by_tier for a in sorted(tier, reverse=True)]


@dataclass
class BcpChain:
    """States plus tier offsets and the jump-chain transition blocks."""

    n: int
    states: list
    tier_offsets: np.ndarray
    blocks: list


def _successors(state):
    """(successor a-vector, rate) pairs; merges to a full block excluded."""
    n = state.n
    a = state.a
    out = []
    present = [i + 1 for i, v in enumerate(a) if v > 0]
    for pos, i in enumerate(present):
        for j in present[pos:]:
            if i == j:
                if a[i - 1] < 2:
                    continue
                rate = binom2(a[i - 1])
            else:
                rate = a[i - 1] * a[j - 1]
            if i + j >= n:
                continue
            nxt = list(a)
            nxt[i - 1] -= 1
            nxt[j - 1] -= 1
            nxt[i + j - 1] += 1
            out.append((tuple(nxt), rate))
    return out


def bcp_chain(n):
    """The BCP states and their jump-chain probability blocks, one per tier
    boundary. Within tier t every state holds b = n - t blocks, so the
    common denominator is binom(b, 2)."""
    from .kingman import TierBlock

    states = bcp_states(n)
    offsets = np.zeros(n, dtype=np.int64)
    for s in states:
        offsets[s.tier + 1] += 1
    offsets = np.cumsum(offsets)
    index = {s.a: local - int(offsets[s.tier]) for local, s in enumerate(states)}
    blocks = []
    for t in range(n - 2):
        rows = states[offsets[t]:offsets[t + 1]]
        n_cols = int(offsets[t + 2]) - int(offsets[t + 1])
        indptr = [0]
        cols = []
        numer = []
        for s in rows:
            succ = sorted((index[a], rate) for a, rate in _successors(s))
            cols.extend(c for c, _ in succ)
            numer.extend(r for _, r in succ)
            indptr.append(len(cols))
        blocks.append(TierBlock(
            from_tier=t,
            n_rows=len(rows),
            n_cols=n_cols,
            indptr=np.asarray(indptr, dtype=np.int64),
            indices=np.asarray(cols, dtype=np.int64),
            numer=np.asarray(numer, dtype=np.int64),
            denom=binom2(n - t),
        ))
    return BcpChain(n=n, states=states, tier_offsets=offsets, blocks=blocks)


def _dense_chain(n):
    """``bcp_chain(n)``, refused from the state count p(n) - 1 before any
    state is built, and above SIZES_MAX_N before p(n) is counted."""
    from .phasetype import DENSE_MAX_ORDER

    if n > SIZES_MAX_N:
        raise CapacityError(f"n = {n} exceeds cap {SIZES_MAX_N}")
    order = partition_count(n) - 1
    if order > DENSE_MAX_ORDER:
        raise CapacityError(f"dense DPH of order {order} exceeds cap {DENSE_MAX_ORDER}")
    return bcp_chain(n)


def e_law(n):
    """Exact law of E as Fractions, ``pmf[v] = P(E = v + 1)``.

    Backwards in time the chain on (lineages k, singletons s) starts at
    (n, n) and merges a uniform pair per step, and E adds up s over
    k = n..2. Weights are Python ints over prod_k C(k, 2), in an array
    W[s, e] over the (s, e) box the chain has reached: a step combines
    the rows s' + 2, s' + 1 and s' into row s', then shifts row s' right
    by s' (laid out with row stride width + 1 in a flat buffer).
    """
    if n < 3:
        raise ValidationError(f"e_law requires n >= 3, got {n}")
    W = np.full((1, 1), 1, dtype=object)
    s_lo, e_lo = n, n
    denom = 1
    for k in range(n, 2, -1):
        denom *= binom2(k)
        rows, width = W.shape
        lo, hi = max(s_lo - 2, 0), min(s_lo + rows - 1, k - 1)
        padded = np.zeros((hi - lo + 3, width), dtype=object)
        padded[s_lo - lo:s_lo - lo + rows] = W
        s = np.arange(lo, hi + 1)
        ways = [binom2(s + 2), (s + 1) * (k - s - 1), binom2(k - s)]
        U = sum(padded[d:d + len(s)] * w.astype(object)[:, None]
                for d, w in zip((2, 1, 0), ways))
        rows, wide = len(s), width + len(s) - 1
        flat = np.zeros(rows * (wide + 1), dtype=object)
        flat.reshape(rows, wide + 1)[:, :width] = U
        W = flat[:rows * wide].reshape(rows, wide)
        s_lo, e_lo = lo, e_lo + lo
    weights = np.trim_zeros(W.sum(axis=0), "b")
    return [Fraction(0)] * (e_lo - 1) + [Fraction(int(w), denom) for w in weights]


def bcp_E_distribution(n, mode=None):
    """DPH of the external branch length E via the singleton reward."""
    from .phasetype import dph_from_blocks, reward_transform

    if n < 3:
        raise ValidationError(f"bcp_E_distribution requires n >= 3, got {n}")
    if mode is None:
        mode = default_mode(n)
    chain = _dense_chain(n)
    singletons = np.array([s.singletons for s in chain.states], dtype=np.int64)
    return reward_transform(dph_from_blocks(chain.blocks, mode=mode), singletons)
