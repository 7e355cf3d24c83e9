"""State space of the ranked coalescent in the binary decremental representation.

A state is a column vector x of length n-1; its decremental code splits
(x - shift_left(x))+ into a 0/1 prefix of length n-2 (the decremental index
set D) and the external count x_{n-1}. Each tier's codes are written down in
closed form (see ``_tier_keys``), ascending, which is the canonical
lexicographic-descending order of x, so no sort is needed. Indices are
global, dense, and 1-based; the MRCA is a pseudo-state with index
``num_states + 1``.

State keys pack the binary decremental code into an int64: the decremental
index set D as a bitmask shifted left by 6, plus the external count in the
low 6 bits. Decremental index k (1..n-2) sits at bit n-1-k, so the earliest
index is the highest bit, and within a tier the keys ascend in the
canonical order of the states (lexicographically descending on x).
Shifted down by 7, a key holds mask bit b at sub position b-1; the ranks
of a key's successors in the next tier (``kingman._successors``) are sums
over these positions, so no target key is built or looked up.
"""

import functools
from dataclasses import dataclass, field

import numpy as np

from ._common import CapacityError, ValidationError, fib

DEFAULT_MAX_N = 30
# A packed key holds the decremental mask in bits 1..n-2 above a 6-bit
# external count, so bit n+4 is its top bit and n = 58 the last n whose
# keys fit an int64.
KEY_MAX_N = 58
# A state takes n + 9 bytes: n-1 int8 entries, an int16 tier and an int64
# key (within 6% of the peak measured at n = 30 and 32). Refuses n >= 35.
STATES_MAX_BYTES = 512 << 20


def diff_encoding(x):
    """Binary decremental code of a state vector.

    Returns (prefix, external_count) where prefix is the 0/1 tuple of length
    n-2 marking decremental indices and external_count is x_{n-1}.
    """
    x = tuple(int(v) for v in x)
    if len(x) < 2:
        raise ValidationError("state vector must have length n-1 >= 2")
    if any(v < 0 for v in x):
        raise ValidationError(f"negative entry in state vector {x}")
    prefix = tuple(max(x[k] - x[k + 1], 0) for k in range(len(x) - 1))
    if any(v > 1 for v in prefix):
        raise ValidationError(f"{x} is not a valid state: decrement larger than 1")
    return prefix, x[-1]


def _pack(prefix, external):
    """Packed key of a decremental code: index k (1-based) of the length
    n-2 prefix at bit n-1-k."""
    mask = 0
    for k, bit in enumerate(prefix, start=1):
        if bit:
            mask |= 1 << (len(prefix) + 1 - k)
    return (mask << 6) | external


@dataclass(frozen=True)
class RankedState:
    """One state with its tier and 1-based global index."""

    x: tuple
    tier: int
    index: int


@dataclass
class StateSpace:
    """All transient states of X_n, tier-major, with index maps."""

    n: int
    states: np.ndarray          # (num_states, n-1) int8, row i = state index i+1
    tier_of: np.ndarray         # (num_states,) int16
    tier_offsets: np.ndarray    # (n,) int64; tier t occupies [tier_offsets[t], tier_offsets[t+1])
    _tier_keys: list = field(repr=False)        # per tier: packed keys, ascending = canonical
    _blocks: tuple = field(default=None, repr=False)  # the Kingman tier blocks, once built

    @property
    def num_states(self):
        return self.states.shape[0]

    @property
    def num_tiers(self):
        return self.n - 1

    def tier_slice(self, t):
        return slice(int(self.tier_offsets[t]), int(self.tier_offsets[t + 1]))

    def tier_size(self, t):
        return int(self.tier_offsets[t + 1] - self.tier_offsets[t])

    def tier_states(self, t):
        """View of the tier-t state vectors in canonical order."""
        return self.states[self.tier_slice(t)]

    def state(self, index):
        if not 1 <= index <= self.num_states:
            raise ValidationError(f"state index {index} out of range 1..{self.num_states}")
        row = self.states[index - 1]
        return RankedState(tuple(int(v) for v in row), int(self.tier_of[index - 1]), index)

    def index_of(self, x):
        """Global 1-based index of the state vector x."""
        prefix, external = diff_encoding(x)
        xt = tuple(int(v) for v in x)
        if len(xt) != self.n - 1:
            raise ValidationError(f"state length {len(xt)} does not match n = {self.n}")
        m = max(xt)
        t = self.n - m
        if not 0 <= t <= self.n - 2:
            raise ValidationError(f"{xt} has no valid tier for n = {self.n}")
        key = _pack(prefix, external)
        keys = self._tier_keys[t]
        pos = int(np.searchsorted(keys, key))
        if pos == len(keys) or keys[pos] != key:
            raise ValidationError(f"{xt} is not a state of X_{self.n}")
        index = int(self.tier_offsets[t]) + pos + 1
        if tuple(int(v) for v in self.states[index - 1]) != xt:
            raise ValidationError(f"{xt} is not a state of X_{self.n}")
        return index

    def last_entry_counts(self):
        """Number of transient states with last entry j, for j = 0..n."""
        counts = np.zeros(self.n + 1, dtype=np.int64)
        values, freq = np.unique(self.states[:, -1], return_counts=True)
        counts[values.astype(np.int64)] = freq
        return counts


def tier_sizes(n):
    """|X_n^j| for j = 0..n under the last-entry grouping law."""
    if n < 3:
        raise ValidationError(f"n must be >= 3, got {n}")
    sizes = np.zeros(n + 1, dtype=np.int64)
    sizes[0] = fib(n - 1) - 1
    for j in range(1, n - 1):
        sizes[j] = fib(n - 1 - j)
    sizes[n - 1] = 0
    sizes[n] = 1
    return sizes


def _tier_keys(n, t):
    """Packed codes of tier t of X_n, ascending, hence in canonical order.

    Tier 0 is the lone code with empty D and external count n. For t >= 1,
    D holds index n-1-t (the lineage created by the last merge, bit t) plus
    any subset of indices n-t..n-2 (bits t-1..1), with |D| <= n-t, and the
    external count is n-t-|D|. These are exactly the codes reachable from
    tier 0 by coalescences.
    """
    if t == 0:
        return np.array([n], dtype=np.int64)
    masks = np.array([1 << t], dtype=np.int64)
    sizes = np.ones(1, dtype=np.int64)
    # Each pass adds a higher bit to a copy of the masks so far, which
    # keeps the masks, and hence the codes, ascending.
    for b in range(1, t):
        room = sizes < n - t
        masks = np.concatenate([masks, masks[room] | (1 << b)])
        sizes = np.concatenate([sizes, sizes[room] + 1])
    return (masks << 6) | (n - t - sizes)


def keys_to_states(keys, n, t, out):
    """Decode packed keys of tier t into state vectors (rows of ``out``)."""
    top = n - 1 - t
    mask = keys >> 6
    c = keys & 63
    out[:] = 0
    run = np.zeros(keys.shape[0], np.int64)
    for k in range(n - 2, 0, -1):
        run += (mask >> (n - 1 - k)) & 1
        if k >= top:
            out[:, k - 1] = run + c
    out[:, n - 2] = c


@functools.lru_cache(maxsize=None)
def _rank_table(n):
    """N[b, r] = sum_{k <= r} C(b, k) for b = 0..n-2 and r = 0..n, read-only.

    N[b, r] counts the subsets of b bit positions with at most r members.
    The last column is N[b, -1] = 0, so that r = -1 reads 0. Built by
    Pascal's recurrence N[b, r] = N[b-1, r] + N[b-1, r-1]; every entry is
    at most 2^(n-2), which fits an int64 up to ``KEY_MAX_N``.
    """
    table = np.zeros((n - 1, n + 2), np.int64)
    table[0, :n + 1] = 1
    for b in range(1, n - 1):
        table[b, :n + 1] = table[b - 1, :n + 1] + table[b - 1, np.arange(-1, n)]
    table.flags.writeable = False
    return table


def enumerate_states(n, max_n=DEFAULT_MAX_N):
    """Construct the full state space of X_n.

    The two forced initial states (0,..,0,n) and (0,..,0,n-1,n-2) occupy
    indices 1 and 2; total transient count is Fib(n+1) - 1. Above ``max_n``
    or ``STATES_MAX_BYTES`` it is refused before any tier is built.
    """
    if n < 3:
        raise ValidationError(f"n must be >= 3, got {n}")
    cap = min(max_n, KEY_MAX_N)
    if n > cap:
        raise CapacityError(
            f"n = {n} exceeds the cap {cap}; X_{n} has Fib({n + 1}) = {fib(n + 1)} states"
        )
    count = fib(n + 1) - 1
    if count * (n + 9) > STATES_MAX_BYTES:
        raise CapacityError(f"X_{n} has {count} states and needs about {count * (n + 9) >> 20} "
                            f"MiB, over the budget of {STATES_MAX_BYTES >> 20} MiB")
    tier_keys = [_tier_keys(n, t) for t in range(n - 1)]
    offsets = np.zeros(n, dtype=np.int64)
    np.cumsum([len(keys) for keys in tier_keys], out=offsets[1:])
    total = int(offsets[-1])
    if total != count:
        raise AssertionError(f"enumerated {total} states for n = {n}, expected {count}")
    states = np.empty((total, n - 1), dtype=np.int8)
    for t, keys in enumerate(tier_keys):
        keys_to_states(keys, n, t, states[offsets[t]:offsets[t + 1]])
    return StateSpace(
        n=n,
        states=states,
        tier_of=np.repeat(np.arange(n - 1, dtype=np.int16), np.diff(offsets)),
        tier_offsets=offsets,
        _tier_keys=tier_keys,
    )
