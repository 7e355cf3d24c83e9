"""State space of the ranked coalescent in the binary decremental representation.

A state is a column vector x of length n-1; its decremental code splits
(x - shift_left(x))+ into a 0/1 prefix of length n-2 (the decremental index
set D) and the external count x_{n-1}. Each tier's codes are written down in
closed form (see ``_tier_keys``) and sorted in lexicographic-descending
order of x. Indices are global, dense, and 1-based; the MRCA is a
pseudo-state with index ``num_states + 1``.
"""

from dataclasses import dataclass, field

import numpy as np

from ._common import CapacityError, ValidationError, fib
from ._kernels import keys_to_states

DEFAULT_MAX_N = 30
# A packed key holds bits 1..n-2 of the decremental mask above a 6-bit
# external count, so bit n+4 is its top bit and n = 58 the last n whose
# keys fit an int64.
KEY_MAX_N = 58


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
    mask = 0
    for k, bit in enumerate(prefix, start=1):
        if bit:
            mask |= 1 << k
    return (mask << 6) | external


@dataclass(frozen=True)
class RankedState:
    """One state with its tier, 1-based global index, and decremental code."""

    x: tuple
    tier: int
    index: int

    @property
    def dcode(self):
        return diff_encoding(self.x)

    @property
    def external_count(self):
        return self.x[-1]

    @property
    def x_max(self):
        return max(self.x)


@dataclass
class StateSpace:
    """All transient states of X_n, tier-major, with index maps."""

    n: int
    states: np.ndarray          # (num_states, n-1) int8, row i = state index i+1
    tier_of: np.ndarray         # (num_states,) int16
    tier_offsets: np.ndarray    # (n,) int64; tier t occupies [tier_offsets[t], tier_offsets[t+1])
    _tier_keys: list = field(repr=False)        # per tier: packed keys, ascending
    _tier_canonical: list = field(repr=False)   # per tier: canonical local index per sorted key
    _tier_keys_canon: list = field(repr=False)  # per tier: packed keys in canonical order
    _blocks: tuple = field(default=None, repr=False)  # the Kingman tier blocks, once built

    @property
    def num_states(self):
        return self.states.shape[0]

    @property
    def num_tiers(self):
        return self.n - 1

    @property
    def absorbing_index(self):
        return self.num_states + 1

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
        local = int(self._tier_canonical[t][pos])
        index = int(self.tier_offsets[t]) + local + 1
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
    """Packed codes of tier t of X_n, ascending.

    Tier 0 is the lone code with empty D and external count n. For t >= 1,
    D holds bit n-1-t (the lineage created by the last merge) plus any
    subset of bits n-t..n-2, with |D| <= n-t, and the external count is
    n-t-|D|. These are exactly the codes reachable from tier 0 by the
    successor map ``expand_tier``.
    """
    if t == 0:
        return np.array([n], dtype=np.int64)
    masks = np.array([1 << (n - 1 - t)], dtype=np.int64)
    sizes = np.ones(1, dtype=np.int64)
    # Each pass adds a higher bit to a copy of the masks so far, which
    # keeps the masks, and hence the codes, ascending.
    for b in range(n - t, n - 1):
        room = sizes < n - t
        masks = np.concatenate([masks, masks[room] | (1 << b)])
        sizes = np.concatenate([sizes, sizes[room] + 1])
    return (masks << 6) | (n - t - sizes)


def _rank_tables(n, t):
    """Lookup tables of ``_tier_rank`` for tier t >= 1 of X_n.

    Returns (low, before, row, below). The subset ``sub`` of bits
    n-t..n-2 is a (t-1)-bit number with popcount <= room = n-t-1, split
    into its ``low`` low bits and its high half h. before[h] counts the
    valid subsets whose high half is below h; below[r, l] counts the low
    halves below l with popcount <= r, and row[h] is the r that high half h
    leaves. Each table has about 2^((t-1)/2) entries.
    """
    width = t - 1
    room = n - t - 1
    # the low half is the shorter one: below has up to room + 1 rows
    low = max(width - 1, 0) // 2
    high = width - low
    pc_lo, pc_hi = _popcounts(low), _popcounts(high)
    below = np.zeros((min(room, low) + 1, 1 << low), np.int64)
    for r in range(below.shape[0]):
        np.cumsum(pc_lo[:-1] <= r, out=below[r, 1:])
    # low halves with popcount <= r, for r = 0..low; none for r < 0
    fits = np.concatenate(([0], np.cumsum(np.bincount(pc_lo, minlength=low + 1))))
    before = np.zeros(1 << high, np.int64)
    np.cumsum(fits[np.clip(room - pc_hi[:-1], -1, low) + 1], out=before[1:])
    row = np.clip(room - pc_hi, 0, below.shape[0] - 1)
    return low, before, row, below


def _popcounts(bits):
    """Popcount of every integer below 2^bits."""
    pc = np.zeros(1 << bits, np.int64)
    for b in range(bits):
        pc[1 << b:2 << b] = pc[:1 << b] + 1
    return pc


def _tier_rank(n, t, keys):
    """Inverse of ``_tier_keys``: the position of each tier-t code in it.

    A tier-t code is fixed by sub = key >> (6 + n - t), and the codes
    ascend with sub, so the rank of a code is the number of valid subsets
    below its sub: the smaller high halves, then the smaller low halves
    that still fit the popcount bound. ``keys`` must be codes of tier t.
    """
    if t == 0:
        return np.zeros(len(keys), np.int64)
    low, before, row, below = _rank_tables(n, t)
    sub = keys >> (6 + n - t)
    hi = sub >> low
    return before[hi] + below[row[hi], sub & ((1 << low) - 1)]


def _sort_tier(key_arr, n, t):
    """Canonical (lex-descending on x) order for one tier of packed keys."""
    vecs = np.empty((len(key_arr), n - 1), dtype=np.int8)
    keys_to_states(key_arr, n, t, vecs)
    order = np.lexsort((-vecs[:, ::-1]).T)
    return vecs[order], order


def enumerate_states(n, max_n=DEFAULT_MAX_N):
    """Construct the full state space of X_n.

    The two forced initial states (0,..,0,n) and (0,..,0,n-1,n-2) occupy
    indices 1 and 2; total transient count is Fib(n+1) - 1.
    """
    if n < 3:
        raise ValidationError(f"n must be >= 3, got {n}")
    cap = min(max_n, KEY_MAX_N)
    if n > cap:
        raise CapacityError(
            f"n = {n} exceeds the cap {cap}; X_{n} has Fib({n + 1}) = {fib(n + 1)} states"
        )
    tier_key_arrays = []
    tier_vec_arrays = []
    tier_canonical = []
    tier_keys_canon = []
    for t in range(n - 1):
        keys = _tier_keys(n, t)
        canon_vecs, order = _sort_tier(keys, n, t)
        # canonical local index of each ascending-sorted key
        canonical = np.empty(len(order), dtype=np.int64)
        canonical[order] = np.arange(len(order))
        tier_key_arrays.append(keys)
        tier_vec_arrays.append(canon_vecs)
        tier_canonical.append(canonical)
        tier_keys_canon.append(keys[order])
    states = np.concatenate(tier_vec_arrays, axis=0)
    offsets = np.zeros(n, dtype=np.int64)
    tier_of = np.empty(states.shape[0], dtype=np.int16)
    pos = 0
    for t in range(n - 1):
        size = len(tier_key_arrays[t])
        offsets[t] = pos
        tier_of[pos:pos + size] = t
        pos += size
    offsets[n - 1] = pos
    expected = fib(n + 1) - 1
    if pos != expected:
        raise AssertionError(f"enumerated {pos} states for n = {n}, expected {expected}")
    return StateSpace(
        n=n,
        states=states,
        tier_of=tier_of,
        tier_offsets=offsets,
        _tier_keys=tier_key_arrays,
        _tier_canonical=tier_canonical,
        _tier_keys_canon=tier_keys_canon,
    )
