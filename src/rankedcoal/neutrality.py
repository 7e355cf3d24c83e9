"""Neutrality tests on tree balance: G_E, W_F, W_SE, and a Hotelling
baseline, plus the Monte-Carlo level/power harness they are judged by.

All statistics depend on a sample only through its means and E-counts,
so the harness never materializes F-matrices. The Kingman null they are
tested against is built from closed forms, with no state space, kernel
or block-counting chain: the first two moments of the non-fixed entries
as int64 fractions, the (S, E) moments as exact sums of those, and the
exact law of E from ``bcp.e_law``. The tier engine of ``feedforward`` and
the BCP stay the oracles for these in the tests.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import log, sqrt

import numpy as np

from ._common import CapacityError, ValidationError
from .betasplit import BetaConfig, sample_beta_stats
from .fmatrix import nonfixed_positions, nonfixed_vector

DEFAULT_K = 10
MIN_EXPECTED = 5.0
EIG_FLOOR = 1e-12
# Peak bytes per entry of the q x q covariance while the null is built and
# inverted: at most seven 8-byte q x q arrays are alive at once (at n = 60,
# computing the inverse root peaked at 6.4 of them). The budget first
# refuses n = 82; below it the int64 sums of covariance numerators, under
# q^2 n^4, stay far inside int64.
NULL_BYTES_PER_PAIR = 56
NULL_MAX_BYTES = 512 << 20


@dataclass
class TestReport:
    statistic: float
    null_dist: str
    p_value: float
    config: dict


@dataclass
class SampleStats:
    """Sufficient summaries: mean non-fixed vector, mean S and E, E values."""

    n: int
    m: int
    nf_mean: np.ndarray
    s_mean: float
    e_mean: float
    e_values: np.ndarray

    @classmethod
    def from_fmatrices(cls, sample):
        if not sample:
            raise ValidationError("empty sample")
        n = sample[0].n
        if any(f.n != n for f in sample):
            raise ValidationError("mixed n in sample")
        nf = np.stack([nonfixed_vector(f) for f in sample])
        e_values = np.array([int(f.entries[-1].sum()) for f in sample], dtype=np.int64)
        return cls(
            n=n,
            m=len(sample),
            nf_mean=nf.mean(axis=0),
            s_mean=float(nf.sum(axis=1).mean()),
            e_mean=float(e_values.mean()),
            e_values=e_values,
        )

    @classmethod
    def from_arrays(cls, n, s, e, nf):
        return cls(
            n=n,
            m=len(s),
            nf_mean=nf.mean(axis=0),
            s_mean=float(np.mean(s)),
            e_mean=float(np.mean(e)),
            e_values=np.asarray(e, dtype=np.int64),
        )


def _coerce_sample(sample):
    if isinstance(sample, SampleStats):
        return sample
    return SampleStats.from_fmatrices(list(sample))


def _as_float(arr):
    return np.asarray(arr, dtype=np.float64)


# Tails and quantiles of the null distributions from the scipy.special
# ufuncs behind scipy.stats' chi2 and norm, bitwise equal to those. The
# clip and the 0.0 - keep scipy.stats' value at x < 0 (1.0) and at
# q = 0.5 (+0.0). scipy is imported here, not at module level, so that
# CLI calls that run no test do not load it.

def _chi2_sf(x, df):
    from scipy.special import chdtrc

    return float(chdtrc(df, max(x, 0.0)))


def _chi2_isf(q, df):
    from scipy.special import chdtri

    return float(chdtri(df, q))


def _norm_sf(x):
    from scipy.special import ndtr

    return float(ndtr(-x))


def _norm_isf(q):
    from scipy.special import ndtri

    return float(0.0 - ndtri(q))


def sym_inv_sqrt(sigma, floor=EIG_FLOOR):
    """The symmetric PSD inverse square root of a covariance matrix."""
    sigma = _as_float(sigma)
    vals, vecs = np.linalg.eigh((sigma + sigma.T) / 2)
    if vals.min() < floor:
        raise ValidationError(
            f"covariance is numerically singular (smallest eigenvalue {vals.min():.3e})"
        )
    return (vecs / np.sqrt(vals)) @ vecs.T


@dataclass
class BoxScheme:
    """Right-closed value boxes over the support of E with null probs."""

    uppers: list
    probs: np.ndarray

    @property
    def K(self):
        return len(self.uppers)

    def counts(self, values):
        edges = np.asarray(self.uppers[:-1], dtype=np.float64)
        idx = np.searchsorted(edges, values, side="right")
        return np.bincount(idx, minlength=self.K)


def e_boxes(e_pmf, K=DEFAULT_K, m=None, min_expected=MIN_EXPECTED):
    """Equiprobable boxes from the null E-distribution ``e_pmf`` (with
    ``e_pmf[v]`` = P(E = v + 1)), merged until every expected count
    m p_k reaches ``min_expected``."""
    if K < 2:
        raise ValidationError(f"need at least 2 boxes, got K = {K}")
    if m is None or m < 1:
        raise ValidationError("sample size m required for expected counts")
    pmf = np.asarray(e_pmf, dtype=np.float64)
    pmf = pmf / pmf.sum()
    support = np.nonzero(pmf > 1e-15)[0]
    lo, hi = int(support[0]), int(support[-1])
    uppers = []
    probs = []
    cum = 0.0
    box = 0.0
    for v in range(lo, hi + 1):
        box += pmf[v]
        cum += pmf[v]
        if cum >= (len(uppers) + 1) / K * pmf[lo:hi + 1].sum() and v < hi:
            # pmf[v] is P(E = v + 1), so the right-open upper is v + 2
            uppers.append(v + 2)
            probs.append(box)
            box = 0.0
    uppers.append(hi + 2)
    probs.append(box)
    probs = np.array(probs)
    probs = probs / probs.sum()
    while len(uppers) > 1 and (m * probs < min_expected).any():
        k = int(np.argmin(m * probs))
        j = k + 1 if k + 1 < len(uppers) else k - 1
        a, b = sorted((k, j))
        probs[a] += probs[b]
        probs = np.delete(probs, b)
        del uppers[a]
    if len(uppers) < 2:
        raise ValidationError(
            f"boxing degenerated to {len(uppers)} box(es); increase m or lower K"
        )
    return BoxScheme(uppers=uppers, probs=probs)


def test_GE(sample, e_pmf, K=DEFAULT_K, boxes=None):
    """Likelihood-ratio test of the E distribution against its null."""
    stats = _coerce_sample(sample)
    if boxes is None:
        boxes = e_boxes(e_pmf, K=K, m=stats.m)
    observed = boxes.counts(stats.e_values)
    expected = stats.m * boxes.probs
    statistic = 2.0 * sum(
        o * log(o / a) for o, a in zip(observed, expected) if o > 0
    )
    df = boxes.K - 1
    p = _chi2_sf(statistic, df)
    return TestReport(
        statistic=float(statistic),
        null_dist=f"chi2({df})",
        p_value=p,
        config={"n": stats.n, "m": stats.m, "K": boxes.K,
                "boxes": list(boxes.uppers), "engine": "GE"},
    )


def test_WF(sample, mean, sigma, root=None):
    """Signed CLT statistic on the mean non-fixed vector.

    ``root``, if given, is ``sym_inv_sqrt(sigma)`` computed beforehand.
    """
    stats = _coerce_sample(sample)
    mean = _as_float(mean)
    n, m = stats.n, stats.m
    q = (n - 2) * (n - 3) // 2
    if len(mean) != q:
        raise ValidationError(f"mean vector must have length {q}, got {len(mean)}")
    if root is None:
        root = sym_inv_sqrt(sigma)
    diff = stats.nf_mean - mean
    statistic = sqrt(2 * m / ((n - 2) * (n - 3))) * float((root @ diff).sum())
    p = 2 * _norm_sf(abs(statistic))
    return TestReport(
        statistic=statistic,
        null_dist="normal",
        p_value=p,
        config={"n": n, "m": m, "K": None, "boxes": None, "engine": "WF"},
    )


def test_WSE(sample, mu_se, sigma_se, root=None):
    """Signed CLT statistic on the (S, E) pair.

    ``root``, if given, is ``sym_inv_sqrt(sigma_se)`` computed beforehand.
    """
    stats = _coerce_sample(sample)
    mu_se = _as_float(mu_se)
    if root is None:
        root = sym_inv_sqrt(sigma_se)
    diff = np.array([stats.s_mean, stats.e_mean]) - mu_se
    statistic = sqrt(stats.m / 2) * float((root @ diff).sum())
    p = 2 * _norm_sf(abs(statistic))
    return TestReport(
        statistic=statistic,
        null_dist="normal",
        p_value=p,
        config={"n": stats.n, "m": stats.m, "K": None, "boxes": None, "engine": "WSE"},
    )


def test_hotelling(sample, mean, sigma, root=None):
    """Chi-square baseline m (Fbar - M)' Sigma^{-1} (Fbar - M).

    ``root``, if given, is ``sym_inv_sqrt(sigma)`` computed beforehand.
    """
    stats = _coerce_sample(sample)
    mean = _as_float(mean)
    if root is None:
        root = sym_inv_sqrt(sigma)
    diff = root @ (stats.nf_mean - mean)
    statistic = stats.m * float(diff @ diff)
    df = len(mean)
    p = _chi2_sf(statistic, df)
    return TestReport(
        statistic=statistic,
        null_dist=f"chi2({df})",
        p_value=p,
        config={"n": stats.n, "m": stats.m, "K": None, "boxes": None, "engine": "HT"},
    )


@dataclass
class KingmanNull:
    """Everything the tests need under the Kingman null, as floats.

    ``e_pmf[v]`` is P(E = v + 1), each value the correctly rounded float
    of the exact law.
    """

    n: int
    mean: np.ndarray
    sigma: np.ndarray
    mu_se: np.ndarray
    sigma_se: np.ndarray
    e_pmf: np.ndarray

    @cached_property
    def root(self):
        """Inverse square root of ``sigma``, computed once per null."""
        return sym_inv_sqrt(self.sigma)

    @cached_property
    def root_se(self):
        """Inverse square root of ``sigma_se``, computed once per null."""
        return sym_inv_sqrt(self.sigma_se)


def _check_null_capacity(n):
    """Refuse a null whose q x q covariance arrays would exceed the byte budget."""
    q = (n - 2) * (n - 3) // 2
    need = NULL_BYTES_PER_PAIR * q * q
    if need > NULL_MAX_BYTES:
        raise CapacityError(
            f"the Kingman null at n = {n} needs about {need >> 20} MiB for its "
            f"{q} x {q} covariance, over the budget of {NULL_MAX_BYTES >> 20} MiB"
        )


def kingman_moment_terms(n):
    """E[F] and Cov(F, F) of the non-fixed entries as exact int64 fractions.

    Forward in time, the split that takes row r to row r+1 (r+1 to r+2
    lineages) removes one of the F_rj unsplit lineages of column j with
    probability F_rj / (r+1), so E[F_ij] = j(j+1)/i, and for j <= k <= r,
    r(r-1) E[F_rj F_rk] grows by j(j+1) from each row to the next, and
    E[F_Mk | row e] = F_ek e/M for k <= e <= M. For positions (a, j),
    (b, k) with j <= k this gives

        Cov = j(j+1) x(x-1) / (e(e-1) M),  e = min(a, b), M = max(a, b),
                                           x = max(e - k, 0).

    Returns ``(mean_num, mean_den, cov_num, cov_key, den_of_key)`` in
    ``nonfixed_positions`` order: the covariance denominator of a pair
    is ``den_of_key[cov_key]``, with key e n + M. Numerators stay below
    n^4 and denominators below n^3.
    """
    i, j = np.array(nonfixed_positions(n), dtype=np.int64).T
    e = np.minimum.outer(i, i)
    x = e - np.maximum.outer(j, j)
    np.maximum(x, 0, out=x)
    x *= x - 1
    lo = np.minimum.outer(j, j)
    x *= lo * (lo + 1)
    del lo
    e *= n
    e += np.maximum.outer(i, i)
    rows = np.arange(n, dtype=np.int64)
    den_of_key = (rows * (rows - 1))[:, None] * rows[None, :]
    return j * (j + 1), i, x, e, den_of_key.ravel()


def _exact_sum(num, key, den_of_key):
    """sum num / den_of_key[key] as a Fraction: numerators are added per
    key in int64, then the few distinct fractions in Python ints."""
    acc = np.zeros(len(den_of_key), dtype=np.int64)
    np.add.at(acc, key.ravel(), num.ravel())
    return sum((Fraction(int(a), int(den_of_key[k])) for k, a in enumerate(acc) if a),
               Fraction(0))


def kingman_null(n):
    """The Kingman null from closed forms: the moments of
    ``kingman_moment_terms``, the (S, E) moments as exact sums of them
    (E adds the fixed last-row entries n and n-2 to the last row's
    non-fixed part), and the exact law of E."""
    from .bcp import e_law

    if n < 4:
        raise ValidationError("non-fixed moments require n >= 4")
    _check_null_capacity(n)
    mean_num, mean_den, cov_num, cov_key, den_of_key = kingman_moment_terms(n)
    last = slice(len(mean_num) - (n - 3), None)
    # a mean's denominator is its row i, which also serves as its key
    row_den = np.arange(n, dtype=np.int64)
    s_mean = _exact_sum(mean_num, mean_den, row_den)
    e_mean = _exact_sum(mean_num[last], mean_den[last], row_den) + 2 * n - 2
    var_s = _exact_sum(cov_num, cov_key, den_of_key)
    cov_se = _exact_sum(cov_num[:, last], cov_key[:, last], den_of_key)
    var_e = _exact_sum(cov_num[last, last], cov_key[last, last], den_of_key)
    return KingmanNull(
        n=n,
        mean=mean_num / mean_den,
        sigma=cov_num / den_of_key[cov_key],
        mu_se=np.array([float(s_mean), float(e_mean)]),
        sigma_se=np.array([[float(var_s), float(cov_se)], [float(cov_se), float(var_e)]]),
        e_pmf=np.array([float(p) for p in e_law(n)]),
    )


ALL_TESTS = ("GE", "WF", "WSE", "HT")


def parse_tests(text):
    """Test names from a comma list such as "GE,WF", in order and without
    repeats; an empty list or an unknown name is refused."""
    names = [t.strip().upper() for t in text.split(",") if t.strip()]
    if not names:
        raise ValidationError(f"no test named; choose from {','.join(ALL_TESTS)}")
    bad = [t for t in names if t not in ALL_TESTS]
    if bad:
        raise ValidationError(f"unknown tests {bad}; choose from {','.join(ALL_TESTS)}")
    return tuple(dict.fromkeys(names))


def run_tests(sample, null, tests=ALL_TESTS, K=DEFAULT_K, boxes=None):
    """All requested reports against a prepared null."""
    stats = _coerce_sample(sample)
    out = {}
    for name in tests:
        if name == "GE":
            out[name] = test_GE(stats, null.e_pmf, K=K, boxes=boxes)
        elif name == "WF":
            out[name] = test_WF(stats, null.mean, null.sigma, root=null.root)
        elif name == "WSE":
            out[name] = test_WSE(stats, null.mu_se, null.sigma_se, root=null.root_se)
        elif name == "HT":
            out[name] = test_hotelling(stats, null.mean, null.sigma, root=null.root)
        else:
            raise ValidationError(f"unknown test {name!r}")
    return out


def replicate_statistics(null, beta, m, replicates, seed, tests=ALL_TESTS, K=DEFAULT_K,
                         boxes=None):
    """Per-replicate statistics from independent seeded streams.

    ``boxes`` may carry the GE boxes for (null, K, m) built beforehand.
    """
    n = null.n
    if boxes is None and "GE" in tests:
        boxes = e_boxes(null.e_pmf, K=K, m=m)
    if not isinstance(seed, np.random.SeedSequence):
        seed = np.random.SeedSequence(seed)
    children = seed.spawn(replicates)
    out = {name: np.empty(replicates) for name in tests}
    config = BetaConfig(beta=beta, n=n, seed=0)
    for r, child in enumerate(children):
        rng = np.random.default_rng(child)
        s, e, nf = sample_beta_stats(config, m, rng=rng)
        stats = SampleStats.from_arrays(n, s, e, nf)
        reports = run_tests(stats, null, tests=tests, K=K, boxes=boxes)
        for name in tests:
            out[name][r] = reports[name].statistic
    return out, boxes


def _rejections(stats_by_test, null, boxes, alpha):
    n = null.n
    q = (n - 2) * (n - 3) // 2
    z = _norm_isf(alpha / 2)
    out = {}
    for name, values in stats_by_test.items():
        if name == "GE":
            out[name] = values > _chi2_isf(alpha, boxes.K - 1)
        elif name in ("WF", "WSE"):
            out[name] = np.abs(values) > z
        else:
            out[name] = values > _chi2_isf(alpha, q)
    return out


def power_curve(beta_grid, n, m, replicates, seed, alpha=0.05,
                tests=ALL_TESTS, K=DEFAULT_K, null=None):
    """Rejection rates per (beta, test) with Monte-Carlo standard errors.

    Deterministic given the seed: stream g of the grid uses the g-th
    spawned child sequence.
    """
    if replicates < 1:
        raise ValidationError(f"need at least one replicate, got {replicates}")
    if m < 1:
        raise ValidationError(f"need at least one tree per sample, got m = {m}")
    if not 0 < alpha < 1:
        raise ValidationError(f"alpha must lie in (0, 1), got {alpha}")
    if null is None:
        null = kingman_null(n)
    grid_seeds = np.random.SeedSequence(seed).spawn(len(beta_grid))
    boxes = e_boxes(null.e_pmf, K=K, m=m) if "GE" in tests else None
    rows = []
    for g, beta in enumerate(beta_grid):
        stats_by_test, boxes = replicate_statistics(
            null, beta, m, replicates, grid_seeds[g], tests=tests, K=K, boxes=boxes
        )
        rejected = _rejections(stats_by_test, null, boxes, alpha)
        for name in tests:
            rate = float(np.mean(rejected[name]))
            se = sqrt(rate * (1 - rate) / replicates)
            rows.append({
                "beta": float(beta), "test": name, "m": m, "replicates": replicates,
                "rejection_rate": rate, "mc_se": se,
            })
    return rows
