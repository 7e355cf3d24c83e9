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
from math import erfc, isfinite, isqrt, lgamma, log, log1p, pi, sqrt

import numpy as np

from ._common import CapacityError, ValidationError
from .betasplit import BetaConfig, check_beta, sample_beta_stats
from .fmatrix import _nonfixed_index, corpus_sums, nonfixed_positions

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
    """Sufficient summaries: mean non-fixed vector, mean S and E, and the
    count of trees of each E, e_counts[v] of them E = v."""

    n: int
    m: int
    nf_mean: np.ndarray
    s_mean: float
    e_mean: float
    e_counts: np.ndarray

    @classmethod
    def from_fmatrices(cls, sample):
        """Summaries of an iterable of F-matrices of one n, read once (see
        ``fmatrix.corpus_sums``). Every sum is an integer below 2^53, so
        each mean is the correctly rounded quotient."""
        n, m, total, e_counts = corpus_sums(sample)
        nf_sum = total[_nonfixed_index(n)]
        e_sum = int(np.arange(len(e_counts)) @ e_counts)
        return cls(n=n, m=m, nf_mean=nf_sum / m, s_mean=int(np.sum(nf_sum)) / m,
                   e_mean=e_sum / m, e_counts=e_counts)

    @classmethod
    def from_arrays(cls, n, s, e, nf):
        return cls(
            n=n,
            m=len(s),
            nf_mean=nf.mean(axis=0),
            s_mean=float(np.mean(s)),
            e_mean=float(np.mean(e)),
            e_counts=np.bincount(e),
        )


# Tails and quantiles of the null distributions from the scipy.special
# ufuncs behind scipy.stats' chi2 and norm, bitwise equal to those. The
# clip and the 0.0 - keep scipy.stats' value at x < 0 (1.0) and at
# q = 0.5 (+0.0). scipy is imported here, not at module level, so that
# CLI calls that run no test do not load it; a power sweep calls the
# quantiles only on a near-tie (see FILTER), and a tail whose log lies
# below LOG_ZERO is 0.0 without scipy.

def _chi2_sf(x, df):
    if isfinite(x) and x > df and _chi2_log_tail(df)(x) < LOG_ZERO:
        return 0.0
    from scipy.special import chdtrc

    return float(chdtrc(df, max(x, 0.0)))


def _chi2_isf(q, df):
    from scipy.special import chdtri

    return float(chdtri(df, q))


def _norm_sf(x):
    if isfinite(x) and x > 0 and _log_erfc(x / sqrt(2)) - log(2) < LOG_ZERO:
        return 0.0
    from scipy.special import ndtr

    return float(ndtr(-x))


def _norm_isf(q):
    from scipy.special import ndtri

    return float(0.0 - ndtri(q))


# A tail below 2^-1075, half the least subnormal float, rounds to 0.0. The
# log-space tails below err by far less than the margin of 1 nat, and
# scipy's chdtrc and ndtr already return 0.0 once the log of the tail falls
# below -716.4 (chdtrc, df = 1) to -717.4 (df = 3,081) and -714.3 (ndtr),
# some 29 nats above LOG_ZERO (tested bitwise on a grid of df and z).
LOG_ZERO = -1075 * log(2) - 1

# A power sweep needs only its decisions "statistic > critical value", not
# the critical values themselves. Each is first taken against a float
# estimate c~ of scipy's quantile c, which stays within 1e-9 of c relative
# to max(|c|, 1) (tested on a grid of df and q): a statistic above
# c~ + FILTER max(|c~|, 1) exceeds c, one at or below c~ - FILTER max(|c~|, 1)
# does not, and only a statistic between the two, or a q with no estimate,
# calls scipy. So every decision is that of the scipy comparison, and a
# sweep whose statistics keep clear of the critical values loads no scipy
# (the filter of Shewchuk's adaptive-precision predicates, 1997).
FILTER = 1e-6
# The least positive normal float. Below it q carries fewer than 53 bits,
# and the estimates are not checked against scipy there.
_NORMAL_MIN = 2.0 ** -1022


def _log_erfc(z):
    """log erfc(z) for z >= 0; past z = 26, where erfc nears the least
    normal float, from its asymptotic series (relative error below 1e-12)."""
    if z < 26.0:
        return log(erfc(z))
    s = 1 / (2 * z * z)
    return -z * z - log(z * sqrt(pi)) + log1p(-s * (1 - 3 * s * (1 - 5 * s * (1 - 7 * s))))


def _chi2_log_tail(df, upper=True):
    """The log of the upper tail of chi2(df), or with ``upper`` false of its
    lower tail, as a function of x > 0, for integer df >= 1.

    With y = x/2, h = (df % 2)/2 and m = df // 2, both tails at x are sums
    of the terms t_k = e^-y y^(k+h) / Gamma(k+h+1): the upper tail is
    t_0 .. t_(m-1), plus erfc(sqrt y) for odd df, and the lower tail is
    t_m, t_(m+1), .... Each is summed in log space, so that no term
    underflows. The lower tail is meant only for x < median < df, where the
    terms fall from t_m on; the ones past the 100 + 10 sqrt(m)-th are below
    e^-50 of t_m.
    """
    half, m = (df % 2) / 2, df // 2
    k = np.arange(m) if upper else np.arange(m, m + 100 + 10 * isqrt(m))
    k = k + half
    log_gamma = np.array([lgamma(v + 1) for v in k])

    def log_tail(x):
        y = x / 2
        logs = k * log(y) - y - log_gamma
        if upper and half:
            logs = np.append(logs, _log_erfc(sqrt(y)))
        top = logs.max()
        return top + log(np.exp(logs - top).sum())

    return log_tail


def _chi2_isf_estimate(q, df):
    """A float estimate of ``_chi2_isf(q, df)`` for integer df >= 1, or None
    unless q is a normal float in (0, 1): the root of the log of the smaller
    tail (see ``_chi2_log_tail``), bisected; the lower tail serves q > 1/2,
    where the root lies below the median.
    """
    if not _NORMAL_MIN <= q < 1:
        return None
    upper = q <= 0.5
    target = log(q) if upper else log1p(-q)
    log_tail = _chi2_log_tail(df, upper)
    lo, hi = 0.0, float(df)
    if upper:
        while log_tail(hi) > target:
            lo, hi = hi, 2 * hi
    while hi - lo > 1e-13 * hi:  # far inside the 1e-9 the estimate promises
        mid = (lo + hi) / 2
        if (log_tail(mid) > target) == upper:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


def _norm_isf_estimate(q):
    """A float estimate of ``_norm_isf(q)`` for q <= 1/2, or None: the
    standard normal's upper-q point is the root of chi2(1)'s upper-2q point."""
    c = _chi2_isf_estimate(2 * q, 1) if q >= _NORMAL_MIN else None
    return None if c is None else sqrt(c)


def _exceeds(values, estimate, exact):
    """``values > exact()``, decided against ``estimate`` of it where
    FILTER allows; ``exact`` is called only when it does not."""
    if estimate is not None:
        margin = FILTER * max(abs(estimate), 1.0)
        above = values > estimate + margin
        if np.all(above | (values <= estimate - margin)):
            return above
    return values > exact()


def sym_inv_sqrt(sigma):
    """The symmetric PSD inverse square root of a covariance matrix."""
    sigma = np.asarray(sigma, dtype=np.float64)
    vals, vecs = np.linalg.eigh((sigma + sigma.T) / 2)
    if vals.min() < EIG_FLOOR:
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

    def counts(self, e_counts):
        """Trees per box of a sample of which e_counts[v] trees have E = v."""
        below = np.concatenate([[0], np.cumsum(e_counts)])  # below[v]: trees with E < v
        edges = np.minimum(self.uppers[:-1], len(e_counts))
        return np.diff(below[np.concatenate([[0], edges, [len(e_counts)]])])


def e_boxes(e_pmf, m, K=DEFAULT_K):
    """Equiprobable boxes from the null E-distribution ``e_pmf`` (with
    ``e_pmf[v]`` = P(E = v + 1)), merged until every expected count
    m p_k reaches MIN_EXPECTED."""
    if K < 2:
        raise ValidationError(f"need at least 2 boxes, got K = {K}")
    if m < 1:
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
    while len(uppers) > 1 and (m * probs < MIN_EXPECTED).any():
        k = int(np.argmin(m * probs))
        j = k + 1 if k + 1 < len(uppers) else k - 1
        a, b = sorted((k, j))
        probs[a] += probs[b]
        probs = np.delete(probs, b)
        del uppers[a]
    if len(uppers) < 2:
        raise ValidationError(
            f"boxing degenerated to {len(uppers)} box(es) at m = {m}; increase m"
        )
    return BoxScheme(uppers=uppers, probs=probs)


# The four statistics alone, without a p-value: ``_report`` adds one, and
# the power harness, which needs none, calls these directly.

def _ge_statistic(stats, boxes):
    observed = boxes.counts(stats.e_counts)
    expected = stats.m * boxes.probs
    return float(2.0 * sum(o * log(o / a) for o, a in zip(observed, expected) if o > 0))


def _wf_statistic(stats, mean, root):
    n = stats.n
    diff = stats.nf_mean - mean
    return sqrt(2 * stats.m / ((n - 2) * (n - 3))) * float((root @ diff).sum())


def _wse_statistic(stats, mu_se, root):
    diff = np.array([stats.s_mean, stats.e_mean]) - mu_se
    return sqrt(stats.m / 2) * float((root @ diff).sum())


def _ht_statistic(stats, mean, root):
    diff = root @ (stats.nf_mean - mean)
    return stats.m * float(diff @ diff)


def _null_df(name, n, boxes):
    """The null law of test ``name`` at n: the df of its chi-square, K - 1
    for GE and q = (n-2)(n-3)/2 for HT, or None for the two-sided standard
    normal of WF and WSE."""
    if name == "GE":
        return boxes.K - 1
    if name == "HT":
        return (n - 2) * (n - 3) // 2
    return None


def _report(name, stats, statistic, boxes=None):
    """The report of test ``name``: its statistic with the p-value of its
    null law; ``boxes`` are GE's, and the other tests ignore them."""
    df = _null_df(name, stats.n, boxes)
    if df is None:
        null_dist, p = "normal", 2 * _norm_sf(abs(statistic))
    else:
        null_dist, p = f"chi2({df})", _chi2_sf(statistic, df)
    ge = name == "GE"
    return TestReport(
        statistic=statistic,
        null_dist=null_dist,
        p_value=p,
        config={"n": stats.n, "m": stats.m, "K": boxes.K if ge else None,
                "boxes": list(boxes.uppers) if ge else None, "engine": name},
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


def _check_sample_capacity(n, m):
    """Refuse a replicate of ``m`` trees whose arrays would exceed the byte
    budget: its 2(n-1) float64 uniforms, int32 non-fixed entries and int64
    S and E per tree are alive at once."""
    q = (n - 2) * (n - 3) // 2
    need = m * (16 * (n - 1) + 4 * q + 16)
    if need > NULL_MAX_BYTES:
        raise CapacityError(
            f"a sample of m = {m} trees at n = {n} needs about {need >> 20} MiB for its "
            f"uniforms and statistics, over the budget of {NULL_MAX_BYTES >> 20} MiB"
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
    _check_tests(None, names)
    return tuple(dict.fromkeys(names))


def _check_tests(n, tests):
    """Refuse an unknown test name, and WSE at n = 4: there the one
    non-fixed entry F_3,1 is also the whole non-fixed last row, so
    E = S + 6 and the (S, E) covariance is singular."""
    bad = [t for t in tests if t not in ALL_TESTS]
    if bad:
        raise ValidationError(f"unknown tests {bad}; choose from {','.join(ALL_TESTS)}")
    if n == 4 and "WSE" in tests:
        raise ValidationError(
            "WSE is undefined at n = 4: the only non-fixed entry, F_3,1, makes up "
            "the last row's non-fixed part, so E = S + 6 and the (S, E) covariance "
            "is singular; GE, WF and HT run at n = 4"
        )


def run_tests(stats, null, tests=ALL_TESTS, K=DEFAULT_K):
    """The reports of ``tests`` on the summaries ``stats`` (a ``SampleStats``)
    against a prepared null."""
    if stats.n != null.n:
        raise ValidationError(f"sample has n = {stats.n}, but the null has n = {null.n}")
    _check_tests(stats.n, tests)
    boxes = e_boxes(null.e_pmf, K=K, m=stats.m) if "GE" in tests else None
    return {name: _report(name, stats, _statistic(name, stats, null, boxes), boxes)
            for name in tests}


def _statistic(name, stats, null, boxes):
    """The statistic of test ``name`` against a prepared null, with no p-value."""
    if name == "GE":
        return _ge_statistic(stats, boxes)
    if name == "WF":
        return _wf_statistic(stats, null.mean, null.root)
    if name == "WSE":
        return _wse_statistic(stats, null.mu_se, null.root_se)
    return _ht_statistic(stats, null.mean, null.root)


def replicate_statistics(null, beta, m, replicates, seed, tests=ALL_TESTS, boxes=None):
    """Per-replicate statistics from independent seeded streams.

    ``boxes`` may carry the GE boxes for (null, m) built beforehand.
    """
    n = null.n
    _check_tests(n, tests)
    _check_sample_capacity(n, m)
    if boxes is None and "GE" in tests:
        boxes = e_boxes(null.e_pmf, m)
    if not isinstance(seed, np.random.SeedSequence):
        seed = np.random.SeedSequence(seed)
    children = seed.spawn(replicates)
    out = {name: np.empty(replicates) for name in tests}
    config = BetaConfig(beta=beta, n=n, seed=0)
    for r, child in enumerate(children):
        rng = np.random.default_rng(child)
        s, e, nf = sample_beta_stats(config, m, rng=rng)
        stats = SampleStats.from_arrays(n, s, e, nf)
        for name in tests:
            out[name][r] = _statistic(name, stats, null, boxes)
    return out, boxes


def _rejections(stats_by_test, null, boxes, alpha):
    """Which statistics exceed their level-``alpha`` critical value; each
    decision is that of the comparison with scipy's quantile (see FILTER)."""
    out = {}
    for name, values in stats_by_test.items():
        df = _null_df(name, null.n, boxes)
        if df is None:
            out[name] = _exceeds(np.abs(values), _norm_isf_estimate(alpha / 2),
                                 lambda: _norm_isf(alpha / 2))
        else:
            out[name] = _exceeds(values, _chi2_isf_estimate(alpha, df),
                                 lambda: _chi2_isf(alpha, df))
    return out


def power_curve(beta_grid, n, m, replicates, seed, alpha=0.05, tests=ALL_TESTS):
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
    if len(beta_grid) == 0:
        raise ValidationError("empty beta grid")
    _check_tests(n, tests)
    _check_sample_capacity(n, m)
    for beta in beta_grid:  # all of them before the null and the first replicate
        check_beta(beta, n)
    null = kingman_null(n)
    grid_seeds = np.random.SeedSequence(seed).spawn(len(beta_grid))
    boxes = None  # built by the first grid point, before it samples a tree
    rows = []
    for g, beta in enumerate(beta_grid):
        stats_by_test, boxes = replicate_statistics(
            null, beta, m, replicates, grid_seeds[g], tests=tests, boxes=boxes
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
