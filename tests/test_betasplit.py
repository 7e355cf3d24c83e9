"""Beta-splitting sampler: split laws, agreement between the python and
batch paths, the Kingman limit at beta = 0, and a per-tree probability
oracle built from the forward construction."""

from fractions import Fraction
from math import lgamma

import numpy as np
import pytest
from key_oracle import fmatrix_to_path
from scipy import stats as sps

from rankedcoal._common import ValidationError
from rankedcoal.betasplit import (
    BetaConfig,
    check_beta,
    sample_beta_fmatrices,
    sample_beta_stats,
    split_weights,
)
from rankedcoal.fmatrix import (
    _node_sizes,
    balance_E,
    balance_S,
    nonfixed_vector,
    path_to_fmatrix,
    split_record,
)
from rankedcoal.kingman import enumerate_paths
from rankedcoal.statespace import enumerate_states

F = Fraction

N5_PROBS = {
    (1, 2, 3, 5): F(1, 3),
    (1, 2, 3, 7): F(1, 6),
    (1, 2, 4, 5): F(1, 6),
    (1, 2, 4, 6): F(1, 6),
    (1, 2, 4, 7): F(1, 6),
}


def _tree_prob(fmat, beta):
    """Forward-construction probability of one ranked unlabelled shape."""
    n = fmat.n
    size, child = (a[:, 0].tolist() for a in _node_sizes(split_record(fmat.entries[None])))
    p = 1.0
    for rank, k, a in zip(range(2, n + 1), size, child):
        p *= (k - 1) / (n - rank + 1)
        if k > 2:
            # Children carry disjoint rank sets, so the two plane
            # arrangements are always distinct; equal sizes still double.
            w = split_weights(beta, k)
            b = k - a
            p *= 2 * w[a - 1] if a == b else w[a - 1] + w[b - 1]
    return p


def _path_probs(space, beta):
    return {path: _tree_prob(path_to_fmatrix(space, path), beta)
            for path, _ in enumerate_paths(space)}


def test_config_validation():
    with pytest.raises(ValidationError):
        BetaConfig(beta=-2.0, n=5, seed=1)
    with pytest.raises(ValidationError):
        BetaConfig(beta=0.0, n=2, seed=1)
    with pytest.raises(ValidationError):
        split_weights(-2.5, 4)
    with pytest.raises(ValidationError):
        split_weights(0.0, 1)


def test_split_weights_shape():
    for beta in (-1.5, -1.0, 0.0, 2.5):
        for k in (2, 3, 5, 8):
            w = split_weights(beta, k)
            assert len(w) == k - 1
            assert w.sum() == pytest.approx(1.0)
            np.testing.assert_allclose(w, w[::-1], rtol=1e-12)
    np.testing.assert_allclose(split_weights(0.0, 6), np.full(5, 0.2),
                               rtol=1e-12)
    assert np.argmax(split_weights(1000.0, 8)) == 3
    assert np.argmax(split_weights(-1.5, 8)) in (0, 6)
    assert split_weights(-1.5, 8)[0] > split_weights(-1.5, 8)[3]


def test_split_weights_are_read_only():
    """The weights are cached: a write into one result would change every
    later draw with the same (beta, k)."""
    w = split_weights(0.5, 6)
    with pytest.raises(ValueError, match="read-only"):
        w[0] = 1.0
    assert split_weights(0.5, 6) is w


def test_check_beta_is_one_lgamma_pair(monkeypatch):
    """The beta check reads the end term of the largest block only: it neither
    builds the weights of an n-leaf block nor fills their cache."""
    from rankedcoal import betasplit

    def must_not_run(*args, **kwargs):
        raise AssertionError("split weights were built")

    monkeypatch.setattr(betasplit, "split_weights", must_not_run)
    for beta in (-1.5, 0.0, 2.5, 1e6):
        check_beta(beta, 10 ** 6)
        BetaConfig(beta=beta, n=10 ** 6, seed=1)
    for beta in (float("inf"), float("nan"), -2.0, 1e12, 2e305):
        with pytest.raises(ValidationError):
            check_beta(beta, 5)


def _largest_accepted(k):
    """The largest float beta that ``check_beta`` accepts at k, bisected
    over the bits of positive floats (the check is monotone in beta there)."""
    lo, hi = (int(np.float64(x).view(np.int64)) for x in (1.0, 1e300))
    while hi - lo > 1:
        mid = (lo + hi) // 2
        try:
            check_beta(float(np.int64(mid).view(np.float64)), k)
            lo = mid
        except ValidationError:
            hi = mid
    return float(np.int64(lo).view(np.float64))


def _closest_accepted_to_minus_two(k):
    """The least float beta that ``check_beta`` accepts at k, bisected over
    the floats -2 + j 2^-52 of (-2, -1] (the check is monotone in beta there)."""
    lo, hi = 0, 2 ** 52
    while hi - lo > 1:
        mid = (lo + hi) // 2
        try:
            check_beta(-2.0 + mid * 2.0 ** -52, k)
            hi = mid
        except ValidationError:
            lo = mid
    return -2.0 + hi * 2.0 ** -52


def _exact_weights(beta, k):
    """The split law of a float beta in Fractions, through the ratio
    w_(i+1) / w_i = (beta+1+i)(k-i) / ((i+1)(beta+k-i))."""
    b = Fraction(beta)
    w = [Fraction(1)]
    for i in range(1, k - 1):
        w.append(w[-1] * (b + 1 + i) * (k - i) / ((i + 1) * (b + k - i)))
    total = sum(w)
    return [v / total for v in w]


def test_check_beta_agrees_with_the_weights():
    """A beta that passes the check at n has finite weights for every block
    up to n, also just below the precision cut-off."""
    for beta in (_closest_accepted_to_minus_two(9), -1.0, 0.0, 1e6, _largest_accepted(9)):
        check_beta(beta, 9)
        for k in range(2, 10):
            assert np.all(np.isfinite(split_weights(beta, k)))


@pytest.mark.parametrize("k", [2, 3, 5, 12, 25])
def test_accepted_weights_are_within_their_bound_of_the_exact_law(k):
    """Between the two cut-offs, the weights of every accepted beta err by
    at most their bound, which stays at most WEIGHT_TOL; the next float
    beyond either cut-off is refused. Near -2 the grid runs from the
    lowest accepted beta to -2 + 1e-6, where beta + 1 + k - i cancels."""
    from rankedcoal.betasplit import CANCEL_ERROR, LOG_ERROR, WEIGHT_TOL

    top = _largest_accepted(k)
    assert 1e7 < top < 1e8
    with pytest.raises(ValidationError, match="too large .* to a relative 1e-06"):
        check_beta(float(np.nextafter(top, np.inf)), k)
    bottom = _closest_accepted_to_minus_two(k)
    assert 2e-10 * (k - 1) < bottom + 2 < 3e-10 * (k - 1)
    with pytest.raises(ValidationError, match="too close to -2 .* to a relative 1e-06"):
        check_beta(float(np.nextafter(bottom, -np.inf)), k)
    near = [-2.0 + float(d) for d in np.geomspace(bottom + 2, 1e-6, 12, endpoint=False)]
    grid = [-1.9, -1.5, -1.0, -0.5, 0.0, 0.5, 1.0, 3.0, 10.0]
    for beta in near + grid + [float(b) for b in np.geomspace(100.0, top, 12)]:
        got = split_weights(beta, k)
        error = max(abs(Fraction(float(g)) - w) / w for g, w in zip(got, _exact_weights(beta, k)))
        bound = (LOG_ERROR * (abs(lgamma(beta + 2)) + abs(lgamma(beta + k)) + lgamma(k + 1))
                 + CANCEL_ERROR * (k - 1) / (beta + 2))
        assert error <= bound <= WEIGHT_TOL, beta


def test_beta_just_above_minus_two_samples():
    """The lowest beta accepted at n = 30 has a symmetric split law, to
    within the weights' bound, on every block, and samples; the float
    just above -2 is refused."""
    from rankedcoal.betasplit import WEIGHT_TOL

    beta = _closest_accepted_to_minus_two(30)
    for k in range(2, 31):
        w = split_weights(beta, k)
        assert np.all(np.isfinite(w)) and w.sum() == pytest.approx(1.0)
        np.testing.assert_allclose(w, w[::-1], rtol=2 * WEIGHT_TOL)
    mats = sample_beta_fmatrices(BetaConfig(beta=beta, n=12, seed=1), 20)
    assert len(mats) == 20
    with pytest.raises(ValidationError, match="too close to -2"):
        BetaConfig(beta=float(np.nextafter(-2.0, 0.0)), n=3, seed=1)


def test_n3_is_deterministic():
    for beta, seed in [(-1.0, 1), (0.0, 2), (9.0, 3)]:
        fmat = sample_beta_fmatrices(BetaConfig(beta=beta, n=3, seed=seed), 1)[0]
        assert fmat.entries.tolist() == [[2, 0], [1, 3]]


@pytest.mark.parametrize("beta,n", [(0.0, 6), (-1.5, 9), (5.0, 5)])
def test_python_and_kernel_paths_agree(beta, n):
    config = BetaConfig(beta=beta, n=n, seed=424242)
    count = 40
    mats = sample_beta_fmatrices(config, count)
    s, e, nf = sample_beta_stats(config, count)
    for r, fmat in enumerate(mats):
        assert balance_S(fmat) == s[r]
        assert balance_E(fmat) == e[r]
        assert nonfixed_vector(fmat).tolist() == list(nf[r])


def test_stream_is_two_uniforms_per_event():
    config = BetaConfig(beta=-1.0, n=7, seed=99)
    mats = sample_beta_fmatrices(config, 3)
    rng = np.random.default_rng(99)
    rng.random(2 * 2 * (config.n - 1))
    replay = sample_beta_fmatrices(config, 1, rng=rng)[0]
    assert np.array_equal(replay.entries, mats[2].entries)


def test_oracle_matches_kingman_at_beta_zero(space5):
    probs = _path_probs(space5, 0.0)
    assert set(probs) == set(N5_PROBS)
    for path, p in probs.items():
        assert p == pytest.approx(float(N5_PROBS[path]), rel=1e-12)


@pytest.mark.parametrize("beta,n", [(-1.5, 6), (0.0, 7), (3.0, 6)])
def test_oracle_probabilities_sum_to_one(beta, n):
    total = sum(_path_probs(enumerate_states(n), beta).values())
    assert total == pytest.approx(1.0, rel=1e-10)


def test_beta_zero_matches_kingman_frequencies(space5):
    config = BetaConfig(beta=0.0, n=5, seed=20240817)
    count = 20000
    counts = {path: 0 for path in N5_PROBS}
    for fmat in sample_beta_fmatrices(config, count):
        counts[fmatrix_to_path(space5, fmat)] += 1
    observed = [counts[p] for p in sorted(counts)]
    expected = [float(N5_PROBS[p]) * count for p in sorted(counts)]
    assert sps.chisquare(observed, expected).pvalue > 0.01


def test_empirical_frequencies_match_oracle():
    space = enumerate_states(6)
    beta = -1.0
    probs = _path_probs(space, beta)
    config = BetaConfig(beta=beta, n=6, seed=31337)
    count = 30000
    counts = {path: 0 for path in probs}
    for fmat in sample_beta_fmatrices(config, count):
        counts[fmatrix_to_path(space, fmat)] += 1
    order = sorted(probs)
    observed = [counts[p] for p in order]
    expected = [probs[p] * count for p in order]
    assert sps.chisquare(observed, expected).pvalue > 0.005


def test_strong_balance_concentrates_on_modal_shapes():
    space = enumerate_states(8)
    probs = _path_probs(space, 1000.0)
    top = max(probs.values())
    # Maximally balanced rankings tie exactly, so compare against the set.
    modal = {p for p, v in probs.items() if v > top * (1 - 1e-9)}
    config = BetaConfig(beta=1000.0, n=8, seed=5150)
    count = 10000
    counts = {}
    for fmat in sample_beta_fmatrices(config, count):
        path = fmatrix_to_path(space, fmat)
        counts[path] = counts.get(path, 0) + 1
    assert max(counts, key=counts.get) in modal
    hits = sum(counts.get(p, 0) for p in modal)
    expect = top * len(modal) * count
    assert abs(hits - expect) < 4 * np.sqrt(expect)


def test_mean_sackin_decreases_in_beta():
    means = []
    for beta in (-1.5, 0.0, 10.0):
        s, _, _ = sample_beta_stats(BetaConfig(beta=beta, n=25, seed=7), 10000)
        means.append(s.mean())
    assert means[0] > means[1] > means[2]


def test_determinism():
    config = BetaConfig(beta=0.5, n=10, seed=12345)
    s1, e1, nf1 = sample_beta_stats(config, 50)
    s2, e2, nf2 = sample_beta_stats(config, 50)
    assert np.array_equal(s1, s2)
    assert np.array_equal(e1, e2)
    assert np.array_equal(nf1, nf2)
