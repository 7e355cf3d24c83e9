"""Neutrality statistics: the closed-form null against the moment engine
and the BCP, box construction, exact zeros, calibration of levels, and the
Monte-Carlo harness determinism."""

import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.stats import kstest

from rankedcoal import bcp, feedforward, kingman, statespace
from rankedcoal._common import CapacityError, ValidationError
from rankedcoal.betasplit import BetaConfig, sample_beta_fmatrices, sample_beta_stats
from rankedcoal.cli import main
from rankedcoal.neutrality import (
    ALL_TESTS,
    SampleStats,
    _exact_sum,
    _ht_statistic,
    _wf_statistic,
    _wse_statistic,
    e_boxes,
    kingman_moment_terms,
    kingman_null,
    power_curve,
    replicate_statistics,
    run_tests,
    sym_inv_sqrt,
)
from rankedcoal.phasetype import dph_pmf_range

pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")


@pytest.fixture(scope="module")
def null5():
    return kingman_null(5)


@pytest.fixture(scope="module")
def null8():
    return kingman_null(8)


def _null_sample(null, m=100):
    return SampleStats(
        n=null.n,
        m=m,
        nf_mean=null.mean.copy(),
        s_mean=float(null.mu_se[0]),
        e_mean=float(null.mu_se[1]),
        e_counts=np.bincount(np.full(m, int(round(null.mu_se[1])))),
    )


def test_kingman_null_n5_goldens(null5):
    np.testing.assert_allclose(null5.mean, [2 / 3, 1 / 2, 3 / 2], rtol=1e-15)
    np.testing.assert_allclose(
        null5.sigma,
        [[2 / 9, 1 / 6, 0], [1 / 6, 1 / 4, 1 / 12], [0, 1 / 12, 1 / 4]],
        rtol=1e-15)
    np.testing.assert_allclose(null5.mu_se, [8 / 3, 10], rtol=1e-15)
    np.testing.assert_allclose(
        null5.sigma_se, [[11 / 9, 5 / 6], [5 / 6, 2 / 3]], rtol=1e-15)


def _floats(arr):
    return np.array([float(v) for v in np.ravel(arr)]).reshape(np.shape(arr))


@pytest.mark.parametrize("n", range(4, 13))
def test_closed_form_null_equals_the_rational_engine(n):
    """Each null float is the correctly rounded value of the exact engine's."""
    space = statespace.enumerate_states(n)
    summary = feedforward.nonfixed_moments(space, mode="rational")
    mu_se, sigma_se = feedforward.se_moments(space, summary=summary)
    null = kingman_null(n)
    for got, want in ((null.mean, summary.mean), (null.sigma, summary.cov),
                      (null.mu_se, mu_se), (null.sigma_se, sigma_se)):
        assert got.dtype == np.float64
        assert got.tobytes() == _floats(want).tobytes()


@pytest.mark.parametrize("n", range(4, 15))
def test_rational_engine_equals_the_closed_form_fractions(n):
    """Every exact mean and covariance of the tier sweep is the Fraction of
    ``kingman_moment_terms``, before any rounding."""
    summary = feedforward.nonfixed_moments(statespace.enumerate_states(n), mode="rational")
    mean_num, mean_den, cov_num, cov_key, den_of_key = kingman_moment_terms(n)
    assert list(summary.mean) == [Fraction(int(a), int(b)) for a, b in zip(mean_num, mean_den)]
    want = [[Fraction(int(a), int(den_of_key[k])) for a, k in zip(row_num, row_key)]
            for row_num, row_key in zip(cov_num, cov_key)]
    assert summary.cov.tolist() == want


@pytest.mark.parametrize("n", [16, 25])
def test_closed_form_null_matches_the_float_engine(n):
    space = statespace.enumerate_states(n)
    summary = feedforward.nonfixed_moments(space, mode="float")
    mu_se, sigma_se = feedforward.se_moments(space, summary=summary)
    null = kingman_null(n)
    np.testing.assert_allclose(null.mean, summary.mean, rtol=1e-12)
    # entries that are exactly zero come out of the float engine as ~1e-13
    np.testing.assert_allclose(null.sigma, summary.cov, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(null.mu_se, mu_se, rtol=1e-12)
    np.testing.assert_allclose(null.sigma_se, sigma_se, rtol=1e-12)


@pytest.mark.parametrize("n", range(4, 13))
def test_e_law_equals_the_rational_bcp(n):
    law = bcp.e_law(n)
    dph = bcp.bcp_E_distribution(n, mode="rational")
    assert law[-1] != 0
    assert dph_pmf_range(dph, len(law) + 5) == law + [Fraction(0)] * 5


def test_e_pmf_is_the_correctly_rounded_law():
    null = kingman_null(10)
    assert null.e_pmf.tolist() == [float(p) for p in bcp.e_law(10)]
    assert null.e_pmf[0] == 0.0 and null.e_pmf[-1] > 0.0


@pytest.mark.parametrize("n", range(4, 41))
def test_closed_form_moments_of_E_equal_its_law(n):
    mean_num, mean_den, cov_num, cov_key, den_of_key = kingman_moment_terms(n)
    last = slice(len(mean_num) - (n - 3), None)
    mean_e = _exact_sum(mean_num[last], mean_den[last], np.arange(n)) + 2 * n - 2
    var_e = _exact_sum(cov_num[last, last], cov_key[last, last], den_of_key)
    law = bcp.e_law(n)
    law_mean = sum(v * p for v, p in enumerate(law, start=1))
    law_var = sum(v * v * p for v, p in enumerate(law, start=1)) - law_mean ** 2
    assert mean_e == law_mean == Fraction(n * (n + 1), 3)
    assert var_e == law_var


def _must_not_run(*args, **kwargs):
    raise AssertionError("the Kingman null built the chain or the BCP")


def test_test_command_builds_no_chain_at_n25(tmp_path, capsys, monkeypatch):
    corpus = tmp_path / "n25.jsonl"
    assert main(["simulate", "--model", "beta", "--beta", "0", "--n", "25",
                 "--count", "120", "--seed", "2", "--out", str(corpus)]) == 0
    for module, name in ((statespace, "enumerate_states"), (kingman, "tier_blocks"),
                         (feedforward, "nonfixed_moments"), (bcp, "bcp_chain")):
        monkeypatch.setattr(module, name, _must_not_run)
    assert main(["test", "--in", str(corpus)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["n"] == 25 and set(payload["tests"]) == set(ALL_TESTS)


@pytest.mark.parametrize("n", [30, 40])
def test_test_and_power_run_past_the_bcp_cap(n, tmp_path, capsys):
    corpus = tmp_path / "corpus.jsonl"
    assert main(["simulate", "--model", "beta", "--beta", "0", "--n", str(n),
                 "--count", "60", "--seed", "3", "--out", str(corpus)]) == 0
    assert main(["test", "--in", str(corpus)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["n"] == n and set(payload["tests"]) == set(ALL_TESTS)
    assert main(["power", "--n", str(n), "--m", "40", "--reps", "2",
                 "--beta-grid", "0", "--seed", "1"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 1 + len(ALL_TESTS)


def test_null_capacity_is_refused_before_any_work(monkeypatch, capsys):
    monkeypatch.setattr(bcp, "e_law", _must_not_run)
    with pytest.raises(CapacityError, match="MiB"):
        kingman_null(10 ** 4)
    assert main(["power", "--n", "10000", "--m", "40", "--reps", "2",
                 "--beta-grid", "0", "--seed", "1"]) == 3
    assert "capacity:" in capsys.readouterr().err
    with pytest.raises(ValidationError):
        kingman_null(3)


def test_power_refuses_a_sample_over_the_byte_budget(null8, monkeypatch, capsys):
    from rankedcoal import neutrality

    def allocate(*args, **kwargs):
        raise MemoryError("allocated")

    monkeypatch.setattr(neutrality, "kingman_null", allocate)
    monkeypatch.setattr(neutrality, "sample_beta_stats", allocate)
    # per tree: 14 float64 uniforms, 15 int32 non-fixed entries, S and E
    largest = neutrality.NULL_MAX_BYTES // (16 * 7 + 4 * 15 + 16)
    assert main(["power", "--n", "8", "--m", str(largest + 1), "--reps", "2",
                 "--beta-grid", "0", "--seed", "1"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"capacity: a sample of m = {largest + 1} trees at n = 8 ")
    with pytest.raises(CapacityError, match="over the budget"):
        replicate_statistics(null8, 0.0, largest + 1, 1, 1)
    # at the budget the replicate goes on to allocate its sample
    monkeypatch.setattr(neutrality, "kingman_null", lambda n: null8)
    with pytest.raises(MemoryError):
        power_curve([0.0], 8, largest, 2, 1)


def test_sym_inv_sqrt_inverts(null5):
    root = sym_inv_sqrt(null5.sigma)
    np.testing.assert_allclose(root, root.T, atol=1e-12)
    np.testing.assert_allclose(root @ null5.sigma @ root, np.eye(3), atol=1e-12)


def test_sym_inv_sqrt_rejects_singular():
    with pytest.raises(ValidationError, match="singular"):
        sym_inv_sqrt(np.array([[1.0, 1.0], [1.0, 1.0]]))


def test_zero_statistics_on_exact_null(null5):
    reports = run_tests(_null_sample(null5), null5, tests=("WF", "WSE", "HT"))
    wf = reports["WF"]
    assert wf.statistic == pytest.approx(0, abs=1e-12)
    assert wf.p_value == pytest.approx(1.0)
    wse = reports["WSE"]
    assert wse.statistic == pytest.approx(0, abs=1e-12)
    ht = reports["HT"]
    assert ht.statistic == pytest.approx(0, abs=1e-12)
    assert ht.p_value == pytest.approx(1.0)
    assert wf.null_dist == "normal"
    assert ht.null_dist == "chi2(3)"


def test_box_scheme(null8):
    boxes = e_boxes(null8.e_pmf, K=8, m=2000)
    assert boxes.K >= 2
    assert boxes.probs.sum() == pytest.approx(1.0)
    assert (2000 * boxes.probs >= 5.0).all()
    assert boxes.uppers == sorted(boxes.uppers)
    # Right-open boxes: a value equal to an upper falls in the next box.
    first_upper = boxes.uppers[0]
    counts = boxes.counts(np.bincount([first_upper - 1, first_upper]))
    assert counts[0] == 1 and counts[1] == 1
    assert boxes.counts(np.ones(boxes.uppers[-1] + 3, dtype=np.int64)).sum() == boxes.uppers[-1] + 3
    # the counts per box of E counts are those of the values themselves
    values = np.random.default_rng(3).integers(0, boxes.uppers[-1] + 3, 500)
    by_value = np.bincount(np.searchsorted(boxes.uppers[:-1], values, side="right"),
                           minlength=boxes.K)
    assert boxes.counts(np.bincount(values)).tolist() == by_value.tolist()


def test_box_errors(null5):
    with pytest.raises(ValidationError):
        e_boxes(null5.e_pmf, K=1, m=100)
    with pytest.raises(ValidationError):
        e_boxes(null5.e_pmf, K=4, m=0)
    with pytest.raises(ValidationError, match="degenerated"):
        e_boxes(kingman_null(4).e_pmf, K=10, m=6)


def test_power_refuses_degenerate_boxes_before_sampling(monkeypatch):
    from rankedcoal import neutrality

    def no_sampling(*args, **kwargs):
        raise AssertionError("a tree was sampled before the boxes were checked")

    monkeypatch.setattr(neutrality, "sample_beta_stats", no_sampling)
    with pytest.raises(ValidationError, match="degenerated"):
        power_curve([0.0, 1.0], 4, 6, 2, 1, tests=("GE",))


def test_sample_stats_agreement():
    config = BetaConfig(beta=-0.5, n=6, seed=321)
    count = 60
    from_mats = SampleStats.from_fmatrices(sample_beta_fmatrices(config, count))
    s, e, nf = sample_beta_stats(config, count)
    from_arrays = SampleStats.from_arrays(6, s, e, nf)
    np.testing.assert_allclose(from_mats.nf_mean, from_arrays.nf_mean)
    assert from_mats.s_mean == from_arrays.s_mean
    assert from_mats.e_mean == from_arrays.e_mean
    assert np.array_equal(from_mats.e_counts, from_arrays.e_counts)
    assert from_mats.e_counts.dtype == from_arrays.e_counts.dtype == np.int64


def test_sample_stats_errors(null5):
    with pytest.raises(ValidationError):
        SampleStats.from_fmatrices([])
    mats = sample_beta_fmatrices(BetaConfig(beta=0.0, n=5, seed=4), 2)
    mats += sample_beta_fmatrices(BetaConfig(beta=0.0, n=6, seed=4), 1)
    with pytest.raises(ValidationError):
        SampleStats.from_fmatrices(mats)
    with pytest.raises(ValidationError):
        run_tests(_null_sample(null5), null5, tests=("GE", "nope"))


@pytest.mark.parametrize("name", ALL_TESTS)
def test_run_tests_refuses_a_null_of_another_n(name, null5, null8):
    with pytest.raises(ValidationError, match="sample has n = 8, but the null has n = 5"):
        run_tests(_null_sample(null8), null5, tests=(name,))


def test_run_tests_reports(null8):
    config = BetaConfig(beta=0.0, n=8, seed=2718)
    s, e, nf = sample_beta_stats(config, 400)
    reports = run_tests(SampleStats.from_arrays(8, s, e, nf), null8)
    assert set(reports) == set(ALL_TESTS)
    for rep in reports.values():
        assert 0.0 <= rep.p_value <= 1.0
    assert reports["GE"].config["boxes"] is not None
    assert reports["HT"].null_dist == "chi2(15)"


def test_null_statistics_match_limit_laws(null8):
    stats, boxes = replicate_statistics(
        null8, beta=0.0, m=500, replicates=250, seed=90210)
    assert kstest(stats["WF"], "norm").pvalue > 0.003
    assert kstest(stats["WSE"], "norm").pvalue > 0.003
    assert kstest(stats["GE"], "chi2", args=(boxes.K - 1,)).pvalue > 0.003
    q = (8 - 2) * (8 - 3) // 2
    assert kstest(stats["HT"], "chi2", args=(q,)).pvalue > 0.003


def test_levels_near_alpha():
    rows = power_curve([0.0], 8, 300, 400, seed=1234)
    for row in rows:
        assert row["beta"] == 0.0
        assert 0.02 <= row["rejection_rate"] <= 0.10
        assert row["mc_se"] <= 0.02


def test_power_against_imbalance():
    rows = power_curve([-1.5], 8, 300, 200, seed=777)
    for row in rows:
        assert row["rejection_rate"] > 0.9


def test_power_ordering_mild_alternative():
    rows = power_curve([-0.5], 10, 200, 300, seed=555)
    rates = {row["test"]: row for row in rows}
    slack = 2 * (rates["HT"]["mc_se"] + max(
        rates[t]["mc_se"] for t in ("GE", "WF", "WSE")))
    for name in ("GE", "WF", "WSE"):
        assert rates[name]["rejection_rate"] >= rates["HT"]["rejection_rate"] - slack


def test_harness_determinism(null5):
    a, _ = replicate_statistics(null5, beta=0.5, m=50, replicates=20, seed=8)
    b, _ = replicate_statistics(null5, beta=0.5, m=50, replicates=20, seed=8)
    for name in ALL_TESTS:
        assert np.array_equal(a[name], b[name])
    r1 = power_curve([0.0, 1.0], 5, 40, 30, seed=6)
    r2 = power_curve([0.0, 1.0], 5, 40, 30, seed=6)
    assert r1 == r2


def test_null_roots_give_the_same_statistics(null8):
    s, e, nf = sample_beta_stats(BetaConfig(beta=-0.5, n=8, seed=21), 300)
    stats = SampleStats.from_arrays(8, s, e, nf)
    reports = run_tests(stats, null8, tests=("WF", "WSE", "HT"))
    root, root_se = sym_inv_sqrt(null8.sigma), sym_inv_sqrt(null8.sigma_se)
    assert reports["WF"].statistic == _wf_statistic(stats, null8.mean, root)
    assert reports["WSE"].statistic == _wse_statistic(stats, null8.mu_se, root_se)
    assert reports["HT"].statistic == _ht_statistic(stats, null8.mean, root)


def _bits(x):
    return np.float64(x).tobytes()


def test_tails_and_quantiles_equal_scipy_stats():
    """The scipy.special tails behind the p-values and critical values are
    bitwise scipy.stats' chi2 and norm, including x < 0 and q = 0.5."""
    from scipy.stats import chi2, norm

    from rankedcoal.neutrality import _chi2_isf, _chi2_sf, _norm_isf, _norm_sf

    rng = np.random.default_rng(0)
    xs = np.concatenate([[-1.0, -1e-15, 0.0, 1e-300, np.inf], rng.exponential(40.0, 300),
                         np.linspace(0.0, 400.0, 201)])
    qs = np.concatenate([[0.0, 1e-300, 0.025, 0.5, 1.0], rng.random(200),
                         np.logspace(-300, 0, 61)])
    for df in (1, 2, 5, 9, 28, 55, 253):
        assert all(_bits(_chi2_sf(x, df)) == _bits(chi2.sf(x, df)) for x in xs)
        assert all(_bits(_chi2_isf(q, df)) == _bits(chi2.isf(q, df)) for q in qs)
    zs = np.abs(np.concatenate([xs, rng.normal(0.0, 3.0, 300)]))
    assert all(_bits(_norm_sf(z)) == _bits(norm.sf(z)) for z in zs)
    assert all(_bits(_norm_isf(q)) == _bits(norm.isf(q)) for q in qs)


ISF_DFS = (*range(1, 13), 28, 55, 253, 1000, 3081)
ISF_QS = (*np.logspace(-12, 0, 49), 1 - 1e-9)


def _zero_point(sf, lo):
    """The least float x > ``lo`` at which the decreasing tail ``sf`` is 0.0."""
    hi = 2 * lo
    while sf(hi) != 0:
        lo, hi = hi, 2 * hi
    while lo < (mid := (lo + hi) / 2) < hi:
        if sf(mid) == 0:
            hi = mid
        else:
            lo = mid
    return hi


def test_zero_tails_equal_scipy_stats():
    """From 5% before the point where scipy's tails underflow to 0.0 to 500%
    past it, the tails are bitwise scipy.stats', and from twice that point on
    LOG_ZERO alone decides them, without scipy."""
    from scipy.stats import chi2, norm

    from rankedcoal.neutrality import LOG_ZERO, _chi2_log_tail, _chi2_sf, _log_erfc, _norm_sf

    for df in ISF_DFS:
        x0 = _zero_point(lambda x: chi2.sf(x, df), float(df))
        xs = x0 * np.linspace(0.95, 6.0, 203)
        assert all(_bits(_chi2_sf(x, df)) == _bits(chi2.sf(x, df)) for x in xs), df
        assert _chi2_log_tail(df)(2 * x0) < LOG_ZERO, df
    zs = np.linspace(30.0, 60.0, 601)
    assert all(_bits(_norm_sf(z)) == _bits(norm.sf(z)) for z in zs)
    z0 = _zero_point(norm.sf, 30.0)
    assert _log_erfc(1.1 * z0 / np.sqrt(2)) - np.log(2) < LOG_ZERO


def test_report_p_values_equal_scipy_stats(null8):
    from scipy.stats import chi2, norm

    config = BetaConfig(beta=-0.5, n=8, seed=3)
    for m in (30, 300):
        reports = run_tests(SampleStats.from_fmatrices(sample_beta_fmatrices(config, m)), null8)
        for name, rep in reports.items():
            if rep.null_dist == "normal":
                want = 2 * float(norm.sf(abs(rep.statistic)))
            else:
                want = float(chi2.sf(rep.statistic, int(rep.null_dist[5:-1])))
            assert _bits(rep.p_value) == _bits(want), name


def test_isf_estimates_agree_with_scipy():
    """The float estimates of the critical values stay within FILTER / 1000
    of scipy's, relative to max(|c|, 1); at q = 1 there is none."""
    from rankedcoal.neutrality import (FILTER, _chi2_isf, _chi2_isf_estimate, _norm_isf,
                                       _norm_isf_estimate)

    def close(estimate, exact):
        return abs(estimate - exact) <= FILTER / 1000 * max(abs(exact), 1.0)

    for q in ISF_QS:
        if q == 1.0:
            assert _chi2_isf_estimate(q, 3) is None
            continue
        assert close(_norm_isf_estimate(q / 2), _norm_isf(q / 2)), q
        for df in ISF_DFS:
            assert close(_chi2_isf_estimate(q, df), _chi2_isf(q, df)), (q, df)


def _plain_rejections(stats_by_test, null, boxes, alpha):
    """The decisions as the comparison with scipy's quantiles alone."""
    from rankedcoal.neutrality import _chi2_isf, _norm_isf

    q = (null.n - 2) * (null.n - 3) // 2
    out = {}
    for name, values in stats_by_test.items():
        if name in ("WF", "WSE"):
            out[name] = np.abs(values) > _norm_isf(alpha / 2)
        else:
            out[name] = values > _chi2_isf(alpha, boxes.K - 1 if name == "GE" else q)
    return out


@pytest.fixture
def scipy_calls(monkeypatch):
    """Count the calls of the scipy quantiles that _rejections makes."""
    from rankedcoal import neutrality

    calls = []
    for name in ("_chi2_isf", "_norm_isf"):
        exact = getattr(neutrality, name)
        monkeypatch.setattr(neutrality, name,
                            lambda *a, _exact=exact, _name=name: calls.append(_name) or _exact(*a))
    return calls


@pytest.mark.parametrize("alpha", [0.05, 1e-9, 0.999])
def test_rejections_fall_back_to_scipy_only_near_a_tie(null8, alpha, scipy_calls):
    """Statistics on scipy's critical value and its neighbouring floats are
    decided by scipy; ones 10% away by the estimate alone. Either way the
    decisions are those of the plain scipy comparison."""
    from rankedcoal.neutrality import BoxScheme, _chi2_isf, _norm_isf, _rejections

    boxes = BoxScheme(uppers=list(range(7)), probs=np.full(7, 1 / 7))
    crit = {"GE": _chi2_isf(alpha, 6), "WF": _norm_isf(alpha / 2),
            "WSE": _norm_isf(alpha / 2), "HT": _chi2_isf(alpha, 15)}

    def around(c, ties):
        near = [c, np.nextafter(c, -np.inf), np.nextafter(c, np.inf)] if ties else []
        return np.array(near + [0.9 * c, 1.1 * c])

    for ties in (False, True):
        stats_by_test = {name: around(c, ties) for name, c in crit.items()}
        stats_by_test["WF"] = -stats_by_test["WF"]
        want = _plain_rejections(stats_by_test, null8, boxes, alpha)
        scipy_calls.clear()
        got = _rejections(stats_by_test, null8, boxes, alpha)
        assert all(np.array_equal(got[name], want[name]) for name in crit)
        assert len(scipy_calls) == (4 if ties else 0)


def test_power_at_a_subnormal_alpha_decides_with_scipy(null5, scipy_calls):
    """alpha = 1e-320 has no estimate, so every decision comes from scipy."""
    from rankedcoal.neutrality import _chi2_isf_estimate, _norm_isf_estimate

    alpha, grid, seed = 1e-320, [-1.5, 0.0], 31
    assert _chi2_isf_estimate(alpha, 3) is None and _norm_isf_estimate(alpha / 2) is None
    rows = power_curve(grid, 5, 60, 20, seed=seed, alpha=alpha)
    assert scipy_calls
    seeds = np.random.SeedSequence(seed).spawn(len(grid))
    want = []
    for g, beta in enumerate(grid):
        stats, boxes = replicate_statistics(null5, beta, 60, 20, seeds[g])
        rejected = _plain_rejections(stats, null5, boxes, alpha)
        want += [float(np.mean(rejected[name])) for name in ALL_TESTS]
    assert [row["rejection_rate"] for row in rows] == want


@given(alpha=st.one_of(st.floats(1e-300, 1.0, exclude_max=True),
                       st.sampled_from([1e-320, 0.05, 0.5, 1 - 1e-12])),
       offsets=st.lists(st.one_of(st.floats(-0.5, 0.5), st.sampled_from([0.0, 1e-15, -1e-9])),
                        min_size=1, max_size=6),
       ulps=st.integers(-3, 3))
def test_rejections_equal_the_plain_scipy_comparison(null8, alpha, offsets, ulps):
    from rankedcoal.neutrality import BoxScheme, _chi2_isf, _norm_isf, _rejections

    boxes = BoxScheme(uppers=list(range(4)), probs=np.full(4, 1 / 4))
    stats_by_test = {}
    for name, c in (("GE", _chi2_isf(alpha, 3)), ("WF", _norm_isf(alpha / 2)),
                    ("WSE", -_norm_isf(alpha / 2)), ("HT", _chi2_isf(alpha, 15))):
        values = c * (1 + np.array(offsets))
        values[0] = c + ulps * np.spacing(c)
        stats_by_test[name] = values
    got = _rejections(stats_by_test, null8, boxes, alpha)
    want = _plain_rejections(stats_by_test, null8, boxes, alpha)
    assert all(np.array_equal(got[name], want[name]) for name in ALL_TESTS)
