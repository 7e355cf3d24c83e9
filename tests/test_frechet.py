"""ViTreebi and mean matrices: the n = 6 cost table, exhaustive
backtracking against brute force, and the dispersion identities."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from rankedcoal import CapacityError, ValidationError, kingman
from rankedcoal.feedforward import frechet_variance
from rankedcoal.fmatrix import nonfixed_positions, path_to_fmatrix
from rankedcoal.frechet import (
    DEFAULT_TIE_TOL,
    MAX_PATH_CAP,
    MeanMatrix,
    _scaled_costs,
    cost_matrix,
    mean_matrix_exact,
    mean_matrix_sample,
    state_costs,
    vitreebi,
)
from rankedcoal.kingman import ROW_CHUNK, edge_table, enumerate_paths, sample_paths
from rankedcoal.statespace import enumerate_states

F = Fraction

# Per-state costs c(x) and cumulative DP column entries for n = 6 under
# the Kingman mean, states 1..12 in canonical order.
N6_STATE_COSTS = [
    0, 0, F(9, 25), F(4, 25),
    F(89, 100), F(29, 100), F(29, 100), F(169, 100),
    F(649, 900), F(469, 900), F(469, 900), F(769, 900),
]
N6_CUMULATIVE = [
    0, 0, F(9, 25), F(4, 25),
    F(105, 100), F(45, 100), F(45, 100), F(185, 100),
    F(1054, 900), F(874, 900), F(874, 900), F(1174, 900),
]
N6_ANTECEDENTS = {
    2: {1}, 3: {2}, 4: {2},
    5: {3, 4}, 6: {4}, 7: {3, 4}, 8: {4},
    9: {5, 6, 7}, 10: {6, 8}, 11: {7, 8}, 12: {5, 6, 7, 8},
}
N6_OPTIMAL_PREDECESSORS = {
    2: (1,), 3: (2,), 4: (2,),
    5: (4,), 6: (4,), 7: (4,), 8: (4,),
    9: (6, 7), 10: (6,), 11: (7,), 12: (6, 7),
}


def _brute_force(space, mean):
    """Minimum squared deviation over all paths, with the full argmin set."""
    best = None
    argmin = []
    for path, _ in enumerate_paths(space):
        entries = path_to_fmatrix(space, path).entries
        cost = F(0)
        for i, j in nonfixed_positions(space.n):
            diff = int(entries[i - 1, j - 1]) - mean.M[i - 1, j - 1]
            cost += diff * diff
        if best is None or cost < best:
            best, argmin = cost, [path]
        elif cost == best:
            argmin.append(path)
    return best, sorted(argmin)


def test_mean_matrix_exact_n5(space5):
    mean = mean_matrix_exact(space5)
    assert mean.nonfixed() == [F(2, 3), F(1, 2), F(3, 2)]
    for j in range(1, 5):
        assert mean.entry(j, j) == j + 1
        if j < 4:
            assert mean.entry(j + 1, j) == j


def test_mean_matrix_exact_equals_path_average(space6):
    paths, probs = zip(*enumerate_paths(space6))
    mats = [path_to_fmatrix(space6, p) for p in paths]
    averaged = mean_matrix_sample(mats, weights=list(probs))
    exact = mean_matrix_exact(space6)
    assert np.array_equal(averaged.M, exact.M)


def test_mean_matrix_sample_trivia(space5):
    f1 = path_to_fmatrix(space5, (1, 2, 3, 5))
    single = mean_matrix_sample([f1])
    assert np.array_equal(single.M.astype(np.int64), f1.entries)
    double = mean_matrix_sample([f1, f1])
    assert np.array_equal(double.M, single.M)


def test_mean_matrix_sample_errors(space5, space6):
    f5 = path_to_fmatrix(space5, (1, 2, 3, 5))
    f6 = path_to_fmatrix(space6, (1, 2, 3, 5, 9))
    with pytest.raises(ValidationError):
        mean_matrix_sample([])
    with pytest.raises(ValidationError):
        mean_matrix_sample([f5, f6])
    with pytest.raises(ValidationError):
        mean_matrix_sample([f5], weights=[1, 2])
    with pytest.raises(ValidationError):
        mean_matrix_sample([f5, f5], weights=[1, -1])


def test_n6_state_costs(space6):
    costs = state_costs(space6, mean_matrix_exact(space6))
    assert list(costs) == N6_STATE_COSTS


def test_state_costs_rejects_mismatched_n(space5, space6):
    with pytest.raises(ValidationError):
        state_costs(space6, mean_matrix_exact(space5))


def test_n6_antecedent_sets(space6):
    table = edge_table(space6)
    for d in range(2, 13):
        sources = {
            s + 1
            for s in range(space6.num_states)
            if table.edge_prob(s, d - 1) != 0
        }
        assert sources == N6_ANTECEDENTS[d]


def test_n6_cost_matrix(space6):
    cm = cost_matrix(space6, mean_matrix_exact(space6))
    for i in range(12):
        t = int(space6.tier_of[i])
        assert cm.C[i, t] == pytest.approx(float(N6_CUMULATIVE[i]), rel=1e-15)
        off = [cm.C[i, u] for u in range(5) if u != t]
        assert all(math.isinf(v) for v in off)
    assert cm.antecedents[0] == ()
    for d in range(2, 13):
        assert cm.antecedents[d - 1] == N6_OPTIMAL_PREDECESSORS[d]


def test_n6_frechet_means(space6):
    best, paths = vitreebi(space6, mean_matrix_exact(space6))
    assert best == F(874, 900)
    assert paths == [(1, 2, 4, 6, 10), (1, 2, 4, 7, 11)]


@pytest.mark.parametrize("n", [5, 6, 7, 8])
def test_vitreebi_matches_brute_force(n):
    space = enumerate_states(n)
    mean = mean_matrix_exact(space)
    best, paths = vitreebi(space, mean)
    b_best, b_paths = _brute_force(space, mean)
    assert best == b_best
    assert paths == b_paths


@given(st.lists(st.integers(min_value=0, max_value=15), min_size=1, max_size=4))
def test_vitreebi_matches_brute_force_on_sample_means(picks):
    space = enumerate_states(6)
    all_paths = [p for p, _ in enumerate_paths(space)]
    mats = [path_to_fmatrix(space, all_paths[k]) for k in picks]
    mean = mean_matrix_sample(mats)
    best, paths = vitreebi(space, mean)
    b_best, b_paths = _brute_force(space, mean)
    assert best == b_best
    assert paths == b_paths


def test_tie_tolerance_window(space5):
    f1 = path_to_fmatrix(space5, (1, 2, 3, 5))
    f2 = path_to_fmatrix(space5, (1, 2, 4, 5))
    mean = mean_matrix_sample([f1, f2])
    m_float = np.array([[float(v) for v in row] for row in mean.M])
    exact_tie = type(mean)(n=5, M=m_float)
    _, paths = vitreebi(space5, exact_tie)
    assert paths == [(1, 2, 3, 5), (1, 2, 4, 5)]
    m_float = m_float.copy()
    m_float[3, 1] += 1e-12
    _, paths = vitreebi(space5, type(mean)(n=5, M=m_float))
    assert len(paths) == 2
    m_float[3, 1] += 1e-3
    _, paths = vitreebi(space5, type(mean)(n=5, M=m_float))
    assert paths == [(1, 2, 3, 5)]


def test_tier_shift_moves_cost_not_argmin(space6):
    mean = mean_matrix_exact(space6)
    base_cost, base_paths = vitreebi(space6, mean)
    costs = state_costs(space6, mean)
    costs[space6.tier_slice(3)] += F(7, 3)
    shifted_cost, shifted_paths = vitreebi(space6, mean, costs=costs)
    assert shifted_cost == base_cost + F(7, 3)
    assert shifted_paths == base_paths


def test_path_cap_overflow(space6):
    with pytest.raises(CapacityError):
        vitreebi(space6, mean_matrix_exact(space6), path_cap=1)


def test_variance_point_mass():
    assert frechet_variance(enumerate_states(3)) == 0


def test_variance_n5_trace_identity(space5):
    value = frechet_variance(space5)
    assert value == F(2, 9) + F(1, 4) + F(1, 4) == F(13, 18)
    assert frechet_variance(space5, engine="moments") == value


def test_variance_engines_agree(space6):
    enum = frechet_variance(space6, engine="enumeration")
    mom = frechet_variance(space6, engine="moments")
    assert enum == mom
    with pytest.raises(ValidationError):
        frechet_variance(space6, engine="bogus")


def loop_vitreebi(space, costs, tie_tol):
    """ViTreebi as it was before the per-tier walk, kept as an oracle: a
    state-by-state loop over the global edge table, predecessor lists over
    every optimal edge, and a depth-first enumeration of the paths.
    Returns (min_cost, paths, cumulative costs, predecessor lists)."""
    table = edge_table(space)
    exact = costs.dtype == object
    num = space.num_states
    c = [None] * num
    c[0] = costs[0]
    for s in range(num):
        for e in range(table.indptr[s], table.indptr[s + 1]):
            d = int(table.cols[e])
            if c[d] is None or c[s] + costs[d] < c[d]:
                c[d] = c[s] + costs[d]
    preds = [[] for _ in range(num)]
    for s in range(num):
        for e in range(table.indptr[s], table.indptr[s + 1]):
            d = int(table.cols[e])
            if (c[s] + costs[d] == c[d]) if exact else (c[s] + costs[d] <= c[d] + tie_tol):
                preds[d].append(s)
    final = range(*space.tier_slice(space.num_tiers - 1).indices(num))
    best = min(c[f] for f in final)
    finals = [f for f in final if (c[f] == best if exact else c[f] <= best + tie_tol)]
    paths = []
    stack = [(f, (f + 1,)) for f in finals]
    while stack:
        node, suffix = stack.pop()
        if node == 0:
            paths.append(suffix)
        for p in preds[node]:
            stack.append((p, (p + 1,) + suffix))
    return best, sorted(paths), c, preds


def _tie_heavy_mean(space, seed, exact):
    """The mean of two sampled shapes: every entry where they differ sits
    halfway between two state values, so paths mixing the two tie."""
    paths = sample_paths(space, 2, seed=seed)
    mean = mean_matrix_sample([path_to_fmatrix(space, p) for p in paths])
    return mean if exact else MeanMatrix(n=space.n, M=mean.M.astype(float))


@pytest.mark.parametrize("exact", [True, False])
@pytest.mark.parametrize("n", range(6, 13))
def test_per_tier_walk_matches_loop_oracle(n, exact, monkeypatch):
    """Also in chunks of 1 and 3 rows, where tied edges into one state fall
    into different chunks of the streamed kernel."""
    space = enumerate_states(n)
    for seed in range(3):
        mean = _tie_heavy_mean(space, seed, exact)
        costs = state_costs(space, mean)
        best, paths, c, preds = loop_vitreebi(space, costs, DEFAULT_TIE_TOL)
        for chunk in (1, 3, ROW_CHUNK):
            monkeypatch.setattr(kingman, "ROW_CHUNK", chunk)
            assert vitreebi(space, mean) == (best, paths)
            cm = cost_matrix(space, mean)
            assert cm.C[np.arange(space.num_states), space.tier_of].tolist() == [float(v) for v in c]
            assert cm.antecedents == [tuple(p + 1 for p in ps) for ps in preds]
        vitreebi(space, mean, path_cap=len(paths))
        if len(paths) > 1:
            with pytest.raises(CapacityError):
                vitreebi(space, mean, path_cap=len(paths) - 1)


def test_cost_matrix_builds_no_kernel(monkeypatch):
    space = enumerate_states(10)
    mean = _tie_heavy_mean(space, 0, exact=True)
    _, _, _, preds = loop_vitreebi(space, state_costs(space, mean), DEFAULT_TIE_TOL)

    def whole_kernel(*args, **kwargs):
        raise AssertionError("ViTreebi built the whole kernel")

    monkeypatch.setattr(kingman, "tier_blocks", whole_kernel)
    monkeypatch.setattr(kingman, "edge_table", whole_kernel)
    assert cost_matrix(space, mean).antecedents == [tuple(p + 1 for p in ps) for ps in preds]


@pytest.mark.parametrize("n", range(17, 21))
def test_integer_costs_match_fraction_costs_on_sampled_means(n):
    space = enumerate_states(n)
    mean = _tie_heavy_mean(space, 0, exact=True)
    assert vitreebi(space, mean) == vitreebi(space, mean, costs=state_costs(space, mean))


def test_huge_denominator_falls_back_to_python_ints(space6):
    # 2^61 - 1 is prime: every non-fixed entry gets that denominator, and
    # D x^2 alone leaves int64 for x >= 3
    p = 2 ** 61 - 1
    m_arr = mean_matrix_exact(space6).M.copy()
    for i, j in nonfixed_positions(6):
        m_arr[i - 1, j - 1] = F(int(m_arr[i - 1, j - 1] * p), p)
    mean = MeanMatrix(n=6, M=m_arr)
    costs, scale, _ = _scaled_costs(space6, mean)
    assert scale == p and costs.dtype == object
    assert vitreebi(space6, mean) == _brute_force(space6, mean)


def test_path_cap_bounds(space6):
    mean = mean_matrix_exact(space6)
    for cap in (0, MAX_PATH_CAP + 1):
        with pytest.raises(ValidationError):
            vitreebi(space6, mean, path_cap=cap)
