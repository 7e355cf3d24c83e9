"""Tests of the benchmark's references, inputs and output checks.

Run from the root of the repository:

    python3 -m pytest -q perfbench/test_refs.py

The references are tested against each other (the closed-form mean and
the singleton chain against the exhaustive enumerator) and against the
values the paper states. Each output check is shown to pass on a correct
output built from the references and to fail on a corrupted one. The
last test runs the program itself and compares it with the references.
"""

import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from math import factorial
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import inputs
import refs
import workloads
from workloads import Failed, Wrong

ROOT = Path(__file__).resolve().parent.parent


def _nonfixed(n):
    return [(i, j) for i in range(3, n) for j in range(1, i - 1)]


def _fmt(value):
    value = Fraction(value)
    return str(value.numerator) if value.denominator == 1 else f"{value.numerator}/{value.denominator}"


@pytest.mark.parametrize("n, count", [(4, 2), (5, 5), (6, 16), (7, 61), (8, 272)])
def test_shape_counts_are_euler_zigzag_numbers(n, count):
    shapes = refs.enumerate_shapes(n)
    assert len(shapes) == count
    assert len({tri for tri, _ in shapes}) == count
    assert sum(p for _, p in shapes) == 1


@pytest.mark.parametrize("n", [5, 8, 11])
def test_closed_form_mean_and_e_law_match_the_enumerator(n):
    shapes = refs.enumerate_shapes(n)
    scale = factorial(n - 1)
    weights = np.array([int(p * scale) for _, p in shapes], dtype=np.int64)
    arr = refs.as_array([tri for tri, _ in shapes], n)
    totals = (weights[:, None, None] * arr).sum(axis=0)
    for i, row in enumerate(refs.kingman_mean(n)):
        for j, mean in enumerate(row):
            assert Fraction(int(totals[i, j]), scale) == mean
    e_pmf = {}
    for tri, p in shapes:
        e_pmf[sum(tri[-1])] = e_pmf.get(sum(tri[-1]), 0) + p
    law = refs.e_law(n)
    assert law == dict(sorted(e_pmf.items()))
    assert refs.law_mean_var(law)[0] == Fraction(n * (n + 1), 3)


def test_e_law_at_n25_ends_at_301():
    law = refs.e_law(25)
    assert max(law) == 301 and sum(law.values()) == 1
    assert refs.law_mean_var(law)[0] == Fraction(25 * 26, 3)


def test_validity_check_accepts_exactly_the_ranked_shapes():
    """Every one-entry change of every n = 6 shape is valid only if it is
    itself a ranked shape."""
    n = 6
    shapes = {tri for tri, _ in refs.enumerate_shapes(n)}
    assert refs.fmatrix_problem(refs.as_array(sorted(shapes), n)) is None
    for tri in shapes:
        for i in range(n - 1):
            for j in range(i + 1):
                for delta in (-1, 1):
                    rows = [list(r) for r in tri]
                    rows[i][j] += delta
                    changed = tuple(tuple(r) for r in rows)
                    valid = refs.fmatrix_problem(refs.as_array([rows], n)) is None
                    assert valid == (changed in shapes), (tri, i, j, delta)


def test_validity_check_names_the_fault():
    tri = [list(r) for r in refs.enumerate_shapes(6)[0][0]]
    arr = refs.as_array([tri], 6)
    above = arr.copy()
    above[0, 1, 3] = 1
    assert "above the diagonal" in refs.fmatrix_problem(above)
    diag = arr.copy()
    diag[0, 2, 2] = 0
    assert "diagonal" in refs.fmatrix_problem(diag)
    far = arr.copy()
    far[0, 4, 0] = 99
    assert refs.fmatrix_problem(far) is not None


def test_exhaustive_frechet_gives_the_papers_costs():
    best6, min6 = refs.exhaustive_frechet(6)
    assert best6 == Fraction(437, 450) and len(min6) == 2
    assert refs.exhaustive_frechet(8)[0] == Fraction(1553, 1050)


def _frechet_output(tmp_path, n, tris, cost_text):
    out = tmp_path / "frechet.json"
    paths = [[1, 2, k] for k in range(len(tris))]
    out.write_text(json.dumps({
        "n": n, "min_cost": cost_text, "paths": paths,
        "fmatrices": [{"n": n, "tri": [list(r) for r in tri]} for tri in tris],
    }))
    stdout = "\n".join([cost_text] + [",".join(map(str, p)) for p in paths]) + "\n"
    return out, SimpleNamespace(returncode=0, stdout=stdout, stderr="")


def test_frechet_check_passes_the_exhaustive_answer_and_fails_corruptions(tmp_path):
    n = 8
    best, minimisers = refs.exhaustive_frechet(n)
    tris = sorted(minimisers)
    out, res = _frechet_output(tmp_path, n, tris, _fmt(best))
    check = workloads.frechet_check(n, str(out), (best, minimisers))
    check(res)
    out, res = _frechet_output(tmp_path, n, tris[:1], _fmt(best))
    with pytest.raises(Wrong):
        check(res)
    out, res = _frechet_output(tmp_path, n, tris, _fmt(best + Fraction(1, 10 ** 6)))
    with pytest.raises(Wrong):
        check(res)
    bad = [list(r) for r in tris[0]]
    bad[6][2] += 1
    out, res = _frechet_output(tmp_path, n, [bad] + tris[1:], _fmt(best))
    with pytest.raises(Wrong):
        check(res)


def test_frechet_check_in_float_allows_rounding_but_not_1e_6(tmp_path):
    n = 8
    best, minimisers = refs.exhaustive_frechet(n)
    tris = sorted(minimisers)
    check = None
    for cost, ok in ((float(best), True), (float(best) * (1 + 1e-12), True),
                     (float(best) * (1 + 1e-6), False)):
        out, res = _frechet_output(tmp_path, n, tris, repr(cost))
        check = workloads.frechet_check(n, str(out))
        if ok:
            check(res)
        else:
            with pytest.raises(Wrong):
                check(res)
    with pytest.raises(Failed):
        check(SimpleNamespace(returncode=3, stdout="", stderr="capacity"))


def _moments_csv(n):
    """Exact moments of S, E and F from the enumerator, in the CLI's CSV layout."""
    shapes = refs.enumerate_shapes(n)
    pos = _nonfixed(n)

    def expect(fn):
        return sum(p * fn(tri) for tri, p in shapes)

    def f(a):
        i, j = pos[a]
        return lambda tri: tri[i - 1][j - 1]

    s = lambda tri: sum(tri[i - 1][j - 1] for i, j in pos)  # noqa: E731
    e = lambda tri: sum(tri[-1])  # noqa: E731
    rows = [["target", "statistic", "value"],
            ["S", "mean", expect(s)], ["S", "var", expect(lambda t: s(t) ** 2) - expect(s) ** 2],
            ["E", "mean", expect(e)], ["E", "var", expect(lambda t: e(t) ** 2) - expect(e) ** 2],
            ["SE", "cov", expect(lambda t: s(t) * e(t)) - expect(s) * expect(e)]]
    for a, (i, j) in enumerate(pos):
        rows.append([f"F({i},{j})", "mean", expect(f(a))])
    for a, pa in enumerate(pos):
        for b in range(a, len(pos)):
            cov = expect(lambda t: f(a)(t) * f(b)(t)) - expect(f(a)) * expect(f(b))
            rows.append([f"F({pa[0]},{pa[1]}):F({pos[b][0]},{pos[b][1]})", "cov", cov])
    return [[t, st, v if isinstance(v, str) else _fmt(v)] for t, st, v in rows]


def _csv_result(rows):
    return SimpleNamespace(returncode=0, stdout="\n".join(",".join(
        f'"{c}"' if "," in c else c for c in row) for row in rows) + "\n", stderr="")


def test_moments_check_passes_enumerated_moments_and_fails_corruptions():
    n = 7
    rows = _moments_csv(n)
    check = workloads.moments_check(n)
    check(_csv_result(rows))
    labels = [("F(5,2)", "mean"), ("E", "var"), ("S", "var"), ("F(6,1):F(6,4)", "cov")]
    for label in labels:
        bad = [list(r) for r in rows]
        row = next(r for r in bad if (r[0], r[1]) == label)
        row[2] = _fmt(Fraction(row[2]) + Fraction(1, 10 ** 6))
        with pytest.raises(Wrong):
            check(_csv_result(bad))
    floats = [r if k == 0 else [r[0], r[1], repr(float(Fraction(r[2])))] for k, r in enumerate(rows)]
    with pytest.raises(Wrong):
        check(_csv_result(floats))


def test_corpus_check_passes_neutral_trees_and_fails_skewed_or_broken_ones(tmp_path):
    n, count = 10, 2000
    rng = random.Random(5)
    path = tmp_path / "corpus.jsonl"
    tris = [inputs.neutral_tree(n, rng) for _ in range(count)]
    inputs.write_corpus(path, n, tris)
    ok = SimpleNamespace(returncode=0, stdout="", stderr="")
    workloads.corpus_check(n, count, str(path))(ok)
    inputs.write_corpus(path, n, [inputs.skewed_tree(n, rng) for _ in range(count)])
    with pytest.raises(Wrong, match="sample means"):
        workloads.corpus_check(n, count, str(path))(ok)
    tris[3][5][0] += 1
    inputs.write_corpus(path, n, tris)
    with pytest.raises(Wrong, match="tree 3"):
        workloads.corpus_check(n, count, str(path))(ok)
    with pytest.raises(Wrong):
        workloads.corpus_check(n, count + 1, str(path))(ok)


def test_report_check_recomputes_ge(tmp_path):
    n = 12
    rng = random.Random(9)
    e_values = [sum(inputs.skewed_tree(n, rng)[-1]) for _ in range(500)]
    law = refs.e_law(n)
    boxes = [40, 44, 47, 50, 79]
    stat = refs.ge_statistic(e_values, boxes, law)

    def report(ge_stat, p=1e-9):
        tests = {t: {"statistic": 1.0, "null": "normal", "p_value": p, "config": {}}
                 for t in ("WF", "WSE", "HT")}
        tests["GE"] = {"statistic": ge_stat, "null": "chi2(4)", "p_value": p,
                       "config": {"K": 5, "boxes": boxes}}
        return SimpleNamespace(returncode=0, stderr="",
                               stdout=json.dumps({"n": n, "m": 500, "tests": tests}))

    check = workloads.report_check(n, e_values, law)
    check(report(stat))
    check(report(stat * (1 + 1e-9)))
    with pytest.raises(Wrong):
        check(report(stat * (1 + 1e-5)))
    with pytest.raises(Wrong):
        check(report(stat, p=1e-3))


def test_refusal_check():
    check = workloads.refusal_check(17)
    check(SimpleNamespace(returncode=2, stdout="", stderr="error: c.jsonl:17: diagonal F_3,3 = 0\n"))
    with pytest.raises(Failed):
        check(SimpleNamespace(returncode=0, stdout="{}", stderr=""))
    with pytest.raises(Failed):
        check(SimpleNamespace(returncode=2, stdout="", stderr="error: diagonal F_3,3 = 0\n"))


def test_malformed_corpus_is_fixed_and_bad_only_on_its_line(tmp_path):
    path = tmp_path / "bad.jsonl"
    inputs.malformed_corpus(path)
    first = path.read_text()
    inputs.malformed_corpus(path)
    assert path.read_text() == first
    tris = [json.loads(line)["tri"] for line in first.splitlines()]
    assert len(tris) == inputs.MALFORMED_TREES
    for k, tri in enumerate(tris, start=1):
        bad = refs.fmatrix_problem(refs.as_array([tri], inputs.MALFORMED_N)) is not None
        assert bad == (k == inputs.MALFORMED_LINE)


def _power_result(rows, reps):
    lines = ["beta,test,m,replicates,rejection_rate,mc_se"]
    for beta, test, count in rows:
        r = count / reps
        lines.append(f"{beta},{test},300,{reps},{r!r},{(r * (1 - r) / reps) ** 0.5!r}")
    return SimpleNamespace(returncode=0, stdout="\n".join(lines) + "\n", stderr="")


def test_power_check():
    reps, tests = 30, ("GE", "WF", "WSE", "HT")
    check = workloads.power_check(300, reps, (-1.0, 0.0, 1.0))
    good = [(b, t, c) for b, c in ((-1.0, 30), (0.0, 2), (1.0, 20)) for t in tests]
    check(_power_result(good, reps))
    # a level-0.05 test rejects 8 or more of 30 with probability 8.5e-5, 9 or more with 1.1e-5
    check(_power_result([(b, t, 8 if (b, t) == (0.0, "HT") else c) for b, t, c in good], reps))
    for bad in (
        [(b, t, 9 if (b, t) == (0.0, "HT") else c) for b, t, c in good],
        [(b, t, 26 if (b, t) == (-1.0, "GE") else c) for b, t, c in good],
        good[:-1],
    ):
        with pytest.raises(Wrong):
            check(_power_result(bad, reps))
    res = _power_result(good, reps)
    res.stdout = res.stdout.replace(",0.0\n", ",0.001\n", 1)
    with pytest.raises(Wrong):
        check(res)


def _cli(*argv):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, ["src", os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-m", "rankedcoal.cli", *argv], cwd=ROOT, env=env,
                         capture_output=True, text=True, check=True)
    return out.stdout


@pytest.mark.skipif(not (ROOT / "src" / "rankedcoal").is_dir(), reason="needs the rankedcoal sources")
@pytest.mark.parametrize("n", [5, 8, 11])
def test_program_matches_the_references(n, tmp_path):
    workloads.moments_check(n)(SimpleNamespace(returncode=0, stderr="",
                                               stdout=_cli("moments", "--targets", "S,E,F", "--n", str(n))))
    law = refs.e_law(n)
    pmf = dict(line.split(",") for line in _cli("bcp", "--n", str(n)).split()[1:])
    assert {int(m) for m in pmf} == set(law)
    for m, p in pmf.items():
        assert abs(float(p) - float(law[int(m)])) < 1e-12
    if n <= 8:
        out = tmp_path / "frechet.json"
        res = SimpleNamespace(returncode=0, stderr="", stdout=_cli("frechet", "--n", str(n), "--out", str(out)))
        workloads.frechet_check(n, str(out), refs.exhaustive_frechet(n))(res)
