"""The workloads: the CLI calls of one pass and the checks on their outputs.

Each workload builder takes the workload seed and a scratch directory,
writes the inputs it needs there, and returns the calls of one pass.
A check raises ``Failed`` when the program did not do what the call asks
(a nonzero exit, or a malformed corpus accepted) and ``Wrong`` when it
did, but its output disagrees with a reference computed here.
"""

import csv
import io
import json
import math
import os
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import inputs
import refs

POWER_REPS = 30
POWER_ALPHA = Fraction(1, 20)
# one-sided normal tail beyond 4 standard errors
FOUR_SIGMA_TAIL = 3.167e-5
CORPUS_N = 25
CORPUS_TREES = 1000


class Failed(Exception):
    """The program did not complete the operation."""


class Wrong(Exception):
    """The operation completed, but its output fails its check."""


@dataclass
class Call:
    argv: list
    check: Callable


def _ok(res):
    if res.returncode != 0:
        raise Failed(f"exit {res.returncode}: {res.stderr.strip()[-300:]}")


def _number(text):
    text = text.strip()
    if "/" in text:
        p, q = text.split("/")
        return Fraction(int(p), int(q))
    try:
        return Fraction(int(text))
    except ValueError:
        return float(text)


def _nonfixed(n):
    return [(i, j) for i in range(3, n) for j in range(1, i - 1)]


def frechet_check(n, out_path, exhaustive=None):
    """Every returned F-matrix is valid and costs the printed minimum
    against the closed-form mean; at an enumerable n, ``exhaustive`` is
    (minimum, minimisers) from the search over every shape."""
    mean = refs.kingman_mean(n)

    def check(res):
        _ok(res)
        lines = res.stdout.split()
        with open(out_path, encoding="utf-8") as fh:
            payload = json.load(fh)
        if not lines or lines[0] != payload["min_cost"]:
            raise Wrong("printed minimum differs from the --out file")
        if lines[1:] != [",".join(str(v) for v in p) for p in payload["paths"]]:
            raise Wrong("printed paths differ from the --out file")
        tris = [f["tri"] for f in payload["fmatrices"]]
        if not tris or len(tris) != len(lines) - 1 or any(f["n"] != n for f in payload["fmatrices"]):
            raise Wrong(f"expected one n = {n} F-matrix per printed path")
        problem = refs.fmatrix_problem(refs.as_array(tris, n))
        if problem:
            raise Wrong(problem)
        found = {tuple(tuple(row) for row in tri) for tri in tris}
        if len(found) != len(tris):
            raise Wrong("an F-matrix is returned twice")
        cost = _number(lines[0])
        for t, tri in enumerate(tris):
            ref = refs.frechet_cost(tri, mean)
            if isinstance(cost, Fraction):
                if ref != cost:
                    raise Wrong(f"F-matrix {t}: ||F - M||^2 = {ref}, printed {cost}")
            elif abs(float(ref) - cost) > 1e-9 * float(ref):
                raise Wrong(f"F-matrix {t}: ||F - M||^2 = {float(ref)!r}, printed {cost!r}")
        if exhaustive is not None:
            best, minimisers = exhaustive
            if cost != best or found != minimisers:
                raise Wrong(f"exhaustive search gives {best} with {len(minimisers)} minimisers")

    return check


def moments_check(n):
    """Exact moments of S, E and F at n <= 12: every F mean is j(j+1)/i,
    E[E] = n(n+1)/3, Var(E) is that of the singleton chain, and Var S,
    Var E and Cov(S, E) agree with the printed F covariances."""
    pos = _nonfixed(n)
    _, law_var = refs.law_mean_var(refs.e_law(n))

    def check(res):
        _ok(res)
        rows = list(csv.reader(io.StringIO(res.stdout)))
        if not rows or rows[0] != ["target", "statistic", "value"]:
            raise Wrong("missing CSV header")
        values = {}
        for target, stat, value in rows[1:]:
            if (target, stat) in values:
                raise Wrong(f"{target} {stat} printed twice")
            values[(target, stat)] = _number(value)
        if len(values) != 5 + len(pos) + len(pos) * (len(pos) + 1) // 2:
            raise Wrong(f"{len(values)} rows, expected S, E, SE, every F mean and covariance")
        if any(not isinstance(v, Fraction) for v in values.values()):
            raise Wrong("a moment is not exact")

        def get(key):
            if key not in values:
                raise Wrong(f"missing {key}")
            return values[key]

        for i, j in pos:
            if get((f"F({i},{j})", "mean")) != Fraction(j * (j + 1), i):
                raise Wrong(f"E[F_{i},{j}] = {values[(f'F({i},{j})', 'mean')]}, expected {j * (j + 1)}/{i}")

        def cov(a, b):
            a, b = sorted((pos.index(a), pos.index(b)))
            (ia, ja), (ib, jb) = pos[a], pos[b]
            return get((f"F({ia},{ja}):F({ib},{jb})", "cov"))

        last = [p for p in pos if p[0] == n - 1]
        expected = {
            ("E", "mean"): Fraction(n * (n + 1), 3),
            ("E", "var"): law_var,
            ("S", "mean"): sum(Fraction(j * (j + 1), i) for i, j in pos),
            ("S", "var"): sum(cov(a, b) for a in pos for b in pos),
            ("SE", "cov"): sum(cov(a, b) for a in pos for b in last),
        }
        if sum(cov(a, b) for a in last for b in last) != law_var:
            raise Wrong("last-row F covariances do not add up to Var(E)")
        for key, ref in expected.items():
            if get(key) != ref:
                raise Wrong(f"{key[0]} {key[1]} = {values[key]}, expected {ref}")

    return check


def corpus_check(n, count, path):
    """``count`` valid F-matrices whose entrywise means lie within five
    standard errors of the Kingman means j(j+1)/i."""
    mean = refs.kingman_mean(n)

    def check(res):
        _ok(res)
        with open(path, encoding="utf-8") as fh:
            objs = [json.loads(line) for line in fh if line.strip()]
        if len(objs) != count or any(o["n"] != n for o in objs):
            raise Wrong(f"expected {count} F-matrices with n = {n}, got {len(objs)}")
        arr = refs.as_array([o["tri"] for o in objs], n)
        problem = refs.fmatrix_problem(arr)
        if problem:
            raise Wrong(problem)
        off = refs.mean_deviations(arr, mean)
        if off:
            i, j, got, want = off[0]
            raise Wrong(f"{len(off)} sample means off, first F_{i},{j} = {got} against {want}")

    return check


def report_check(n, e_values, law):
    """On the non-neutral corpus every p-value is below 1e-6, and the GE
    statistic matches its recomputation from the corpus, the reported
    boxes and the exact law of E."""

    def check(res):
        _ok(res)
        payload = json.loads(res.stdout)
        tests = payload["tests"]
        if payload["n"] != n or payload["m"] != len(e_values) or set(tests) != {"GE", "WF", "WSE", "HT"}:
            raise Wrong("report is not for this corpus and the four tests")
        for name, rep in tests.items():
            if not rep["p_value"] < 1e-6:
                raise Wrong(f"{name} p-value {rep['p_value']} on a non-neutral corpus")
        ge = tests["GE"]
        boxes = ge["config"]["boxes"]
        if ge["config"]["K"] != len(boxes) or ge["null"] != f"chi2({len(boxes) - 1})":
            raise Wrong("GE box count disagrees with its null")
        ref = refs.ge_statistic(e_values, boxes, law)
        if abs(ge["statistic"] - ref) > 1e-6 * ref:
            raise Wrong(f"GE statistic {ge['statistic']!r}, recomputed {ref!r}")

    return check


def refusal_check(line):
    """A malformed corpus must be refused with exit 2 and an error that names its line."""

    def check(res):
        if res.returncode != 2 or not re.search(rf"(:|line ){line}\b", res.stderr):
            raise Failed(f"malformed corpus accepted (exit {res.returncode}); line {line} not named")

    return check


def _binomial_sf(count, reps, p):
    """P(X >= count) for X ~ Binomial(reps, p), exactly."""
    return sum(math.comb(reps, k) * p ** k * (1 - p) ** (reps - k) for k in range(count, reps + 1))


def power_check(m, reps, betas, tests=("GE", "WF", "WSE", "HT")):
    """One row per (beta, test) with mc_se = sqrt(r(1-r)/reps); at beta = -1
    every test rejects in at least 90% of replicates; at beta = 0 no test
    rejects so often that a level-alpha test would do so with a probability
    below the one-sided normal tail beyond 4 standard errors."""

    def check(res):
        _ok(res)
        rows = list(csv.DictReader(io.StringIO(res.stdout)))
        keys = [(float(r["beta"]), r["test"]) for r in rows]
        if sorted(keys) != sorted((b, t) for b in betas for t in tests):
            raise Wrong("expected one row per (beta, test)")
        for r in rows:
            beta, rate, se = float(r["beta"]), float(r["rejection_rate"]), float(r["mc_se"])
            label = f"beta = {beta}, {r['test']}"
            if int(r["m"]) != m or int(r["replicates"]) != reps:
                raise Wrong(f"{label}: m or replicates differ from the call")
            count = round(rate * reps)
            if abs(count - rate * reps) > 1e-9:
                raise Wrong(f"{label}: rate {rate} is not a count over {reps}")
            if abs(se - math.sqrt(rate * (1 - rate) / reps)) > 1e-12:
                raise Wrong(f"{label}: mc_se {se} != sqrt(r(1-r)/reps)")
            if beta == -1.0 and rate < 0.9:
                raise Wrong(f"{label}: power {rate} < 0.9")
            if beta == 0.0 and _binomial_sf(count, reps, POWER_ALPHA) < FOUR_SIGMA_TAIL:
                raise Wrong(f"{label}: level {rate} too high for alpha = {float(POWER_ALPHA)}")

    return check


def frechet_n25(seed, work):
    out = os.path.join(work, "frechet25.json")
    return [Call(["frechet", "--n", "25", "--out", out], frechet_check(25, out))]


def exact_n12(seed, work):
    o12 = os.path.join(work, "frechet12.json")
    o8 = os.path.join(work, "frechet8.json")
    return [
        Call(["moments", "--targets", "S,E,F", "--n", "12"], moments_check(12)),
        Call(["frechet", "--n", "12", "--out", o12], frechet_check(12, o12)),
        Call(["frechet", "--n", "8", "--out", o8], frechet_check(8, o8, refs.exhaustive_frechet(8))),
    ]


def corpus_n25(seed, work):
    n, count = CORPUS_N, CORPUS_TREES
    kingman = os.path.join(work, "kingman.jsonl")
    beta0 = os.path.join(work, "beta0.jsonl")
    skewed = os.path.join(work, "skewed.jsonl")
    malformed = os.path.join(work, "malformed.jsonl")
    inputs.skewed_corpus(skewed, n, count, seed)
    inputs.malformed_corpus(malformed)
    with open(skewed, encoding="utf-8") as fh:
        e_values = [sum(json.loads(line)["tri"][-1]) for line in fh]
    return [
        Call(["simulate", "--model", "kingman", "--n", str(n), "--count", str(count),
              "--seed", str(inputs.program_seed(seed, "kingman")), "--out", kingman],
             corpus_check(n, count, kingman)),
        Call(["simulate", "--model", "beta", "--beta", "0", "--n", str(n), "--count", str(count),
              "--seed", str(inputs.program_seed(seed, "beta0")), "--out", beta0],
             corpus_check(n, count, beta0)),
        Call(["test", "--in", skewed], report_check(n, e_values, refs.e_law(n))),
        Call(["test", "--in", malformed], refusal_check(inputs.MALFORMED_LINE)),
    ]


def power_n10(seed, work):
    return [Call(["power", "--n", "10", "--m", "300", "--reps", str(POWER_REPS),
                  "--beta-grid=-1:1:1", "--seed", str(inputs.program_seed(seed, "power"))],
                 power_check(300, POWER_REPS, (-1.0, 0.0, 1.0)))]


WORKLOADS = {
    "frechet-n25": frechet_n25,
    "exact-n12": exact_n12,
    "corpus-n25": corpus_n25,
    "power-n10": power_n10,
}
