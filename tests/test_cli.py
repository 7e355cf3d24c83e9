"""End-to-end CLI checks, all in process through main(argv)."""

import csv
import json
import os
from fractions import Fraction

import numpy as np
import pytest

from rankedcoal.cli import main
from rankedcoal.fmatrix import balance_E, balance_S, colless, read_jsonl, sackin
from rankedcoal.kingman import sample_paths, validate_path
from rankedcoal.statespace import enumerate_states


def _rows(text):
    return list(csv.reader(text.splitlines()))


def test_statespace_stdout(capsys):
    assert main(["statespace", "--n", "5"]) == 0
    assert capsys.readouterr().out == "8\n"


def test_statespace_sizes(capsys):
    assert main(["statespace", "--n", "5", "--sizes"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "8"
    assert out[1:] == ["0,2", "1,2", "2,1", "3,1", "4,0", "5,1"]


def test_statespace_emit(tmp_path, capsys):
    target = tmp_path / "states.json"
    assert main(["statespace", "--n", "5", "--emit", str(target)]) == 0
    capsys.readouterr()
    payload = json.loads(target.read_text())
    assert len(payload) == 7
    assert payload[3] == {"index": 4, "tier": 2, "x": [0, 3, 2, 1]}
    assert not [f for f in os.listdir(tmp_path) if f.startswith(".tmp-")]


def test_statespace_exit_codes(capsys):
    assert main(["statespace", "--n", "40"]) == 3
    assert capsys.readouterr().err.startswith("capacity:")
    # packed keys would overflow int64: refused before anything is built
    assert main(["statespace", "--n", "60", "--max-n", "100"]) == 3
    assert capsys.readouterr().err.startswith("capacity:")
    assert main(["statespace", "--n", "2"]) == 2
    assert capsys.readouterr().err.startswith("error:")
    with pytest.raises(SystemExit) as exc:
        main(["statespace"])
    assert exc.value.code == 2


def test_kernel_rational(capsys):
    assert main(["kernel", "--n", "5"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["n"] == 5
    assert [b["from_tier"] for b in payload["blocks"]] == [0, 1, 2]
    first, middle, last = payload["blocks"]
    assert first["entries"] == [[1, 2, "1"]]
    assert last["denominator"] == 3
    assert last["n_rows"] == 2 and last["n_cols"] == 3
    assert last["entries"] == [
        [3, 5, "2/3"], [3, 7, "1/3"],
        [4, 5, "1/3"], [4, 6, "1/3"], [4, 7, "1/3"],
    ]
    assert middle["entries"] == [[2, 3, "1/2"], [2, 4, "1/2"]]


def test_kernel_float_mode(tmp_path):
    target = tmp_path / "kernel.json"
    assert main(["kernel", "--n", "5", "--mode", "float",
                 "--emit", str(target)]) == 0
    payload = json.loads(target.read_text())
    value = float(payload["blocks"][2]["entries"][0][2])
    assert value == pytest.approx(2 / 3, rel=1e-15)


def test_sample_matches_library(tmp_path, capsys):
    target = tmp_path / "paths.jsonl"
    assert main(["sample", "--n", "6", "--count", "5", "--seed", "3",
                 "--out", str(target)]) == 0
    capsys.readouterr()
    lines = target.read_text().splitlines()
    assert len(lines) == 5
    space = enumerate_states(6)
    expected = sample_paths(space, 5, seed=3)
    for line, row in zip(lines, expected):
        path = tuple(json.loads(line)["path"])
        assert path == tuple(int(v) for v in row)
        validate_path(space, path)


def test_simulate_round_trip(tmp_path, capsys):
    target = tmp_path / "corpus.jsonl"
    assert main(["simulate", "--model", "beta", "--beta", "0", "--n", "7",
                 "--count", "12", "--seed", "11", "--out", str(target)]) == 0
    capsys.readouterr()
    mats = read_jsonl(str(target))
    assert len(mats) == 12
    assert all(f.n == 7 for f in mats)
    again = tmp_path / "again.jsonl"
    assert main(["simulate", "--model", "beta", "--beta", "0", "--n", "7",
                 "--count", "12", "--seed", "11", "--out", str(again)]) == 0
    capsys.readouterr()
    assert target.read_bytes() == again.read_bytes()


def test_simulate_kingman_and_balance(tmp_path, capsys):
    corpus = tmp_path / "king.jsonl"
    assert main(["simulate", "--model", "kingman", "--n", "5", "--count", "6",
                 "--seed", "2", "--out", str(corpus)]) == 0
    assert main(["balance", "--in", str(corpus)]) == 0
    rows = _rows(capsys.readouterr().out)
    assert rows[0] == ["E", "S", "sackin", "colless"]
    mats = read_jsonl(str(corpus))
    assert len(rows) == 1 + len(mats)
    for fmat, row in zip(mats, rows[1:]):
        assert [int(v) for v in row] == [
            balance_E(fmat), balance_S(fmat), sackin(fmat), colless(fmat)]


def test_frechet_kingman_n6(tmp_path, capsys):
    target = tmp_path / "frechet.json"
    assert main(["frechet", "--n", "6", "--out", str(target)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == ["437/450", "1,2,4,6,10", "1,2,4,7,11"]
    payload = json.loads(target.read_text())
    assert payload["min_cost"] == "437/450"
    assert payload["paths"] == [[1, 2, 4, 6, 10], [1, 2, 4, 7, 11]]
    assert len(payload["fmatrices"]) == 2
    assert payload["fmatrices"][0]["n"] == 6


def test_frechet_sample_corpus(tmp_path, capsys, monkeypatch):
    from rankedcoal import statespace

    corpus = tmp_path / "one.jsonl"
    assert main(["simulate", "--model", "kingman", "--n", "5", "--count", "1",
                 "--seed", "5", "--out", str(corpus)]) == 0
    capsys.readouterr()
    assert main(["frechet", "--n", "5", "--sample", str(corpus)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "0"
    assert len(out) == 2
    assert main(["frechet", "--n", "6", "--sample", str(corpus)]) == 2
    assert main(["frechet", "--n", "6", "--path-cap", "1"]) == 3
    capsys.readouterr()

    # the corpus is checked before the chain is built
    def no_chain(*args, **kwargs):
        raise AssertionError("the chain was built before the corpus was checked")

    monkeypatch.setattr(statespace, "enumerate_states", no_chain)
    assert main(["frechet", "--n", "25", "--sample", str(corpus)]) == 2
    assert capsys.readouterr().err == "error: corpus has n = 5, expected 25\n"
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    assert main(["frechet", "--n", "25", "--sample", str(empty)]) == 2
    assert capsys.readouterr().err == f"error: {empty}: empty corpus\n"


@pytest.mark.parametrize("cap", ["0", "-5", str(2 ** 50 + 1)])
def test_frechet_refuses_path_caps_the_count_cannot_hold(cap, capsys):
    assert main(["frechet", "--n", "25", "--path-cap", cap]) == 2
    assert capsys.readouterr().err.startswith("error: path cap must be in 1..")


def test_frechet_n25_does_not_depend_on_the_blas_thread_count():
    import subprocess
    import sys

    import rankedcoal

    src = os.path.dirname(os.path.dirname(rankedcoal.__file__))
    outs = [
        subprocess.run([sys.executable, "-m", "rankedcoal.cli", "frechet", "--n", "25"],
                       capture_output=True, text=True,
                       env={**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": threads})
        for threads in ("1", "2")
    ]
    assert [res.returncode for res in outs] == [0, 0]
    assert outs[0].stdout == outs[1].stdout


def test_moments_se(capsys):
    assert main(["moments", "--n", "5"]) == 0
    rows = _rows(capsys.readouterr().out)
    assert rows == [
        ["target", "statistic", "value"],
        ["S", "mean", "8/3"],
        ["S", "var", "11/9"],
        ["E", "mean", "10"],
        ["E", "var", "2/3"],
        ["SE", "cov", "5/6"],
    ]


def test_moments_engines_agree(capsys):
    assert main(["moments", "--n", "5", "--targets", "F"]) == 0
    feed = capsys.readouterr().out
    assert main(["moments", "--n", "5", "--targets", "F",
                 "--engine", "dense"]) == 0
    dense = capsys.readouterr().out
    assert feed == dense
    values = {(r[0], r[1]): r[2] for r in _rows(feed)[1:]}
    assert values[("F(4,2)", "mean")] == "3/2"
    assert values[("F(3,1):F(4,2)", "cov")] == "0"
    assert values[("F(4,1):F(4,2)", "cov")] == "1/12"


def test_moments_rational_refusal(capsys):
    assert main(["moments", "--n", "13", "--targets", "F",
                 "--mode", "rational"]) == 2
    assert "rational" in capsys.readouterr().err
    assert main(["moments", "--n", "5", "--targets", "S,Q"]) == 2
    capsys.readouterr()


def test_moments_emit_dph(tmp_path, capsys):
    target = tmp_path / "dph.json"
    assert main(["moments", "--n", "4", "--emit-dph", str(target)]) == 0
    capsys.readouterr()
    payload = json.loads(target.read_text())
    assert payload["pi"] == ["1", "0", "0", "0"]
    assert payload["T"][1][2] == "2/3"
    assert payload["exit"] == ["0", "0", "1", "1"]


def test_moments_build_each_tier_once(tmp_path, capsys, monkeypatch):
    """The feed-forward summary, the dense engine and the emitted DPH all
    read one set of blocks: every tier's rows are built once."""
    from rankedcoal import kingman

    built = []

    def counted(space, t, rows=None):
        built.append(t)
        return tier_rows(space, t, rows)

    tier_rows = kingman._tier_rows
    monkeypatch.setattr(kingman, "_tier_rows", counted)
    n = 6
    assert main(["moments", "--targets", "S,E,F", "--engine", "dense", "--n", str(n),
                 "--emit-dph", str(tmp_path / "dph.json")]) == 0
    capsys.readouterr()
    assert sorted(built) == list(range(n - 2))


def test_bcp_sizes(capsys):
    assert main(["bcp", "--sizes", "--n-max", "10"]) == 0
    rows = _rows(capsys.readouterr().out)
    assert rows[0] == ["n", "partitions", "fib"]
    assert rows[-1] == ["10", "42", "89"]
    assert len(rows) == 9


def test_bcp_distribution(capsys):
    assert main(["bcp", "--n", "4"]) == 0
    rows = _rows(capsys.readouterr().out)
    assert rows[0] == ["m", "prob"]
    table = {int(m): float(p) for m, p in rows[1:]}
    assert set(table) == {6, 7}
    assert table[6] == pytest.approx(1 / 3, rel=1e-12)
    assert table[7] == pytest.approx(2 / 3, rel=1e-12)
    assert main(["bcp"]) == 2
    capsys.readouterr()


def test_test_subcommand(tmp_path, capsys):
    corpus = tmp_path / "sample.jsonl"
    assert main(["simulate", "--model", "beta", "--beta", "0", "--n", "8",
                 "--count", "300", "--seed", "9", "--out", str(corpus)]) == 0
    report = tmp_path / "report.json"
    assert main(["test", "--in", str(corpus), "--out", str(report)]) == 0
    capsys.readouterr()
    payload = json.loads(report.read_text())
    assert payload["n"] == 8 and payload["m"] == 300
    assert set(payload["tests"]) == {"GE", "WF", "WSE", "HT"}
    for rep in payload["tests"].values():
        assert 0.0 <= rep["p_value"] <= 1.0
        assert rep["config"]["m"] == 300
    assert payload["tests"]["GE"]["null"] == f"chi2({payload['tests']['GE']['config']['K'] - 1})"
    again = tmp_path / "again.json"
    assert main(["test", "--in", str(corpus), "--out", str(again)]) == 0
    capsys.readouterr()
    assert report.read_bytes() == again.read_bytes()


def test_test_subcommand_subset_and_errors(tmp_path, capsys):
    corpus = tmp_path / "tiny.jsonl"
    assert main(["simulate", "--model", "beta", "--beta", "0", "--n", "6",
                 "--count", "40", "--seed", "1", "--out", str(corpus)]) == 0
    assert main(["test", "--in", str(corpus), "--tests", "WF,WSE"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert set(payload["tests"]) == {"WF", "WSE"}
    assert main(["test", "--in", str(corpus), "--tests", "wf, WSE,WF"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert list(payload["tests"]) == ["WF", "WSE"]
    assert main(["test", "--in", str(corpus), "--tests", "WF,XX"]) == 2
    assert main(["test", "--in", str(corpus), "--null", "yule"]) == 2
    capsys.readouterr()
    # test names are checked before the corpus is opened or the null built
    missing = str(tmp_path / "missing.jsonl")
    for names, message in (("", "no test named"), (" , ", "no test named"),
                           ("WF,XX", "unknown tests ['XX']")):
        assert main(["test", "--in", missing, "--tests", names]) == 2
        assert message in capsys.readouterr().err
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    assert main(["test", "--in", str(empty)]) == 2
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"n": 4, "tri": [[2]]}\n')
    assert main(["test", "--in", str(bad)]) == 2
    assert ":1:" in capsys.readouterr().err


def test_power_curve_csv(tmp_path, capsys):
    target = tmp_path / "power.csv"
    args = ["power", "--n", "6", "--m", "40", "--reps", "25",
            "--beta-grid=-0.5,0,1", "--seed", "12", "--out", str(target)]
    assert main(args) == 0
    rows = _rows(target.read_text())
    assert rows[0] == ["beta", "test", "m", "replicates", "rejection_rate", "mc_se"]
    assert len(rows) == 1 + 3 * 4
    betas = sorted({float(r[0]) for r in rows[1:]})
    assert betas == [-0.5, 0.0, 1.0]
    for r in rows[1:]:
        assert 0.0 <= float(r[4]) <= 1.0
    again = tmp_path / "power2.csv"
    assert main(args[:-1] + [str(again)]) == 0
    capsys.readouterr()
    assert target.read_bytes() == again.read_bytes()


@pytest.mark.parametrize("flags,message", [
    (["--reps", "0"], "replicate"),
    (["--reps", "-2"], "replicate"),
    (["--reps", "2", "--alpha", "1.5"], "alpha"),
    (["--reps", "2", "--alpha", "0"], "alpha"),
    (["--reps", "2", "--m", "0", "--tests", "WF"], "tree per sample"),
    (["--reps", "2", "--m", "-3"], "tree per sample"),
    (["--reps", "2", "--tests", "GE,XX"], "unknown tests"),
    (["--reps", "2", "--tests", ""], "no test named"),
    (["--reps", "2", "--seed", "-1"], "--seed"),
])
def test_power_refuses_bad_input_before_any_work(flags, message, tmp_path, capsys, monkeypatch):
    from rankedcoal import neutrality

    def no_null(n):
        raise AssertionError("the null was built")

    monkeypatch.setattr(neutrality, "kingman_null", no_null)
    target = tmp_path / "power.csv"
    assert main(["power", "--n", "6", "--m", "40", "--beta-grid=0", "--seed", "1",
                 "--out", str(target)] + flags) == 2
    captured = capsys.readouterr()
    assert message in captured.err and captured.out == ""
    assert not target.exists()


@pytest.mark.parametrize("argv", [
    ["sample", "--n", "5"],
    ["simulate", "--model", "kingman", "--n", "5"],
    ["simulate", "--model", "beta", "--n", "5"],
])
@pytest.mark.parametrize("flag", ["--count", "--seed"])
def test_sampling_refuses_negative_count_or_seed(argv, flag, tmp_path, capsys, monkeypatch):
    from rankedcoal import betasplit, statespace

    def no_work(*args, **kwargs):
        raise AssertionError("work began before the flags were checked")

    monkeypatch.setattr(statespace, "enumerate_states", no_work)
    monkeypatch.setattr(betasplit, "sample_beta_fmatrices", no_work)
    values = {"--count": "3", "--seed": "1", flag: "-2"}
    target = tmp_path / "out.jsonl"
    args = argv + [v for item in values.items() for v in item] + ["--out", str(target)]
    assert main(args) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {flag} must be nonnegative, got -2\n" and captured.out == ""
    assert not target.exists()


def test_power_grid_forms(capsys):
    assert main(["power", "--n", "5", "--m", "20", "--reps", "5",
                 "--beta-grid", "0:1:0.5", "--seed", "4"]) == 0
    rows = _rows(capsys.readouterr().out)
    assert sorted({float(r[0]) for r in rows[1:]}) == [0.0, 0.5, 1.0]
    assert main(["power", "--n", "5", "--m", "20", "--reps", "5",
                 "--beta-grid", "0:1", "--seed", "4"]) == 2
    assert main(["power", "--n", "5", "--m", "20", "--reps", "5",
                 "--beta-grid", "1:0:-0.5", "--seed", "4"]) == 2
    capsys.readouterr()


def test_atomic_overwrite(tmp_path, capsys):
    target = tmp_path / "out.json"
    target.write_text("sentinel")
    assert main(["kernel", "--n", "4", "--emit", str(target)]) == 0
    capsys.readouterr()
    payload = json.loads(target.read_text())
    assert payload["n"] == 4
    assert not [f for f in os.listdir(tmp_path) if f.startswith(".tmp-")]


def _malformed_corpus(tmp_path, capsys, edits):
    """A 20-tree n = 6 corpus whose line 17 has the (row, column, value) edits."""
    good = tmp_path / "good.jsonl"
    assert main(["simulate", "--model", "kingman", "--n", "6", "--count", "20",
                 "--seed", "4", "--out", str(good)]) == 0
    capsys.readouterr()
    lines = good.read_text().splitlines()
    bad = json.loads(lines[16])
    for i, j, value in edits:
        bad["tri"][i - 1][j - 1] = value
    lines[16] = json.dumps(bad)
    path = tmp_path / "malformed.jsonl"
    path.write_text("\n".join(lines) + "\n")
    return path


REFUSED = ["test"], ["frechet", "--n", "6", "--sample"], ["balance"]


def _refusal(argv, corpus, capsys):
    flag = [] if argv[-1] == "--sample" else ["--in"]
    assert main(argv + flag + [str(corpus)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    return captured.err


@pytest.mark.parametrize("argv", REFUSED)
def test_malformed_corpus_is_refused_on_its_line(argv, tmp_path, capsys):
    corpus = _malformed_corpus(tmp_path, capsys, [(5, 1, 99), (3, 3, 0)])
    err = _refusal(argv, corpus, capsys)
    assert err == f"error: {corpus}:17: diagonal F_3,3 = 0, expected 4\n"


@pytest.mark.parametrize("argv", REFUSED)
def test_infeasible_column_is_refused_on_its_line(argv, tmp_path, capsys):
    # the diagonal is intact; only column 1 is no state of the chain
    corpus = _malformed_corpus(tmp_path, capsys, [(5, 1, 99)])
    err = _refusal(argv, corpus, capsys)
    assert err == f"error: {corpus}:17: column 1: F_5,1 = 99 is not F_4,1 = 1 or one less\n"


def test_rational_calls_do_not_import_scipy():
    """scipy is imported only where a call's work needs it: importing the
    CLI, enumerating states, exact moments and Frechet means load none of
    it, nor numpy.ma."""
    import subprocess
    import sys

    import rankedcoal

    src = os.path.dirname(os.path.dirname(rankedcoal.__file__))
    code = (
        "import contextlib, io, sys\n"
        "from rankedcoal.cli import main\n"
        "def loaded():\n"
        "    return sorted(m for m in sys.modules\n"
        "                  if m.split('.')[0] == 'scipy' or m.split('.')[:2] == ['numpy', 'ma'])\n"
        "print(loaded())\n"
        "for argv in (['statespace', '--n', '3'], ['moments', '--targets', 'S,E,F', '--n', '8'],\n"
        "             ['frechet', '--n', '25']):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert main(argv) == 0\n"
        "    print(loaded())\n"
    )
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src})
    assert res.returncode == 0, res.stderr
    assert res.stdout == "[]\n[]\n[]\n[]\n"


def test_test_at_n25_loads_scipy_special_but_not_sparse(tmp_path):
    """The closed-form Kingman null needs no sparse matrix: only the
    chi-square and normal tails load scipy."""
    import subprocess
    import sys

    import rankedcoal

    corpus = tmp_path / "n25.jsonl"
    assert main(["simulate", "--model", "beta", "--beta", "0", "--n", "25",
                 "--count", "100", "--seed", "8", "--out", str(corpus)]) == 0
    src = os.path.dirname(os.path.dirname(rankedcoal.__file__))
    code = (
        "import contextlib, io, sys\n"
        "from rankedcoal.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert main(['test', '--in', {str(corpus)!r}]) == 0\n"
        "print('scipy.special' in sys.modules, 'scipy.sparse' in sys.modules)\n"
    )
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src})
    assert res.returncode == 0, res.stderr
    assert res.stdout == "True False\n"
