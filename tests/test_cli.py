"""End-to-end CLI checks, all in process through main(argv)."""

import csv
import json
import os
from fractions import Fraction

import numpy as np
import pytest

from rankedcoal._common import default_mode, format_number
from rankedcoal.cli import main
from rankedcoal.fmatrix import balance_E, balance_S, colless, iter_jsonl, sackin
from rankedcoal.kingman import sample_paths, validate_path
from rankedcoal.phasetype import build_rewards, coalescent_dph, mdph_cross_moment, reward_moments
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


def _statespace_payload(n):
    space = enumerate_states(n)
    return [{"index": i + 1, "tier": int(space.tier_of[i]), "x": [int(v) for v in space.states[i]]}
            for i in range(space.num_states)]


def _kernel_payload(n, mode):
    from rankedcoal.kingman import tier_blocks

    space = enumerate_states(n)
    blocks = []
    for blk in tier_blocks(space):
        rows = space.tier_offsets[blk.from_tier] + blk.rows() + 1
        cols = space.tier_offsets[blk.from_tier + 1] + blk.indices + 1
        blocks.append({
            "from_tier": blk.from_tier, "n_rows": blk.n_rows, "n_cols": blk.n_cols,
            "denominator": blk.denom,
            "entries": [[r, c, format_number(p)]
                        for r, c, p in zip(rows.tolist(), cols.tolist(), blk.probs(mode).tolist())],
        })
    return {"n": n, "blocks": blocks}


@pytest.mark.parametrize("n", range(3, 15))
def test_statespace_emit_streams_the_text_of_json_dumps(n, tmp_path, capsys, monkeypatch):
    """The streamed --emit is the text of json.dumps(payload, indent=1), in
    whole pieces and five pieces per write."""
    import rankedcoal.cli as cli

    want = json.dumps(_statespace_payload(n), indent=1) + "\n"
    for pieces in (cli.EMIT_ITEMS, 5):
        monkeypatch.setattr(cli, "EMIT_ITEMS", pieces)
        target = tmp_path / f"states{pieces}.json"
        assert main(["statespace", "--n", str(n), "--emit", str(target)]) == 0
        assert target.read_text() == want
    capsys.readouterr()


@pytest.mark.parametrize("mode", ["rational", "float"])
@pytest.mark.parametrize("n", range(3, 15))
def test_kernel_emit_streams_the_text_of_json_dumps(n, mode, tmp_path, capsys, monkeypatch):
    """``kernel`` prints json.dumps(payload, indent=1) to stdout, and writes
    it through --emit five pieces per write."""
    import rankedcoal.cli as cli

    want = json.dumps(_kernel_payload(n, mode), indent=1) + "\n"
    assert main(["kernel", "--n", str(n), "--mode", mode]) == 0
    assert capsys.readouterr().out == want
    monkeypatch.setattr(cli, "EMIT_ITEMS", 5)
    target = tmp_path / "kernel.json"
    assert main(["kernel", "--n", str(n), "--mode", mode, "--emit", str(target)]) == 0
    assert target.read_text() == want


def test_sample_matches_library(tmp_path, capsys):
    target = tmp_path / "paths.jsonl"
    assert main(["sample", "--n", "6", "--count", "5", "--seed", "3",
                 "--out", str(target)]) == 0
    capsys.readouterr()
    lines = target.read_text().splitlines()
    assert len(lines) == 5
    space = enumerate_states(6)
    expected = sample_paths(6, 5, seed=3)
    for line, row in zip(lines, expected):
        path = tuple(json.loads(line)["path"])
        assert path == tuple(int(v) for v in row)
        validate_path(space, path)


def test_simulate_round_trip(tmp_path, capsys):
    target = tmp_path / "corpus.jsonl"
    assert main(["simulate", "--model", "beta", "--beta", "0", "--n", "7",
                 "--count", "12", "--seed", "11", "--out", str(target)]) == 0
    capsys.readouterr()
    mats = list(iter_jsonl(str(target)))
    assert len(mats) == 12
    assert all(f.n == 7 for f in mats)
    again = tmp_path / "again.jsonl"
    assert main(["simulate", "--model", "beta", "--beta", "0", "--n", "7",
                 "--count", "12", "--seed", "11", "--out", str(again)]) == 0
    capsys.readouterr()
    assert target.read_bytes() == again.read_bytes()


@pytest.mark.parametrize("model", ["beta", "kingman"])
def test_simulate_writes_each_tree_as_json_dumps_does(model, tmp_path, capsys):
    """Across two chunks of the samplers (2,674 trees each at n = 25), the
    file holds json.dumps of each tree's {n, tri} object and a newline, in
    the order of one draw of all the trees from the seed's stream."""
    from rankedcoal.betasplit import BetaConfig, sample_beta_fmatrices
    from rankedcoal.fmatrix import paths_to_fmatrices

    n, count, seed = 25, 2700, 9
    target = tmp_path / "corpus.jsonl"
    assert main(["simulate", "--model", model, "--beta=-0.5", "--n", str(n), "--count",
                 str(count), "--seed", str(seed), "--out", str(target)]) == 0
    rng = np.random.default_rng(seed)
    if model == "beta":
        mats = sample_beta_fmatrices(BetaConfig(beta=-0.5, n=n, seed=seed), count, rng=rng)
    else:
        mats = paths_to_fmatrices(n, sample_paths(n, count, seed=rng))
    want = "".join(json.dumps({"n": f.n, "tri": f.tri()}) + "\n" for f in mats)
    assert target.read_bytes() == want.encode("ascii")


def test_simulate_kingman_runs_past_the_count_cap_of_the_state_space(tmp_path, capsys):
    """The Kingman sampler walks packed keys, so it builds no state space,
    and every tree it writes at n = 50 passes the corpus reader's checks."""
    corpus = tmp_path / "n50.jsonl"
    assert main(["simulate", "--model", "kingman", "--n", "50", "--count", "100",
                 "--seed", "1", "--out", str(corpus)]) == 0
    mats = list(iter_jsonl(str(corpus)))
    assert len(mats) == 100 and all(f.n == 50 for f in mats)


@pytest.mark.parametrize("argv", [["sample"], ["simulate", "--model", "kingman"]])
def test_path_sampling_refuses_n_past_the_key_cap_before_any_draw(argv, capsys, monkeypatch):
    from rankedcoal import kingman

    monkeypatch.setattr(kingman, "_walk_paths", lambda *args: pytest.fail("a path was drawn"))
    assert main(argv + ["--n", "59", "--count", "3", "--seed", "1"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("capacity: n = 59 exceeds the cap 58: packed keys of X_59 "
                            "do not fit an int64\n")


def test_simulate_kingman_and_balance(tmp_path, capsys):
    corpus = tmp_path / "king.jsonl"
    assert main(["simulate", "--model", "kingman", "--n", "5", "--count", "6",
                 "--seed", "2", "--out", str(corpus)]) == 0
    assert main(["balance", "--in", str(corpus)]) == 0
    rows = _rows(capsys.readouterr().out)
    assert rows[0] == ["E", "S", "sackin", "colless"]
    mats = list(iter_jsonl(str(corpus)))
    assert len(rows) == 1 + len(mats)
    for fmat, row in zip(mats, rows[1:]):
        assert [int(v) for v in row] == [
            balance_E(fmat), balance_S(fmat), sackin(fmat), colless(fmat)]


def test_balance_of_an_empty_corpus_is_its_header(tmp_path, capsys):
    corpus = tmp_path / "empty.jsonl"
    corpus.write_text("")
    assert main(["balance", "--in", str(corpus)]) == 0
    assert capsys.readouterr().out == "E,S,sackin,colless\n"


def test_balance_of_a_mixed_n_corpus_prints_each_tree_in_file_order(tmp_path, capsys):
    """Runs of trees at n = 5, 7 and 5 give one row per tree, in file order,
    with the indices of the tree each F-matrix encodes."""
    import tree_oracle

    corpus = tmp_path / "mixed.jsonl"
    with open(corpus, "w") as fh:
        for model, n, count, seed in (("kingman", 5, 3, 1), ("beta", 7, 4, 2),
                                      ("kingman", 5, 2, 3)):
            part = tmp_path / f"part{seed}.jsonl"
            assert main(["simulate", "--model", model, "--n", str(n), "--count", str(count),
                         "--seed", str(seed), "--out", str(part)]) == 0
            fh.write(part.read_text())
    capsys.readouterr()
    assert main(["balance", "--in", str(corpus)]) == 0
    rows = _rows(capsys.readouterr().out)
    mats = list(iter_jsonl(corpus))
    assert [f.n for f in mats] == [5] * 3 + [7] * 4 + [5] * 2
    trees = [tree_oracle.build_tree(f) for f in mats]
    assert rows == [["E", "S", "sackin", "colless"]] + [
        [str(v) for v in (balance_E(f), balance_S(f), tree_oracle.sackin(t),
                          tree_oracle.colless(t))] for f, t in zip(mats, trees)]


def test_balance_checks_each_matrix_only_as_it_reads_the_corpus(tmp_path, capsys, monkeypatch):
    from rankedcoal import fmatrix

    corpus = tmp_path / "beta.jsonl"
    assert main(["simulate", "--model", "beta", "--n", "8", "--count", "9",
                 "--seed", "4", "--out", str(corpus)]) == 0
    expected = main(["balance", "--in", str(corpus)]), capsys.readouterr().out

    def rechecked(fmat):
        raise AssertionError("a matrix was checked again")

    monkeypatch.setattr(fmatrix.FMatrix, "validate_static", rechecked)
    assert (main(["balance", "--in", str(corpus)]), capsys.readouterr().out) == expected


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


def test_frechet_sample_streams_its_corpus(tmp_path, capsys, monkeypatch):
    """frechet --sample sums its corpus as it reads it, into the mean of the
    per-tree loop, and holds no more than a few of its matrices at a time."""
    import weakref

    import sums_oracle

    from rankedcoal import fmatrix
    from rankedcoal.frechet import MeanMatrix, vitreebi

    corpus = tmp_path / "kingman.jsonl"
    assert main(["simulate", "--model", "kingman", "--n", "7", "--count", "150",
                 "--seed", "8", "--out", str(corpus)]) == 0
    capsys.readouterr()
    mats = list(fmatrix.iter_jsonl(str(corpus)))
    mean = MeanMatrix(n=7, M=sums_oracle.mean_entries(mats))
    min_cost, paths = vitreebi(enumerate_states(7), mean)
    expected = [format_number(min_cost)] + [",".join(map(str, p)) for p in paths]

    alive, most = weakref.WeakSet(), [0]

    def counted(path):
        for fmat in iter_jsonl(path):
            alive.add(fmat)
            most[0] = max(most[0], len(alive))
            yield fmat

    iter_jsonl = fmatrix.iter_jsonl
    monkeypatch.setattr(fmatrix, "iter_jsonl", counted)
    assert main(["frechet", "--n", "7", "--sample", str(corpus)]) == 0
    assert capsys.readouterr().out.splitlines() == expected
    assert 1 <= most[0] <= 3


def test_frechet_sample_refuses_a_first_tree_of_another_n_before_reading_on(tmp_path, capsys):
    """The first tree's n is checked before the rest of the corpus is read,
    so a malformed later line is not reached."""
    corpus = tmp_path / "corpus.jsonl"
    assert main(["simulate", "--model", "kingman", "--n", "6", "--count", "20",
                 "--seed", "4", "--out", str(corpus)]) == 0
    lines = corpus.read_text().splitlines()
    lines[16] = lines[16][:len(lines[16]) // 2]
    corpus.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["frechet", "--n", "7", "--sample", str(corpus)]) == 2
    assert capsys.readouterr().err == "error: corpus has n = 6, expected 7\n"
    assert main(["frechet", "--n", "6", "--sample", str(corpus)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {corpus}:17: ")


@pytest.mark.parametrize("argv", [["test", "--in"], ["frechet", "--n", "5", "--sample"]])
def test_a_tree_of_another_n_is_refused_naming_the_corpus(argv, tmp_path, capsys):
    corpus = tmp_path / "corpus.jsonl"
    for n, count in ((5, 6), (6, 1), (5, 1)):
        assert main(["simulate", "--model", "kingman", "--n", str(n), "--count", str(count),
                     "--seed", "4", "--out", str(tmp_path / "part.jsonl")]) == 0
        with open(corpus, "a") as fh:
            fh.write((tmp_path / "part.jsonl").read_text())
    capsys.readouterr()
    assert main(argv + [str(corpus)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: {corpus}: tree 7 has n = 6, "
                            "but the first tree has n = 5\n")


@pytest.mark.parametrize("value", ["2.9", '"2"', "[2]", str(10 ** 30), "true"])
@pytest.mark.parametrize("command", ["test", "balance", "frechet"])
def test_corpus_entries_must_be_int64_integers(tmp_path, capsys, command, value):
    corpus = tmp_path / "corpus.jsonl"
    assert main(["simulate", "--model", "kingman", "--n", "6", "--count", "3",
                 "--seed", "4", "--out", str(corpus)]) == 0
    lines = corpus.read_text().splitlines()
    lines[1] = lines[1].replace('"tri": [[2]', f'"tri": [[{value}]', 1)
    corpus.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    argv = {"test": ["test", "--in", str(corpus)], "balance": ["balance", "--in", str(corpus)],
            "frechet": ["frechet", "--n", "6", "--sample", str(corpus)]}[command]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: {corpus}:2: row 1, entry 1: {json.loads(value)!r} "
                            "is not an integer within int64\n")


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


@pytest.mark.parametrize("targets, labels", [
    ("S", ["S", "S"]),
    ("E", ["E", "E"]),
    ("S,E", ["S", "S", "E", "E", "SE"]),
    ("E,S", ["S", "S", "E", "E", "SE"]),
])
def test_moments_print_only_the_targets_asked_for(targets, labels, capsys):
    """S and E each print their own mean and variance rows, and the SE
    covariance comes only with both; the values are those of ``S,E``."""
    assert main(["moments", "--n", "5"]) == 0
    every = {tuple(row[:2]): row for row in _rows(capsys.readouterr().out)[1:]}
    assert main(["moments", "--n", "5", "--targets", targets]) == 0
    rows = _rows(capsys.readouterr().out)
    assert rows[0] == ["target", "statistic", "value"]
    assert [row[0] for row in rows[1:]] == labels
    assert all(row == every[tuple(row[:2])] for row in rows[1:])


def _dense_f_rows(n):
    """The F rows of ``moments`` from the dense coalescent DPH: one reward
    solve per non-fixed entry and one cross moment per pair."""
    space = enumerate_states(n)
    dph = coalescent_dph(space, mode=default_mode(n))
    rewards = build_rewards(space)
    labels = rewards.labels[2:]
    cols = [rewards.R[:, 2 + a] for a in range(len(labels))]
    rows = [[label, "mean", format_number(reward_moments(dph, col)[0])]
            for label, col in zip(labels, cols)]
    for a, la in enumerate(labels):
        for b in range(a, len(labels)):
            cov = mdph_cross_moment(dph, cols[a], cols[b])[1]
            rows.append([f"{la}:{labels[b]}", "cov", format_number(cov)])
    return [["target", "statistic", "value"]] + rows


def test_moments_engines_agree(capsys):
    """The CLI's feed-forward F rows equal the dense DPH's, value for value."""
    def f_rows(n):
        assert main(["moments", "--n", str(n), "--targets", "F"]) == 0
        return _rows(capsys.readouterr().out)

    assert f_rows(9) == _dense_f_rows(9)
    feed = f_rows(5)
    assert feed == _dense_f_rows(5)
    values = {(r[0], r[1]): r[2] for r in feed[1:]}
    assert values[("F(4,2)", "mean")] == "3/2"
    assert values[("F(3,1):F(4,2)", "cov")] == "0"
    assert values[("F(4,1):F(4,2)", "cov")] == "1/12"


def _sweep_rows(n, targets="S,E,F"):
    """The rows of ``moments`` at n from the rational tier sweep."""
    from rankedcoal.feedforward import nonfixed_moments, se_moments

    space = enumerate_states(n)
    summary = nonfixed_moments(space, mode="rational")
    mean, cov = se_moments(space, summary=summary)
    rows = [["target", "statistic", "value"]]
    for k, name in enumerate("SE"):
        if name in targets:
            rows += [[name, "mean", format_number(mean[k])],
                     [name, "var", format_number(cov[k, k])]]
    if "S" in targets and "E" in targets:
        rows.append(["SE", "cov", format_number(cov[0, 1])])
    if "F" in targets:
        pos = summary.positions
        rows += [[f"F({i},{j})", "mean", format_number(m)] for (i, j), m in zip(pos, summary.mean)]
        rows += [[f"F({ia},{ja}):F({ib},{jb})", "cov", format_number(summary.cov[a, b])]
                 for a, (ia, ja) in enumerate(pos) for b, (ib, jb) in enumerate(pos[a:], start=a)]
    return rows


def _moment_rows(capsys, n, *args):
    assert main(["moments", "--targets", "S,E,F", "--n", str(n), *args]) == 0
    return _rows(capsys.readouterr().out)


@pytest.mark.parametrize("n", range(4, 15))
def test_rational_moments_equal_the_sweep(n, capsys):
    """Every rational row is the Fraction of the tier sweep's
    ``nonfixed_moments`` and ``se_moments``, also past n = 12."""
    assert _moment_rows(capsys, n, "--mode", "rational") == _sweep_rows(n)


@pytest.mark.parametrize("n", range(4, 26))
def test_float_moments_are_the_rounded_rational_ones(n, capsys):
    """Every float row is float() of its rational row: each value is
    correctly rounded, and an exact zero prints as 0.0."""
    exact = _moment_rows(capsys, n, "--mode", "rational")
    rounded = _moment_rows(capsys, n, "--mode", "float")
    assert [row[:2] for row in rounded] == [row[:2] for row in exact]
    assert [float(row[2]) for row in rounded[1:]] == [float(Fraction(row[2])) for row in exact[1:]]
    assert [repr(float(row[2])) for row in rounded[1:]] == [row[2] for row in rounded[1:]]


def test_float_moments_do_not_depend_on_the_blas_thread_count():
    import subprocess
    import sys

    import rankedcoal

    src = os.path.dirname(os.path.dirname(rankedcoal.__file__))
    argv = ["moments", "--targets", "S,E,F", "--mode", "float", "--n", "25"]
    outs = [
        subprocess.run([sys.executable, "-m", "rankedcoal.cli", *argv],
                       capture_output=True, text=True,
                       env={**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": threads})
        for threads in ("1", "2")
    ]
    assert [res.returncode for res in outs] == [0, 0]
    assert outs[0].stdout == outs[1].stdout


def test_moments_refuse_past_the_byte_budget_before_any_output(tmp_path, capsys, monkeypatch):
    """n = 82 is the first n over the budget of the q x q covariance, for
    every target list; the refusal allocates and writes nothing."""
    from rankedcoal import fmatrix

    def allocate(n):
        raise MemoryError("allocated")

    monkeypatch.setattr(fmatrix, "nonfixed_positions", allocate)
    # at n = 81 the terms go on to allocate
    with pytest.raises(MemoryError):
        fmatrix.kingman_moment_terms(81)
    for targets in ("S", "F", "S,E,F"):
        assert main(["moments", "--targets", targets, "--n", "82"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("capacity: the Kingman moments at n = 82 ")
    out = tmp_path / "moments.csv"
    assert main(["moments", "--n", "82", "--out", str(out)]) == 3
    assert capsys.readouterr().out == ""
    assert os.listdir(tmp_path) == []


def test_moments_run_past_the_state_space_cap(capsys):
    """No count caps ``moments``: n = 31, above the state space's cap, runs."""
    rows = _moment_rows(capsys, 31)
    q = 29 * 28 // 2
    assert len(rows) == 1 + 5 + q + q * (q + 1) // 2
    s_mean = sum(Fraction(j * (j + 1), i) for i in range(3, 31) for j in range(1, i - 1))
    assert rows[1] == ["S", "mean", repr(float(s_mean))]


def test_moments_dph_refusal_leaves_no_output(tmp_path, capsys):
    """The DPH is built before the CSV is written, so its refusal leaves
    neither stdout nor a file."""
    out, dph = tmp_path / "moments.csv", tmp_path / "dph.json"
    assert main(["moments", "--n", "19", "--emit-dph", str(dph)]) == 3
    assert main(["moments", "--n", "19", "--out", str(out), "--emit-dph", str(dph)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("capacity: dense DPH of order 6764 ") == 2
    assert os.listdir(tmp_path) == []


def test_moments_rational_refusal(capsys):
    """Rational F moments past n = 12 run, and equal the sweep; a target
    list must name S, E or F only, and at least one of them."""
    assert main(["moments", "--n", "13", "--targets", "F", "--mode", "rational"]) == 0
    assert _rows(capsys.readouterr().out) == _sweep_rows(13, "F")
    assert main(["moments", "--n", "5", "--targets", "S,Q"]) == 2
    capsys.readouterr()
    # every target list names at least one target
    assert main(["moments", "--n", "5", "--targets", " , "]) == 2
    assert capsys.readouterr().err == (
        "error: targets must be a comma list from S, E, F, got ' , '\n")
    # there is one F-moment engine, so --engine is no option: argparse refuses it
    with pytest.raises(SystemExit) as exc:
        main(["moments", "--n", "5", "--targets", "F", "--engine", "dense"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --engine" in capsys.readouterr().err


def test_moments_emit_dph(tmp_path, capsys):
    target = tmp_path / "dph.json"
    assert main(["moments", "--n", "4", "--emit-dph", str(target)]) == 0
    capsys.readouterr()
    payload = json.loads(target.read_text())
    assert payload["pi"] == ["1", "0", "0", "0"]
    assert payload["T"][1][2] == "2/3"
    assert payload["exit"] == ["0", "0", "1", "1"]


def test_moments_build_each_tier_once(tmp_path, capsys, monkeypatch):
    """The moments come from closed forms and build no tier; with
    --emit-dph the DPH builds every tier's rows once."""
    from rankedcoal import kingman

    built = []

    def counted(n, t, keys):
        built.append(t)
        return tier_rows(n, t, keys)

    tier_rows = kingman._tier_rows
    monkeypatch.setattr(kingman, "_tier_rows", counted)
    n = 6
    assert main(["moments", "--targets", "S,E,F", "--n", str(n)]) == 0
    assert built == []
    assert main(["moments", "--targets", "S,E,F", "--n", str(n),
                 "--emit-dph", str(tmp_path / "dph.json")]) == 0
    capsys.readouterr()
    assert sorted(built) == list(range(n - 2))


def test_bcp_sizes(capsys):
    assert main(["bcp", "--sizes", "--n-max", "10"]) == 0
    rows = _rows(capsys.readouterr().out)
    assert rows[0] == ["n", "partitions", "fib"]
    assert rows[-1] == ["10", "42", "89"]
    assert len(rows) == 9


def test_bcp_sizes_reads_one_table_up_to_the_cap(capsys, monkeypatch):
    import rankedcoal.bcp as bcp

    assert main(["bcp", "--sizes", "--n-max", str(bcp.SIZES_MAX_N)]) == 0
    rows = _rows(capsys.readouterr().out)
    assert rows[-1][:2] == ["1000", "24061467864032622473692149727991"]
    monkeypatch.setattr(bcp, "partition_counts", lambda n: pytest.fail("work started"))
    assert main(["bcp", "--sizes", "--n-max", str(bcp.SIZES_MAX_N + 1)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"capacity: --n-max 1001 exceeds cap {bcp.SIZES_MAX_N}\n"


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


def test_bcp_refuses_a_large_chain_before_building_it(capsys, monkeypatch):
    import rankedcoal.bcp as bcp
    from rankedcoal.phasetype import DENSE_MAX_ORDER

    monkeypatch.setattr(bcp, "bcp_states", lambda n: pytest.fail("states built"))
    assert main(["bcp", "--n", "45"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"capacity: dense DPH of order 89133 exceeds cap {DENSE_MAX_ORDER}\n"


def test_bcp_refuses_a_large_n_before_counting_partitions(capsys, monkeypatch):
    import rankedcoal.bcp as bcp

    monkeypatch.setattr(bcp, "partition_counts", lambda n: pytest.fail("partitions counted"))
    assert main(["bcp", "--n", "1000000"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"capacity: n = 1000000 exceeds cap {bcp.SIZES_MAX_N}\n"


def test_statespace_refuses_by_bytes_before_building_a_tier(capsys, monkeypatch):
    import rankedcoal.statespace as statespace

    monkeypatch.setattr(statespace, "_tier_keys", lambda n, t: pytest.fail("tier built"))
    assert main(["statespace", "--n", "40", "--max-n", "40"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("capacity: X_40 has 165580140 states and needs about 7737 MiB, "
                            f"over the budget of {statespace.STATES_MAX_BYTES >> 20} MiB\n")


def test_frechet_refuses_n_past_the_key_cap_before_any_work(capsys, monkeypatch):
    import rankedcoal.frechet as frechet

    monkeypatch.setattr(frechet, "_forward", lambda *args: pytest.fail("the pass ran"))
    monkeypatch.setattr(frechet, "mean_matrix_exact", lambda n: pytest.fail("a mean was built"))
    assert main(["frechet", "--n", "59"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("capacity: n = 59 exceeds the cap 58: packed keys of X_59 "
                            "do not fit an int64\n")


def test_frechet_n38_runs_under_the_byte_budget(tmp_path, capsys):
    """Bounded by the beam path, n = 38 runs inside the byte budget, and its
    minimum is the exact cost of every F-matrix it writes."""
    from rankedcoal.frechet import mean_matrix_exact

    target = tmp_path / "frechet.json"
    assert main(["frechet", "--n", "38", "--out", str(target)]) == 0
    minimum = capsys.readouterr().out.splitlines()[0]
    payload = json.loads(target.read_text())
    assert payload["min_cost"] == minimum
    assert len(payload["fmatrices"]) == len(payload["paths"]) > 0
    mean = mean_matrix_exact(38).M
    for fmat in payload["fmatrices"]:
        F = np.zeros(mean.shape, dtype=object)
        for i, row in enumerate(fmat["tri"]):
            F[i, :i + 1] = row
        assert format_number(sum(((F - mean) ** 2).ravel(), Fraction(0))) == minimum


def test_frechet_refuses_a_tier_over_the_byte_budget(capsys, monkeypatch):
    import rankedcoal.frechet as frechet

    monkeypatch.setattr(frechet, "PASS_MAX_BYTES", 1 << 20)
    assert main(["frechet", "--n", "30"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("capacity: tier ")
    assert captured.err.endswith("MiB, over the budget of 1 MiB\n")


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
    capsys.readouterr()
    # there is one null, so --null is no option: argparse refuses it
    with pytest.raises(SystemExit) as exc:
        main(["test", "--in", str(corpus), "--null", "kingman"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --null" in capsys.readouterr().err
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


def test_ge_box_refusals_name_what_the_caller_can_change(tmp_path, capsys):
    """``test`` names its --boxes flag, before the corpus is opened; a box
    scheme that degenerates names m, on ``test`` and on ``power``, which
    has no box flag."""
    missing = str(tmp_path / "missing.jsonl")
    for boxes in ("1", "0"):
        assert main(["test", "--in", missing, "--boxes", boxes]) == 2
        assert capsys.readouterr().err == f"error: GE needs --boxes of at least 2, got {boxes}\n"
    corpus = tmp_path / "six.jsonl"
    assert main(["simulate", "--model", "beta", "--beta", "0", "--n", "6",
                 "--count", "6", "--seed", "1", "--out", str(corpus)]) == 0
    assert main(["test", "--in", str(corpus), "--tests", "WF", "--boxes", "1"]) == 0
    capsys.readouterr()
    for argv, m in ((["test", "--in", str(corpus)], 6),
                    (["power", "--n", "5", "--m", "1", "--reps", "1", "--beta-grid", "0",
                      "--seed", "1"], 1)):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: boxing degenerated to 1 box(es) at m = {m}; increase m\n"


def test_wse_is_refused_at_n4_and_the_other_tests_run(tmp_path, capsys):
    """At n = 4, E = S + 6, so WSE has a singular null covariance: both
    commands refuse it by name, and GE, WF and HT still run."""
    corpus = tmp_path / "n4.jsonl"
    assert main(["simulate", "--model", "kingman", "--n", "4", "--count", "60",
                 "--seed", "2", "--out", str(corpus)]) == 0
    for argv in (["test", "--in", str(corpus)],
                 ["power", "--n", "4", "--m", "60", "--reps", "4", "--beta-grid=0", "--seed", "2"]):
        assert main(argv + ["--tests", "GE,WSE"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: WSE is undefined at n = 4") and "singular" in captured.err
        for names in ("GE", "GE,WF,HT"):
            assert main(argv + ["--tests", names]) == 0
        capsys.readouterr()
    assert main(["test", "--in", str(corpus), "--tests", "GE,WF,HT"]) == 0
    tests = json.loads(capsys.readouterr().out)["tests"]
    assert list(tests) == ["GE", "WF", "HT"]
    assert all(0.0 <= rep["p_value"] <= 1.0 for rep in tests.values())


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
    # the last --beta-grid wins; the whole grid is checked before the null is built
    (["--reps", "2", "--beta-grid=nan:1:1"], "grid start, stop and step must be finite"),
    (["--reps", "2", "--beta-grid=0:inf:1"], "grid start, stop and step must be finite"),
    (["--reps", "2", "--beta-grid=0:1:-inf"], "grid start, stop and step must be finite"),
    (["--reps", "2", "--beta-grid=0,x"], "grid values must be numbers"),
    (["--reps", "2", "--beta-grid=0:1:y"], "grid values must be numbers"),
    (["--reps", "2", "--beta-grid=1:0:1"], "empty beta grid"),
    (["--reps", "2", "--beta-grid="], "empty beta grid"),
    (["--reps", "2", "--beta-grid=,,"], "empty beta grid"),
    (["--reps", "2", "--beta-grid=nan"], "beta must be finite and exceed -2, got nan"),
    (["--reps", "2", "--beta-grid=0,inf"], "beta must be finite and exceed -2, got inf"),
    (["--reps", "2", "--beta-grid=-1,0,-3"], "beta must be finite and exceed -2, got -3.0"),
    (["--reps", "2", "--beta-grid=-2.5:0:1"], "beta must be finite and exceed -2, got -2.5"),
    (["--reps", "2", "--n", "4"], "WSE is undefined at n = 4"),
    (["--reps", "2", "--beta-grid=inf"], "beta must be finite and exceed -2, got inf"),
    (["--reps", "2", "--beta-grid=-inf"], "beta must be finite and exceed -2, got -inf"),
    (["--reps", "2", "--beta-grid=0,1e308"], "beta = 1e+308 is too large: its split weights overflow"),
    (["--reps", "2", "--beta-grid=0,1e12"],
     "beta = 1000000000000.0 is too large at n = 6: its split weights cannot be computed "
     "to a relative 1e-06"),
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


@pytest.mark.parametrize("grid", ["0", "0:9.999:0.001"])
def test_power_refuses_a_large_n_before_computing_split_weights(grid, capsys, monkeypatch):
    from rankedcoal import betasplit, neutrality

    def must_not_run(*args, **kwargs):
        raise AssertionError("work began before the capacity check")

    monkeypatch.setattr(betasplit, "split_weights", must_not_run)
    monkeypatch.setattr(neutrality, "kingman_null", must_not_run)
    assert main(["power", "--n", str(10 ** 8), "--m", "1", "--reps", "1",
                 f"--beta-grid={grid}", "--seed", "1"]) == 3
    captured = capsys.readouterr()
    assert captured.err.startswith("capacity: a sample of m = 1 trees at n = 100000000 ")
    assert captured.out == ""


@pytest.mark.parametrize("beta,message", [
    ("inf", "beta must be finite and exceed -2, got inf"),
    ("-inf", "beta must be finite and exceed -2, got -inf"),
    ("nan", "beta must be finite and exceed -2, got nan"),
    ("1e308", "beta = 1e+308 is too large: its split weights overflow"),
    # each lgamma is finite here, but their sum is not
    ("2e305", "beta = 2e+305 is too large: its split weights overflow"),
    ("1e12", "beta = 1000000000000.0 is too large at n = 5: its split weights cannot be "
             "computed to a relative 1e-06"),
    # within 2.2e-10 (n - 1) of -2, beta + 1 + k - i cancels
    ("-1.9999999995", "beta = -1.9999999995 is too close to -2 at n = 5: its split weights "
                      "cannot be computed to a relative 1e-06"),
])
def test_simulate_refuses_a_beta_it_cannot_sample(beta, message, tmp_path, capsys, monkeypatch):
    from rankedcoal import betasplit

    def no_sampling(*args, **kwargs):
        raise AssertionError("sampling began before beta was checked")

    monkeypatch.setattr(betasplit, "_sample_blocks", no_sampling)
    target = tmp_path / "out.jsonl"
    assert main(["simulate", "--model", "beta", f"--beta={beta}", "--n", "5", "--count", "3",
                 "--seed", "1", "--out", str(target)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n" and captured.out == ""
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


@pytest.mark.parametrize("grid", ["0:1e12:1", "0:1e308:1e-300", "0:{last}:1"])
def test_power_refuses_a_large_range_before_building_it(grid, capsys, monkeypatch):
    from rankedcoal import cli

    def no_list(*args):
        raise AssertionError("the grid was built")

    # the range grid is built over range(count); a refusal must come first
    monkeypatch.setattr(cli, "range", no_list, raising=False)
    grid = grid.format(last=cli.GRID_MAX_POINTS)  # one point more than the cap
    assert main(["power", "--n", "6", "--m", "40", "--reps", "2", f"--beta-grid={grid}",
                 "--seed", "1"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"capacity: beta grid {grid!r} has more than "
                            f"{cli.GRID_MAX_POINTS} points\n")


def test_power_range_of_the_largest_size_is_built():
    from rankedcoal import cli

    grid = cli._parse_grid(f"0:{cli.GRID_MAX_POINTS - 1}:1")
    assert len(grid) == cli.GRID_MAX_POINTS and grid[-1] == cli.GRID_MAX_POINTS - 1


def test_bcp_sizes_refuses_n_max_below_3(capsys):
    for n_max in ("-5", "0", "2"):
        assert main(["bcp", "--sizes", "--n-max", n_max]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: --n-max must be at least 3, got {n_max}\n"
    assert main(["bcp", "--sizes", "--n-max", "3"]) == 0
    assert _rows(capsys.readouterr().out) == [["n", "partitions", "fib"], ["3", "3", "3"]]


@pytest.mark.parametrize("argv", [
    ["sample", "--n", "5"],
    ["simulate", "--model", "kingman", "--n", "5"],
    ["simulate", "--model", "beta", "--n", "5"],
])
def test_count_zero_writes_zero_bytes(argv, tmp_path, capsys):
    args = argv + ["--count", "0", "--seed", "1"]
    assert main(args) == 0
    assert capsys.readouterr().out == ""
    target = tmp_path / "out.jsonl"
    assert main(args + ["--out", str(target)]) == 0
    assert target.read_bytes() == b""
    assert main(argv + ["--count", "2", "--seed", "1", "--out", str(target)]) == 0
    assert target.read_text().count("\n") == 2 and "\n\n" not in target.read_text()


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


@pytest.mark.parametrize("argv", [
    ["test", "--in", "{missing}"],
    ["test", "--in", "{directory}"],
    ["test", "--in", "{latin1}"],
    ["balance", "--in", "{missing}"],
    ["frechet", "--n", "6", "--sample", "{missing}"],
    # refused before the means are computed and printed
    ["frechet", "--n", "5", "--out", "{missing}/x.json"],
], ids=["test-missing", "test-directory", "test-not-utf8", "balance-missing",
        "frechet-sample-missing", "frechet-out-missing-directory"])
def test_unreadable_or_unwritable_file_is_an_error(argv, tmp_path, capsys):
    latin1 = tmp_path / "latin1.jsonl"
    latin1.write_bytes(b'{"n": 4, "tri": "\xe9"}\n')
    paths = {"missing": tmp_path / "missing", "directory": tmp_path, "latin1": latin1}
    assert main([a.format(**paths) for a in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert ".tmp-" not in captured.err


def test_unwritable_output_names_its_target(tmp_path, capsys, monkeypatch):
    import tempfile

    def refuse(dir, prefix):
        raise PermissionError(13, "Permission denied", os.path.join(dir, prefix + "x"))

    monkeypatch.setattr(tempfile, "mkstemp", refuse)
    target = tmp_path / "kernel.json"
    assert main(["kernel", "--n", "4", "--emit", str(target)]) == 2
    assert capsys.readouterr().err == f"error: [Errno 13] Permission denied: '{target}'\n"


def test_rational_calls_do_not_import_scipy():
    """scipy is imported only where a call's work needs it: importing the
    CLI, enumerating states, exact and float moments and Frechet means
    load none of it, nor numpy.ma."""
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
        "             ['moments', '--targets', 'S,E,F', '--mode', 'float', '--n', '25'],\n"
        "             ['frechet', '--n', '12'], ['frechet', '--n', '25']):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert main(argv) == 0\n"
        "    print(loaded())\n"
    )
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src})
    assert res.returncode == 0, res.stderr
    assert res.stdout == "[]\n" * 6


def test_power_loads_no_scipy():
    """A power sweep whose statistics keep clear of the critical values
    decides every rejection without scipy."""
    import subprocess
    import sys

    import rankedcoal

    src = os.path.dirname(os.path.dirname(rankedcoal.__file__))
    code = (
        "import contextlib, io, sys\n"
        "from rankedcoal.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert main(['power', '--n', '8', '--m', '100', '--reps', '5',\n"
        "                 '--beta-grid=-1:1:1', '--seed', '3']) == 0\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src})
    assert res.returncode == 0, res.stderr
    assert res.stdout == "[]\n"


def test_test_loads_no_scipy_when_every_p_value_underflows(tmp_path):
    """On a strongly skewed corpus every p-value is 0.0 below LOG_ZERO, so
    ``test`` prints its report without loading scipy."""
    import subprocess
    import sys

    import rankedcoal

    corpus = tmp_path / "skewed.jsonl"
    assert main(["simulate", "--model", "beta", "--beta=-1.9", "--n", "25",
                 "--count", "600", "--seed", "8", "--out", str(corpus)]) == 0
    src = os.path.dirname(os.path.dirname(rankedcoal.__file__))
    code = (
        "import contextlib, io, json, sys\n"
        "from rankedcoal.cli import main\n"
        "out = io.StringIO()\n"
        "with contextlib.redirect_stdout(out):\n"
        f"    assert main(['test', '--in', {str(corpus)!r}]) == 0\n"
        "print(sorted({rep['p_value'] for rep in json.loads(out.getvalue())['tests'].values()}))\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src})
    assert res.returncode == 0, res.stderr
    assert res.stdout == "[0.0]\n[]\n"


def _modules_run(argv, tmp_path):
    """The rankedcoal modules whose code has run after one CLI call, in a
    process that writes no bytecode. A registered module that has not run
    still has the lazy subclass of the module type."""
    import subprocess
    import sys

    import rankedcoal

    code = (
        "import contextlib, io, sys, types\n"
        "from rankedcoal.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert main({argv!r}) == 0\n"
        "print(*(k for k, v in sys.modules.items()\n"
        "        if k.startswith('rankedcoal.') and type(v) is types.ModuleType))\n"
    )
    src = os.path.dirname(os.path.dirname(rankedcoal.__file__))
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, cwd=tmp_path,
                         env={**os.environ, "PYTHONPATH": src, "PYTHONDONTWRITEBYTECODE": "1"})
    assert res.returncode == 0, res.stderr
    return {name.removeprefix("rankedcoal.") for name in res.stdout.split()} - {"cli"}


def test_each_call_runs_only_the_modules_its_command_needs(tmp_path):
    """The package runs a submodule on first use: ``statespace`` runs two
    modules, ``moments`` without --emit-dph only ``fmatrix`` beside
    ``_common``, ``frechet`` none of the simulation, BCP or test modules,
    and ``test`` and ``power`` neither the chain, the moment sweep, the
    Frechet pass nor phasetype."""
    assert _modules_run(["statespace", "--n", "3"], tmp_path) == {"_common", "statespace"}
    for mode in ("rational", "float"):
        argv = ["moments", "--targets", "S,E,F", "--mode", mode, "--n", "12"]
        assert _modules_run(argv, tmp_path) == {"_common", "fmatrix"}
    ran = _modules_run(["frechet", "--n", "8"], tmp_path)
    assert ran & {"bcp", "betasplit", "feedforward", "neutrality", "phasetype"} == set()
    corpus = tmp_path / "corpus.jsonl"
    assert main(["simulate", "--model", "beta", "--beta", "0", "--n", "8",
                 "--count", "60", "--seed", "3", "--out", str(corpus)]) == 0
    for argv in (["test", "--in", str(corpus)],
                 ["power", "--n", "8", "--m", "20", "--reps", "2", "--beta-grid=0", "--seed", "3"]):
        ran = _modules_run(argv, tmp_path)
        assert "neutrality" in ran
        assert ran & {"statespace", "kingman", "feedforward", "frechet", "phasetype"} == set()


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
