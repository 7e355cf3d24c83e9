"""CLI outputs, byte for byte, against recorded files: seeded runs recorded
before the samplers and the phase-type PMF were vectorised, the exact
Frechet minimum and mean paths at n = 25, 30 and 32-37 (n = 32 and 33
recorded in process on ``enumerate_states(n, max_n=n)``, n = 34-37 by the
pass bounded by a greedy path), and the exact
moments of S, E and the F-matrix at n = 12, recorded while the moment
engine still multiplied Fractions edge by edge, and their float values at
n = 14, recorded from the closed form and checked to be the correctly
rounded exact values, and the balance indices of the two simulate goldens, recorded
while each tree was still built as Python nodes and walked."""

import csv
from fractions import Fraction
from pathlib import Path

import pytest

from rankedcoal import betasplit, bcp, feedforward, frechet, kingman, statespace
from rankedcoal.cli import main

GOLDEN_DIR = Path(__file__).parent / "goldens"

GOLDENS = {
    "power_n8_seed7.csv":
        ["power", "--n", "8", "--m", "200", "--reps", "10", "--beta-grid=-1:1:0.5", "--seed", "7"],
    "simulate_beta_n9_seed3.jsonl":
        ["simulate", "--model", "beta", "--beta", "-1", "--n", "9", "--count", "50", "--seed", "3"],
    "simulate_kingman_n9_seed3.jsonl":
        ["simulate", "--model", "kingman", "--n", "9", "--count", "50", "--seed", "3"],
    "balance_beta_n9_seed3.csv":
        ["balance", "--in", str(GOLDEN_DIR / "simulate_beta_n9_seed3.jsonl")],
    "balance_kingman_n9_seed3.csv":
        ["balance", "--in", str(GOLDEN_DIR / "simulate_kingman_n9_seed3.jsonl")],
    "sample_n10_seed5.jsonl": ["sample", "--n", "10", "--count", "20", "--seed", "5"],
    "bcp_n10.csv": ["bcp", "--n", "10"],
    "frechet_n25.txt": ["frechet", "--n", "25"],
    "frechet_n30.txt": ["frechet", "--n", "30"],
    "frechet_n32.txt": ["frechet", "--n", "32"],
    "frechet_n33.txt": ["frechet", "--n", "33"],
    "frechet_n34.txt": ["frechet", "--n", "34"],
    "frechet_n35.txt": ["frechet", "--n", "35"],
    "frechet_n36.txt": ["frechet", "--n", "36"],
    "frechet_n37.txt": ["frechet", "--n", "37"],
    "moments_n12.csv": ["moments", "--targets", "S,E,F", "--n", "12"],
    "moments_float_n14.csv": ["moments", "--targets", "S,E,F", "--mode", "float", "--n", "14"],
}


@pytest.mark.parametrize("name", sorted(GOLDENS))
def test_cli_output_matches_golden(name, capsys):
    assert main(GOLDENS[name]) == 0
    assert capsys.readouterr().out.encode() == (GOLDEN_DIR / name).read_bytes()


@pytest.mark.parametrize("n", [8, 12, 25])
def test_frechet_out_file_matches_golden(n, tmp_path, capsys):
    """The --out JSON of the benchmark's Frechet calls, recorded while the
    pass still ran on the enumerated state space."""
    out = tmp_path / "frechet.json"
    assert main(["frechet", "--n", str(n), "--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN_DIR / f"frechet_out_n{n}.json").read_bytes()


@pytest.mark.parametrize("name", ["sample_n10_seed5.jsonl", "simulate_beta_n9_seed3.jsonl",
                                  "simulate_kingman_n9_seed3.jsonl"])
def test_samplers_write_the_same_bytes_in_chunks(name, tmp_path, capsys, monkeypatch):
    """Drawn and written a few trees at a time from one Generator, the
    sampler outputs are the one-shot goldens."""
    chunks = []
    for module, func in ((kingman, "sample_paths"), (betasplit, "sample_beta_fmatrices")):
        def counted(first, count, *args, _func=getattr(module, func), **kwargs):
            chunks.append(count)
            return _func(first, count, *args, **kwargs)

        monkeypatch.setattr(module, func, counted)
    # two or three trees per chunk at n = 9 and 10
    monkeypatch.setattr(betasplit, "GRID_CELLS", 500)
    out = tmp_path / name
    assert main(GOLDENS[name] + ["--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN_DIR / name).read_bytes()
    assert len(chunks) > 5 and max(chunks) <= 3


@pytest.mark.parametrize("name", ["sample_n10_seed5.jsonl", "simulate_kingman_n9_seed3.jsonl"])
def test_path_sampling_builds_only_the_rows_it_visits(name, capsys, monkeypatch):
    def whole_kernel(*args, **kwargs):
        raise AssertionError("the sampler built the whole kernel")

    monkeypatch.setattr(kingman, "tier_blocks", whole_kernel)
    monkeypatch.setattr(kingman, "edge_table", whole_kernel)
    assert main(GOLDENS[name]) == 0
    assert capsys.readouterr().out.encode() == (GOLDEN_DIR / name).read_bytes()


@pytest.mark.parametrize("name", ["sample_n10_seed5.jsonl", "simulate_kingman_n9_seed3.jsonl"])
def test_path_sampling_enumerates_no_state_space(name, capsys, monkeypatch):
    """The path sampler and the path decoder unrank the states they visit
    from local indices, and build no tier of the state space."""
    def tier(*args, **kwargs):
        raise AssertionError("the sampler built a tier of states")

    monkeypatch.setattr(statespace, "enumerate_states", tier)
    monkeypatch.setattr(statespace, "_tier_keys", tier)
    assert main(GOLDENS[name]) == 0
    assert capsys.readouterr().out.encode() == (GOLDEN_DIR / name).read_bytes()


def test_frechet_enumerates_no_state_space(capsys, monkeypatch):
    """ViTreebi streams the kernel in row chunks, never builds it whole, and
    builds no tier of the state space."""
    def whole(*args, **kwargs):
        raise AssertionError("ViTreebi built the whole kernel or a tier of states")

    monkeypatch.setattr(kingman, "tier_blocks", whole)
    monkeypatch.setattr(kingman, "edge_table", whole)
    monkeypatch.setattr(statespace, "enumerate_states", whole)
    monkeypatch.setattr(statespace, "_tier_keys", whole)
    name = "frechet_n25.txt"
    assert main(GOLDENS[name]) == 0
    assert capsys.readouterr().out.encode() == (GOLDEN_DIR / name).read_bytes()


def test_frechet_golden_under_a_one_state_beam(capsys, monkeypatch):
    """A beam of one state per tier bounds the pass more loosely than the
    default, and the output stays the same."""
    monkeypatch.setattr(frechet, "BEAM", 1)
    name = "frechet_n25.txt"
    assert main(GOLDENS[name]) == 0
    assert capsys.readouterr().out.encode() == (GOLDEN_DIR / name).read_bytes()


def test_moments_build_no_chain(capsys, monkeypatch):
    """The exact moments come from closed forms alone."""
    def chain(*args, **kwargs):
        raise AssertionError("moments built a tier of states or of the kernel")

    monkeypatch.setattr(statespace, "enumerate_states", chain)
    monkeypatch.setattr(kingman, "_tier_rows", chain)
    name = "moments_n12.csv"
    assert main(GOLDENS[name]) == 0
    assert capsys.readouterr().out.encode() == (GOLDEN_DIR / name).read_bytes()


def test_float_moments_golden_is_correctly_rounded(capsys):
    """Every value of the float golden at n = 14 is float() of the exact
    value, which the rational rows at n = 14 print."""
    assert main(["moments", "--targets", "S,E,F", "--mode", "rational", "--n", "14"]) == 0
    exact = list(csv.reader(capsys.readouterr().out.splitlines()))
    with open(GOLDEN_DIR / "moments_float_n14.csv", newline="") as fh:
        rounded = list(csv.reader(fh))
    assert [row[:2] for row in rounded] == [row[:2] for row in exact]
    assert [row[2] for row in rounded[1:]] == [repr(float(Fraction(row[2]))) for row in exact[1:]]


def test_power_null_builds_no_chain(capsys, monkeypatch):
    """The power golden's Kingman null comes from closed forms alone."""
    def chain(*args, **kwargs):
        raise AssertionError("the Kingman null built the chain or the BCP")

    for module, name in ((statespace, "enumerate_states"), (kingman, "tier_blocks"),
                         (feedforward, "nonfixed_moments"), (bcp, "bcp_chain")):
        monkeypatch.setattr(module, name, chain)
    name = "power_n8_seed7.csv"
    assert main(GOLDENS[name]) == 0
    assert capsys.readouterr().out.encode() == (GOLDEN_DIR / name).read_bytes()

