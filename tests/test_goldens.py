"""CLI outputs, byte for byte, against recorded files: seeded runs recorded
before the samplers and the phase-type PMF were vectorised, the exact
Frechet minimum and mean paths at n = 25, and the exact moments of S, E and
the F-matrix at n = 12, recorded while the moment engine still multiplied
Fractions edge by edge, and their float values at n = 14, recorded while
the engine still kept every right product of every column."""

from pathlib import Path

import pytest

from rankedcoal import betasplit, bcp, feedforward, kingman, statespace
from rankedcoal.cli import main

GOLDEN_DIR = Path(__file__).parent / "goldens"

GOLDENS = {
    "power_n8_seed7.csv":
        ["power", "--n", "8", "--m", "200", "--reps", "10", "--beta-grid=-1:1:0.5", "--seed", "7"],
    "simulate_beta_n9_seed3.jsonl":
        ["simulate", "--model", "beta", "--beta", "-1", "--n", "9", "--count", "50", "--seed", "3"],
    "simulate_kingman_n9_seed3.jsonl":
        ["simulate", "--model", "kingman", "--n", "9", "--count", "50", "--seed", "3"],
    "sample_n10_seed5.jsonl": ["sample", "--n", "10", "--count", "20", "--seed", "5"],
    "bcp_n10.csv": ["bcp", "--n", "10"],
    "frechet_n25.txt": ["frechet", "--n", "25"],
    "moments_n12.csv": ["moments", "--targets", "S,E,F", "--n", "12"],
    "moments_float_n14.csv": ["moments", "--targets", "S,E,F", "--mode", "float", "--n", "14"],
}


@pytest.mark.parametrize("name", sorted(GOLDENS))
def test_cli_output_matches_golden(name, capsys):
    assert main(GOLDENS[name]) == 0
    assert capsys.readouterr().out.encode() == (GOLDEN_DIR / name).read_bytes()


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


def test_frechet_builds_no_kernel(capsys, monkeypatch):
    """ViTreebi streams the kernel in row chunks and never builds it whole."""
    def whole_kernel(*args, **kwargs):
        raise AssertionError("ViTreebi built the whole kernel")

    monkeypatch.setattr(kingman, "tier_blocks", whole_kernel)
    monkeypatch.setattr(kingman, "edge_table", whole_kernel)
    name = "frechet_n25.txt"
    assert main(GOLDENS[name]) == 0
    assert capsys.readouterr().out.encode() == (GOLDEN_DIR / name).read_bytes()


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
