"""CLI outputs, byte for byte, against recorded files: seeded runs recorded
before the samplers and the phase-type PMF were vectorised, the exact
Frechet minimum and mean paths at n = 25, and the exact moments of S, E and
the F-matrix at n = 12, recorded while the moment engine still multiplied
Fractions edge by edge."""

from pathlib import Path

import pytest

from rankedcoal import bcp, feedforward, kingman, statespace
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
}


@pytest.mark.parametrize("name", sorted(GOLDENS))
def test_cli_output_matches_golden(name, capsys):
    assert main(GOLDENS[name]) == 0
    assert capsys.readouterr().out.encode() == (GOLDEN_DIR / name).read_bytes()


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
