"""The benchmark's tracer wraps package functions by name: every
(module, function) in its LAYERS must resolve in ``rankedcoal``, or a
traced benchmark run fails while the rest of the suite passes. A traced
``test`` or ``power`` call must also keep recording its neutrality spans
where the benchmark reads them, or those layers fall into untraced time."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import rankedcoal
from rankedcoal.cli import main
from rankedcoal.fmatrix import BLOCK_BYTES

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _layers():
    """LAYERS of the tracer, read from its source: no import, no bytecode written."""
    namespace = {"__name__": "perfbench_tracer"}
    exec(compile(TRACER.read_text(encoding="utf-8"), str(TRACER), "exec"), namespace)
    return namespace["LAYERS"]


def test_every_traced_layer_resolves():
    layers = _layers()
    assert layers
    missing = [
        f"rankedcoal.{module}.{name}" for module, name, *_ in layers
        if not callable(getattr(importlib.import_module(f"rankedcoal.{module}"), name, None))
    ]
    assert missing == []


TRACED_CLI = TRACER.parent / "traced_cli.py"


def _traced_spans(tmp_path, *argv):
    """(name, parent name) of each span of one traced CLI call, and the sum
    of each count over its spans."""
    out = tmp_path / "spans.json"
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1",
           "PYTHONPATH": str(Path(rankedcoal.__file__).resolve().parent.parent)}
    res = subprocess.run([sys.executable, str(TRACED_CLI), str(out), *argv],
                         capture_output=True, text=True, cwd=tmp_path, env=env)
    assert res.returncode == 0, res.stderr
    spans = json.loads(out.read_text(encoding="utf-8"))
    names = {s["id"]: s["name"] for s in spans}
    counts = {}
    for s in spans:
        for key, value in s["counts"].items():
            counts[key] = counts.get(key, 0) + value
    return [(s["name"], names.get(s["parent"])) for s in spans], counts


def _neutrality(spans):
    return [span for span in spans if span[0].startswith("neutrality.")]


def test_traced_test_call_sees_the_neutrality_layers(tmp_path):
    """A traced ``test`` call nests the GE boxes inside ``run_tests`` and
    counts the two inverse square roots of its null there."""
    corpus = tmp_path / "corpus.jsonl"
    assert main(["simulate", "--model", "beta", "--beta", "-1", "--n", "10",
                 "--count", "150", "--seed", "4", "--out", str(corpus)]) == 0
    spans, counts = _traced_spans(tmp_path, "test", "--in", str(corpus))
    assert _neutrality(spans) == [
        ("neutrality.kingman_null", None),
        ("neutrality.run_tests", None),
        ("neutrality.e_boxes", "neutrality.run_tests"),
    ]
    assert counts["neutrality.inv_sqrt_calls"] == 2
    assert counts["fmatrix.trees_read"] == 150


def test_traced_power_call_sees_the_neutrality_layers(tmp_path):
    """A traced ``power`` call builds its null and GE boxes once, outside
    any span, and inverts each null covariance once for all replicates."""
    spans, counts = _traced_spans(tmp_path, "power", "--n", "8", "--m", "100", "--reps", "3",
                                  "--beta-grid=-1:1:1", "--seed", "1")
    assert _neutrality(spans) == [
        ("neutrality.kingman_null", None),
        ("neutrality.e_boxes", None),
    ]
    assert counts["neutrality.inv_sqrt_calls"] == 2
    assert counts["betasplit.trees"] == 3 * 3 * 100


@pytest.mark.parametrize("n, count", [(6, 2500), (25, 150)])
def test_traced_test_call_counts_every_tree_of_a_corpus_of_several_blocks(tmp_path, n, count):
    """The reader checks a corpus a block at a time, yet the traced ``test``
    call still sees it yield each tree once, through ``fmatrix.ingest``."""
    corpus = tmp_path / "corpus.jsonl"
    assert main(["simulate", "--model", "beta", "--beta", "-1", "--n", str(n),
                 "--count", str(count), "--seed", "4", "--out", str(corpus)]) == 0
    assert corpus.stat().st_size > 2 * BLOCK_BYTES
    spans, counts = _traced_spans(tmp_path, "test", "--in", str(corpus))
    assert ("fmatrix.ingest", None) in spans
    assert counts["fmatrix.trees_read"] == count


@pytest.mark.parametrize("model", ["beta", "kingman"])
def test_traced_simulate_call_draws_each_chunk_through_its_sampler(tmp_path, model):
    """``simulate`` formats its trees itself, but draws each chunk through
    the sampler layer the benchmark traces: two chunks at n = 25, and every
    tree counted there for the beta model."""
    out = tmp_path / "corpus.jsonl"
    spans, counts = _traced_spans(tmp_path, "simulate", "--model", model, "--n", "25",
                                  "--count", "3000", "--seed", "2", "--out", str(out))
    layer = {"beta": "betasplit.sample_fmatrices", "kingman": "kingman.sample_paths"}[model]
    assert [span for span in spans if span[0] == layer] == [(layer, None)] * 2
    assert counts.get("betasplit.trees", 0) == (3000 if model == "beta" else 0)
    assert len(out.read_text(encoding="utf-8").splitlines()) == 3000
