#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the rankedcoal command line.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every CLI call runs as its own process, one at a time, as
``python -m rankedcoal.cli`` with ``src`` on the path and OpenBLAS on one
thread. A pass is one round of the workload's calls; the run repeats
whole passes until ``--seconds`` have gone by, and at least twice, and
checks every output. With ``--trace 0`` it reports the end-to-end
metrics; with ``--trace 1`` each call instead runs through
``traced_cli.py``, which wraps the package's layers in spans, and the run
reports the per-layer metrics. The last line of standard output is one
JSON object.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import tracer
from workloads import WORKLOADS, Failed, Wrong

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_CALLS = 3
# No figure rests on a single pass, and a workload whose pass is about as
# long as --seconds does not switch between one and two passes from run to run.
MIN_PASSES = 2
SETUP_ARGV = ["statespace", "--n", "3"]

# per-layer metrics: span self times (s) and counts, per pass
SPAN_METRICS = [
    "cli.import", "statespace.enumerate", "kingman.tier_blocks", "kingman.edge_table",
    "kingman.sample_paths", "fmatrix.path_to_fmatrix", "fmatrix.ingest",
    "feedforward.nonfixed_means", "feedforward.nonfixed_moments", "frechet.state_costs",
    "frechet.vitreebi", "bcp.e_distribution", "phasetype.reward_transform", "phasetype.pmf",
    "betasplit.sample_stats", "betasplit.sample_fmatrices", "neutrality.kingman_null",
    "neutrality.e_boxes", "neutrality.run_tests",
]
COUNT_METRICS = [
    "statespace.states", "kingman.tier_blocks_calls", "kingman.nnz",
    "feedforward.nonfixed_moments_calls", "feedforward.work", "frechet.optimal_paths",
    "phasetype.pmf_steps", "betasplit.trees", "fmatrix.trees_read", "neutrality.inv_sqrt_calls",
]


@dataclass
class Result:
    returncode: int
    stdout: str
    stderr: str
    wall: float
    cpu: float
    rss_mb: float


def run_cli(argv, work, prefix=()):
    """Run one CLI call to completion; time it and read its resource usage."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, ["src", env.get("PYTHONPATH")]))
    # With OpenBLAS's default of one thread per core, each threaded dot product
    # in feedforward.nonfixed_means costs 0.01 ms or 8 ms depending on whether
    # the other core is idle, so frechet --n 25 takes 2.5 s in some runs and
    # 3.5 s in others. One thread keeps the timings comparable between runs.
    env["OPENBLAS_NUM_THREADS"] = "1"
    cmd = [sys.executable, *prefix] if prefix else [sys.executable, "-m", "rankedcoal.cli"]
    out_path, err_path = os.path.join(work, "stdout"), os.path.join(work, "stderr")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd + list(argv), cwd=ROOT, env=env, stdout=out, stderr=err,
                                stdin=subprocess.DEVNULL)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path, encoding="utf-8") as fh:
        stdout = fh.read()
    with open(err_path, encoding="utf-8") as fh:
        stderr = fh.read()
    return Result(proc.returncode, stdout, stderr, wall,
                  usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0)


def layer_metrics(passes):
    """Per-pass means of span self times and counts. ``passes`` holds
    (wall time, [spans of each call]); untraced_s is the part of each
    traced pass outside every span, so the self times and untraced_s add
    up to the pass."""
    total = {}
    for wall, calls in passes:
        total["untraced"] = total.get("untraced", 0.0) + wall
        total["traced_pass"] = total.get("traced_pass", 0.0) + wall
        for spans in calls:
            times, counts = tracer.self_times(spans)
            total["untraced"] -= sum(times.values())
            for key, value in list(times.items()) + list(counts.items()):
                total[key] = total.get(key, 0) + value
    k = len(passes)
    metrics = {f"{name}_s": {"value": total.get(name, 0.0) / k, "unit": "s"}
               for name in SPAN_METRICS + ["untraced", "traced_pass"]}
    for name in COUNT_METRICS:
        metrics[name] = {"value": total.get(name, 0) / k, "unit": "count"}
    steps = total.get("phasetype.pmf_steps", 0)
    useful = total.get("phasetype.pmf_useful_steps", 0) / steps if steps else 0.0
    metrics["phasetype.pmf_useful_ratio"] = {"value": useful, "unit": "ratio"}
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "rankedcoal" / "cli.py").is_file():
        print(f"error: no rankedcoal sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    correct = True
    attempted = failed = 0
    setup, walls, cpus, rss, traced = [], [], [], [], []
    try:
        calls = WORKLOADS[args.workload](args.seed, work)
        # start-up cost, from the cheapest call; its output is the state count 3
        for _ in range(0 if args.trace else SETUP_CALLS):
            res = run_cli(SETUP_ARGV, work)
            setup.append(res.wall)
            if res.returncode != 0 or res.stdout.strip() != "3":
                correct = False
                print(f"WRONG: statespace --n 3 gave exit {res.returncode}, output {res.stdout!r}")
        start = time.perf_counter()
        while len(walls) < MIN_PASSES or time.perf_counter() - start < args.seconds:
            wall = cpu = 0.0
            spans = []
            for c, call in enumerate(calls):
                prefix = ()
                if args.trace:
                    span_file = os.path.join(work, f"spans-{c}.json")
                    prefix = (str(HERE / "traced_cli.py"), span_file)
                res = run_cli(call.argv, work, prefix)
                attempted += 1
                wall += res.wall
                cpu += res.cpu
                rss.append(res.rss_mb)
                try:
                    call.check(res)
                    status = "ok"
                except Failed as exc:
                    failed += 1
                    status = f"FAILED: {exc}"
                except Exception as exc:  # a wrong output, or a crash in the check itself
                    correct = False
                    status = f"WRONG: {exc}" if isinstance(exc, Wrong) else traceback.format_exc()
                if args.trace:
                    with open(span_file, encoding="utf-8") as fh:
                        spans.append(json.load(fh))
                shown = " ".join(call.argv).replace(work + os.sep, "")
                print(f"pass {len(walls) + 1} {shown}: {res.wall:.3f} s, "
                      f"{res.cpu:.3f} s cpu, {res.rss_mb:.0f} MB, {status}", flush=True)
            walls.append(wall)
            cpus.append(cpu)
            traced.append((wall, spans))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if args.trace:
        metrics = layer_metrics(traced)
        trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        trace_path.write_text(json.dumps([spans for _, spans in traced]))
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "solve_s": {"value": statistics.median(walls), "unit": "s"},
            "cpu_s": {"value": statistics.median(cpus), "unit": "s"},
            "peak_rss_mb": {"value": max(rss), "unit": "MB"},
        }
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(f"{len(walls)} passes, {attempted} calls attempted, {failed} failed, correct = {correct}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
