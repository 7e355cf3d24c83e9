"""Command-line entry point.

Exit codes: 0 success, 2 validation error (including flag misuse),
3 capacity overflow. Every file is written atomically: a temp file in
the target directory, then os.replace.
"""

import argparse
import csv
import io
import json
import os
import sys
import tempfile

import numpy as np

from ._common import RATIONAL_MAX_N, default_mode
from ._common import CapacityError, ValidationError, fib, format_number


def _atomic_write(path, text):
    target = os.path.abspath(path)
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(target), prefix=".tmp-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, target)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _emit(path, text):
    if path:
        _atomic_write(path, text)
    else:
        sys.stdout.write(text)


def _csv_text(rows, header=None):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    if header:
        writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _refuse_negative(args, *flags):
    """Refuse a negative value of each named integer flag."""
    for flag in flags:
        value = getattr(args, flag)
        if value < 0:
            raise ValidationError(f"--{flag} must be nonnegative, got {value}")


def _cmd_statespace(args):
    from .statespace import enumerate_states

    space = enumerate_states(args.n, max_n=args.max_n)
    lines = [str(space.num_states + 1)]
    if args.sizes:
        counts = space.last_entry_counts()
        for j in range(space.n + 1):
            lines.append(f"{j},{int(counts[j])}")
    print("\n".join(lines))
    if args.emit:
        payload = [
            {"index": i + 1, "tier": int(space.tier_of[i]), "x": [int(v) for v in space.states[i]]}
            for i in range(space.num_states)
        ]
        _atomic_write(args.emit, json.dumps(payload, indent=1) + "\n")
    return 0


def _cmd_kernel(args):
    from .kingman import tier_blocks
    from .statespace import enumerate_states

    space = enumerate_states(args.n)
    mode = args.mode or default_mode(args.n)
    payload = {"n": args.n, "blocks": []}
    for blk in tier_blocks(space):
        rows = space.tier_offsets[blk.from_tier] + blk.rows() + 1
        cols = space.tier_offsets[blk.from_tier + 1] + blk.indices + 1
        entries = [[r, c, format_number(p)]
                   for r, c, p in zip(rows.tolist(), cols.tolist(), blk.probs(mode).tolist())]
        payload["blocks"].append({
            "from_tier": blk.from_tier,
            "n_rows": blk.n_rows,
            "n_cols": blk.n_cols,
            "denominator": blk.denom,
            "entries": entries,
        })
    _emit(args.emit, json.dumps(payload, indent=1) + "\n")
    return 0


def _cmd_sample(args):
    from .kingman import sample_paths
    from .statespace import enumerate_states

    _refuse_negative(args, "count", "seed")
    space = enumerate_states(args.n)
    paths = sample_paths(space, args.count, seed=args.seed)
    lines = [json.dumps({"path": [int(v) for v in p]}) for p in paths]
    _emit(args.out, "\n".join(lines) + "\n")
    return 0


def _cmd_simulate(args):
    _refuse_negative(args, "count", "seed")
    if args.model == "beta":
        from .betasplit import BetaConfig, sample_beta_fmatrices

        config = BetaConfig(beta=args.beta, n=args.n, seed=args.seed)
        mats = sample_beta_fmatrices(config, args.count)
    elif args.model == "kingman":
        from .fmatrix import paths_to_fmatrices
        from .kingman import sample_paths
        from .statespace import enumerate_states

        space = enumerate_states(args.n)
        mats = paths_to_fmatrices(space, sample_paths(space, args.count, seed=args.seed))
    else:
        raise ValidationError(f"unknown model {args.model!r}")
    lines = [json.dumps({"n": f.n, "tri": f.tri()}) for f in mats]
    _emit(args.out, "\n".join(lines) + "\n")
    return 0


def _cmd_balance(args):
    from .fmatrix import balance_E, balance_S, colless, iter_jsonl, sackin

    rows = []
    for fmat in iter_jsonl(args.infile):
        rows.append([balance_E(fmat), balance_S(fmat), sackin(fmat), colless(fmat)])
    text = _csv_text(rows, header=["E", "S", "sackin", "colless"])
    _emit(args.out, text)
    return 0


def _cmd_frechet(args):
    from .fmatrix import path_to_fmatrix, read_jsonl
    from .frechet import check_path_cap, mean_matrix_exact, mean_matrix_sample, vitreebi
    from .statespace import enumerate_states

    check_path_cap(args.path_cap)
    if args.sample:
        mats = read_jsonl(args.sample)
        if not mats:
            raise ValidationError(f"{args.sample}: empty corpus")
        if mats[0].n != args.n:
            raise ValidationError(f"corpus has n = {mats[0].n}, expected {args.n}")
    space = enumerate_states(args.n)
    mean = mean_matrix_sample(mats) if args.sample else mean_matrix_exact(space)
    min_cost, paths = vitreebi(space, mean, path_cap=args.path_cap)
    cost_text = format_number(min_cost)
    print(cost_text)
    for p in paths:
        print(",".join(str(v) for v in p))
    if args.out:
        payload = {
            "n": args.n,
            "min_cost": cost_text,
            "paths": [list(p) for p in paths],
            "fmatrices": [
                {"n": args.n, "tri": path_to_fmatrix(space, p).tri()} for p in paths
            ],
        }
        _atomic_write(args.out, json.dumps(payload, indent=1) + "\n")
    return 0


def _moment_rows_se(space, summary):
    from .feedforward import se_moments

    mean, cov = se_moments(space, summary=summary)
    return [
        ["S", "mean", format_number(mean[0])],
        ["S", "var", format_number(cov[0, 0])],
        ["E", "mean", format_number(mean[1])],
        ["E", "var", format_number(cov[1, 1])],
        ["SE", "cov", format_number(cov[0, 1])],
    ]


def _moment_rows_f(space, mode, engine, summary):
    rows = []
    if engine == "dense":
        from .phasetype import build_rewards, coalescent_dph, mdph_cross_moment, reward_moments

        dph = coalescent_dph(space, mode=mode)
        rewards = build_rewards(space)
        labels = rewards.labels[2:]
        cols = [rewards.R[:, 2 + a] for a in range(len(labels))]
        for label, col in zip(labels, cols):
            mean, _ = reward_moments(dph, col)
            rows.append([label, "mean", format_number(mean)])
        for a, la in enumerate(labels):
            for b in range(a, len(labels)):
                _, cov = mdph_cross_moment(dph, cols[a], cols[b])
                rows.append([f"{la}:{labels[b]}", "cov", format_number(cov)])
        return rows
    for a, (i, j) in enumerate(summary.positions):
        rows.append([f"F({i},{j})", "mean", format_number(summary.mean[a])])
    for a, pa in enumerate(summary.positions):
        for b in range(a, len(summary.positions)):
            pb = summary.positions[b]
            rows.append([
                f"F{pa}:F{pb}".replace(" ", ""),
                "cov",
                format_number(summary.cov[a, b]),
            ])
    return rows


def _cmd_moments(args):
    from .feedforward import nonfixed_moments
    from .statespace import enumerate_states

    targets = [t.strip().upper() for t in args.targets.split(",") if t.strip()]
    bad = [t for t in targets if t not in ("S", "E", "F")]
    if bad:
        raise ValidationError(f"unknown targets {bad}; expected S, E, F")
    n = args.n
    mode = args.mode or default_mode(n)
    if mode == "rational" and n > RATIONAL_MAX_N and "F" in targets:
        raise ValidationError(
            f"rational mode refuses n = {n} > {RATIONAL_MAX_N} for full-covariance jobs; "
            "use --mode float"
        )
    space = enumerate_states(n)
    se = "S" in targets or "E" in targets
    feedforward_f = "F" in targets and args.engine == "feedforward"
    # one non-fixed summary serves both the (S, E) rows and the F rows
    summary = nonfixed_moments(space, mode=mode) if se or feedforward_f else None
    rows = []
    if se:
        rows.extend(_moment_rows_se(space, summary))
    if "F" in targets:
        rows.extend(_moment_rows_f(space, mode, args.engine, summary))
    text = _csv_text(rows, header=["target", "statistic", "value"])
    _emit(args.out, text)
    if args.emit_dph:
        from .phasetype import coalescent_dph

        dph = coalescent_dph(space, mode=mode)
        payload = {
            "pi": [format_number(v) for v in dph.pi],
            "T": [[format_number(v) for v in row] for row in dph.T],
            "exit": [format_number(v) for v in dph.exit],
        }
        _atomic_write(args.emit_dph, json.dumps(payload, indent=1) + "\n")
    return 0


def _cmd_bcp(args):
    if args.sizes:
        from .bcp import partition_count

        rows = [[n, partition_count(n), fib(n + 1)] for n in range(3, args.n_max + 1)]
        text = _csv_text(rows, header=["n", "partitions", "fib"])
        _emit(args.out, text)
        return 0
    if args.n is None:
        raise ValidationError("--n required unless --sizes is given")
    from .bcp import bcp_E_distribution
    from .phasetype import dph_pmf_range

    dph = bcp_E_distribution(args.n, mode="float")
    cap = 4 * dph.order + 100
    pmf = dph_pmf_range(dph, cap)
    rows = []
    cum = 0.0
    for m, p in enumerate(pmf, start=1):
        p = float(p)
        cum += p
        if p > 1e-15:
            rows.append([m, format_number(p)])
        if cum >= 1 - 1e-12:
            break
    text = _csv_text(rows, header=["m", "prob"])
    _emit(args.emit, text)
    return 0


def _cmd_test(args):
    from .fmatrix import iter_jsonl, nonfixed_vector
    from .neutrality import SampleStats, kingman_null, parse_tests, run_tests

    if args.null != "kingman":
        raise ValidationError(f"unknown null {args.null!r}")
    tests = parse_tests(args.tests)
    n = None
    m = 0
    nf_sum = None
    s_sum = 0.0
    e_values = []
    for fmat in iter_jsonl(args.infile):
        if n is None:
            n = fmat.n
        elif fmat.n != n:
            raise ValidationError(f"mixed n in corpus: {fmat.n} vs {n}")
        vec = nonfixed_vector(fmat)
        nf_sum = vec.astype(np.float64) if nf_sum is None else nf_sum + vec
        s_sum += int(vec.sum())
        e_values.append(int(fmat.entries[-1].sum()))
        m += 1
    if m == 0:
        raise ValidationError(f"{args.infile}: empty corpus")
    stats = SampleStats(
        n=n, m=m, nf_mean=nf_sum / m, s_mean=s_sum / m,
        e_mean=float(np.mean(e_values)), e_values=np.asarray(e_values, dtype=np.int64),
    )
    null = kingman_null(n)
    reports = run_tests(stats, null, tests=tests, K=args.boxes)
    payload = {
        "n": n,
        "m": m,
        "tests": {
            name: {
                "statistic": rep.statistic,
                "null": rep.null_dist,
                "p_value": rep.p_value,
                "config": rep.config,
            }
            for name, rep in reports.items()
        },
    }
    _emit(args.out, json.dumps(payload, indent=1) + "\n")
    return 0


def _parse_grid(text):
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ValidationError(f"grid must be start:stop:step, got {text!r}")
        start, stop, step = (float(p) for p in parts)
        if step <= 0:
            raise ValidationError("grid step must be positive")
        count = int(round((stop - start) / step)) + 1
        grid = [round(start + k * step, 10) for k in range(count)]
        return [g for g in grid if g <= stop + 1e-9]
    return [float(p) for p in text.split(",") if p.strip()]


def _cmd_power(args):
    from .neutrality import parse_tests, power_curve

    _refuse_negative(args, "seed")
    tests = parse_tests(args.tests)
    grid = _parse_grid(args.beta_grid)
    rows = power_curve(grid, args.n, args.m, args.reps, args.seed, alpha=args.alpha, tests=tests)
    table = [
        [r["beta"], r["test"], r["m"], r["replicates"],
         format_number(r["rejection_rate"]), format_number(r["mc_se"])]
        for r in rows
    ]
    text = _csv_text(table, header=["beta", "test", "m", "replicates", "rejection_rate", "mc_se"])
    _emit(args.out, text)
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="rankedcoal",
        description="Ranked coalescent embeddings: state spaces, F-matrices, "
                    "Frechet means, phase-type moments, and neutrality tests.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("statespace", help="enumerate ranked-coalescent states")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--max-n", type=int, default=30, help="capacity cap (default 30)")
    p.add_argument("--sizes", action="store_true",
                   help="also print last-entry class sizes as j,count rows")
    p.add_argument("--emit", help="write states as JSON [{index, tier, x}]")
    p.set_defaults(func=_cmd_statespace)

    p = sub.add_parser("kernel", help="emit tiered Kingman transition blocks")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--mode", choices=["rational", "float"])
    p.add_argument("--emit", help="output JSON path (default stdout)")
    p.set_defaults(func=_cmd_kernel)

    p = sub.add_parser("sample", help="draw chain paths from the Kingman kernel")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", help="JSONL output path (default stdout)")
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("simulate", help="simulate F-matrix corpora")
    p.add_argument("--model", choices=["beta", "kingman"], required=True)
    p.add_argument("--beta", type=float, default=0.0)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", help="JSONL output path (default stdout)")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("balance", help="balance indices per tree in a corpus")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", help="CSV output path (default stdout)")
    p.set_defaults(func=_cmd_balance)

    p = sub.add_parser("frechet", help="all Frechet mean paths via ViTreebi")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--model", choices=["kingman"], default="kingman")
    p.add_argument("--sample", help="JSONL corpus; use its sample mean instead of the exact mean")
    p.add_argument("--path-cap", type=int, default=10 ** 6)
    p.add_argument("--out", help="JSON output path")
    p.set_defaults(func=_cmd_frechet)

    p = sub.add_parser("moments", help="exact or feed-forward moments of S, E, F")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--targets", default="S,E", help="comma list from S,E,F")
    p.add_argument("--engine", choices=["feedforward", "dense"], default="feedforward")
    p.add_argument("--mode", choices=["rational", "float"])
    p.add_argument("--out", help="CSV output path (default stdout)")
    p.add_argument("--emit-dph", help="write the coalescent DPH as JSON {pi, T, exit}")
    p.set_defaults(func=_cmd_moments)

    p = sub.add_parser("bcp", help="ranked block-counting process tables")
    p.add_argument("--n", type=int)
    p.add_argument("--emit", help="CSV of the E distribution (default stdout)")
    p.add_argument("--sizes", action="store_true", help="emit n, p(n), Fib(n+1) rows")
    p.add_argument("--n-max", type=int, default=40)
    p.add_argument("--out", help="CSV output path for --sizes (default stdout)")
    p.set_defaults(func=_cmd_bcp)

    p = sub.add_parser("test", help="neutrality tests on a corpus")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--null", default="kingman")
    p.add_argument("--tests", default="GE,WF,WSE,HT")
    p.add_argument("--boxes", type=int, default=10, help="target box count for GE")
    p.add_argument("--out", help="JSON report path (default stdout)")
    p.set_defaults(func=_cmd_test)

    p = sub.add_parser("power", help="Monte-Carlo power curves over a beta grid")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True, help="trees per sample")
    p.add_argument("--reps", type=int, required=True)
    p.add_argument("--beta-grid", required=True, help="start:stop:step or comma list")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--tests", default="GE,WF,WSE,HT")
    p.add_argument("--out", help="CSV output path (default stdout)")
    p.set_defaults(func=_cmd_power)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CapacityError as exc:
        print(f"capacity: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
