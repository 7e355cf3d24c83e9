"""Command-line entry point.

Exit codes: 0 success, 2 validation error (including flag misuse and
unreadable or unwritable files), 3 capacity overflow. Every file is
written atomically: a temp file in the target directory, then os.replace.
"""

import argparse
import csv
import io
import itertools
import json
import math
import os
import sys
import tempfile

from ._common import RATIONAL_MAX_N, default_mode
from ._common import CapacityError, ValidationError, fib, format_number

# The most points a ``power --beta-grid`` range may expand to; each point
# runs every replicate.
GRID_MAX_POINTS = 10_000
# Items of a streamed --emit list per string written: a bounded part of its text
EMIT_ITEMS = 4096


def _atomic_write(path, text):
    """Write ``text``, a string or an iterable of strings, to ``path``."""
    target = os.path.abspath(path)
    try:
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(target), prefix=".tmp-")
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, path) from None
    try:
        with os.fdopen(fd, "w") as fh:
            fh.writelines([text] if isinstance(text, str) else text)
        os.replace(tmp, target)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _emit(path, text):
    if path:
        _atomic_write(path, text)
    else:
        sys.stdout.writelines([text] if isinstance(text, str) else text)


def _json_template(item, depth):
    """``item`` as json.dumps(..., indent=1) prints it ``depth`` levels deep,
    as a ``%`` template: each "%d" string in it becomes a bare integer."""
    return json.dumps(item, indent=1).replace('"%d"', "%d").replace("\n", "\n" + " " * depth)


def _json_list(template, rows, depth):
    """A nonempty JSON list ``depth`` levels deep, as json.dumps(..., indent=1)
    prints it, of the items ``template % row``: EMIT_ITEMS items per string."""
    sep = "[\n" + " " * (depth + 1)
    while batch := list(itertools.islice(rows, EMIT_ITEMS)):
        yield sep + ("," + sep[1:]).join([template % row for row in batch])
        sep = "," + sep[1:]
    yield "\n" + " " * depth + "]"


def _values(array):
    """The entries of ``array`` as Python values, converted EMIT_ITEMS at a time."""
    return itertools.chain.from_iterable(
        array[lo:lo + EMIT_ITEMS].tolist() for lo in range(0, len(array), EMIT_ITEMS))


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
        state = _json_template({"index": "%d", "tier": "%d", "x": ["%d"] * (space.n - 1)}, 1)
        rows = zip(itertools.count(1), _values(space.tier_of), _values(space.states))
        states = _json_list(state, ((i, tier, *x) for i, tier, x in rows), 0)
        _atomic_write(args.emit, itertools.chain(states, ["\n"]))
    return 0


def _cmd_kernel(args):
    from .kingman import tier_blocks
    from .statespace import enumerate_states

    space = enumerate_states(args.n)
    mode = args.mode or default_mode(args.n)
    entry = _json_template(["%d", "%d", "%s"], 4)
    head, tail = _json_template({"n": args.n, "blocks": "%s"}, 0).split('"%s"')

    def text():
        yield head + "["
        for k, blk in enumerate(tier_blocks(space)):
            block = {"from_tier": blk.from_tier, "n_rows": blk.n_rows, "n_cols": blk.n_cols,
                     "denominator": blk.denom, "entries": "%s"}
            block_head, block_tail = _json_template(block, 2).split('"%s"')
            yield ("," if k else "") + "\n  " + block_head
            rows = _values(space.tier_offsets[blk.from_tier] + blk.rows() + 1)
            cols = _values(space.tier_offsets[blk.from_tier + 1] + blk.indices + 1)
            yield from _json_list(entry, zip(rows, cols, map(format_number, _values(blk.probs(mode)))), 3)
            yield block_tail
        yield "\n ]" + tail + "\n"

    _emit(args.emit, text())
    return 0


def _cmd_sample(args):
    import numpy as np

    from .betasplit import block_sizes
    from .kingman import sample_paths
    from .statespace import enumerate_states

    _refuse_negative(args, "count", "seed")
    space = enumerate_states(args.n)
    rng = np.random.default_rng(args.seed)

    def text(size):
        paths = sample_paths(space, size, seed=rng)
        return "".join(json.dumps({"path": [int(v) for v in p]}) + "\n" for p in paths)

    _emit(args.out, map(text, block_sizes(args.count, args.n)))
    return 0


def _cmd_simulate(args):
    import numpy as np

    from .betasplit import block_sizes
    from .fmatrix import jsonl_text

    _refuse_negative(args, "count", "seed")
    rng = np.random.default_rng(args.seed)
    if args.model == "beta":
        from .betasplit import BetaConfig, sample_beta_fmatrices

        config = BetaConfig(beta=args.beta, n=args.n, seed=args.seed)

        def draw(size):
            return sample_beta_fmatrices(config, size, rng=rng)
    else:
        from .fmatrix import paths_to_fmatrices
        from .kingman import sample_paths
        from .statespace import enumerate_states

        space = enumerate_states(args.n)

        def draw(size):
            return paths_to_fmatrices(space, sample_paths(space, size, seed=rng))

    texts = (text for size in block_sizes(args.count, args.n) for text in jsonl_text(draw(size)))
    _emit(args.out, texts)
    return 0


def _cmd_balance(args):
    from .fmatrix import _build_tree, balance_E, balance_S, colless, iter_jsonl, sackin

    rows = []
    for fmat in iter_jsonl(args.infile):
        tree = _build_tree(fmat)  # iter_jsonl has checked it
        rows.append([balance_E(fmat), balance_S(fmat), sackin(tree), colless(tree)])
    text = _csv_text(rows, header=["E", "S", "sackin", "colless"])
    _emit(args.out, text)
    return 0


def _corpus(path):
    """The first F-matrix of the corpus at ``path`` and an iterator over all
    of it, read lazily; an empty corpus, or a later tree of another n than
    the first, is refused."""
    from .fmatrix import iter_jsonl

    fmats = iter_jsonl(path)
    first = next(fmats, None)
    if first is None:
        raise ValidationError(f"{path}: empty corpus")

    def same_n():
        yield first
        for number, fmat in enumerate(fmats, start=2):
            if fmat.n != first.n:
                raise ValidationError(f"{path}: tree {number} has n = {fmat.n}, "
                                      f"but the first tree has n = {first.n}")
            yield fmat

    return first, same_n()


def _cmd_frechet(args):
    from .fmatrix import path_to_fmatrix
    from .frechet import check_path_cap, mean_matrix_exact, mean_matrix_sample, vitreebi
    from .statespace import enumerate_states

    check_path_cap(args.path_cap)
    mean = None
    if args.sample:
        first, fmats = _corpus(args.sample)
        if first.n != args.n:
            raise ValidationError(f"corpus has n = {first.n}, expected {args.n}")
        mean = mean_matrix_sample(fmats)
    space = enumerate_states(args.n)
    if mean is None:
        mean = mean_matrix_exact(space)
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


def _moment_rows_se(space, summary, targets):
    """The mean and variance rows of S and of E that ``targets`` names, and
    their covariance row when it names both."""
    from .feedforward import se_moments

    mean, cov = se_moments(space, summary=summary)
    rows = []
    for k, name in enumerate(("S", "E")):
        if name in targets:
            rows += [[name, "mean", format_number(mean[k])],
                     [name, "var", format_number(cov[k, k])]]
    if "S" in targets and "E" in targets:
        rows.append(["SE", "cov", format_number(cov[0, 1])])
    return rows


def _moment_rows_f(summary):
    pos = summary.positions
    rows = [[f"F({i},{j})", "mean", format_number(m)] for (i, j), m in zip(pos, summary.mean)]
    rows += [[f"F{pa}:F{pb}".replace(" ", ""), "cov", format_number(summary.cov[a, b])]
             for a, pa in enumerate(pos) for b, pb in enumerate(pos[a:], start=a)]
    return rows


def _cmd_moments(args):
    from .feedforward import nonfixed_moments
    from .statespace import enumerate_states

    targets = [t.strip().upper() for t in args.targets.split(",") if t.strip()]
    bad = [t for t in targets if t not in ("S", "E", "F")]
    if bad or not targets:
        raise ValidationError(f"targets must be a comma list from S, E, F, got {args.targets!r}")
    n = args.n
    mode = args.mode or default_mode(n)
    if mode == "rational" and n > RATIONAL_MAX_N and "F" in targets:
        raise ValidationError(
            f"rational mode refuses n = {n} > {RATIONAL_MAX_N} for full-covariance jobs; "
            "use --mode float"
        )
    space = enumerate_states(n)
    # one non-fixed summary serves both the (S, E) rows and the F rows
    summary = nonfixed_moments(space, mode=mode)
    rows = []
    if "S" in targets or "E" in targets:
        rows.extend(_moment_rows_se(space, summary, targets))
    if "F" in targets:
        rows.extend(_moment_rows_f(summary))
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
        from .bcp import SIZES_MAX_N, partition_counts

        if args.n_max < 3:
            raise ValidationError(f"--n-max must be at least 3, got {args.n_max}")
        if args.n_max > SIZES_MAX_N:
            raise CapacityError(f"--n-max {args.n_max} exceeds cap {SIZES_MAX_N}")
        counts = partition_counts(args.n_max)
        rows = [[n, counts[n], fib(n + 1)] for n in range(3, args.n_max + 1)]
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
    from .neutrality import SampleStats, kingman_null, parse_tests, run_tests

    tests = parse_tests(args.tests)
    if "GE" in tests and args.boxes < 2:
        raise ValidationError(f"GE needs --boxes of at least 2, got {args.boxes}")
    _, fmats = _corpus(args.infile)
    stats = SampleStats.from_fmatrices(fmats)
    n, m = stats.n, stats.m
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
    """The betas of a start:stop:step or comma-list grid; ``power_curve``
    checks the betas themselves. A range is counted, and refused above
    GRID_MAX_POINTS points, before its list is built."""
    parts = text.split(":") if ":" in text else [p for p in text.split(",") if p.strip()]
    try:
        values = [float(p) for p in parts]
    except ValueError:
        raise ValidationError(f"grid values must be numbers, got {text!r}") from None
    if ":" not in text:
        return values
    if len(values) != 3:
        raise ValidationError(f"grid must be start:stop:step, got {text!r}")
    if not all(map(math.isfinite, values)):
        raise ValidationError(f"grid start, stop and step must be finite, got {text!r}")
    start, stop, step = values
    if step <= 0:
        raise ValidationError("grid step must be positive")
    span = (stop - start) / step  # inf when it overflows
    if not span <= GRID_MAX_POINTS - 1:
        raise CapacityError(f"beta grid {text!r} has more than {GRID_MAX_POINTS} points")
    grid = [round(start + k * step, 10) for k in range(int(round(span)) + 1)]
    return [g for g in grid if g <= stop + 1e-9]


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
    p.add_argument("--sample", help="JSONL corpus; use its sample mean instead of the exact mean")
    p.add_argument("--path-cap", type=int, default=10 ** 6)
    p.add_argument("--out", help="JSON output path")
    p.set_defaults(func=_cmd_frechet)

    p = sub.add_parser("moments", help="exact or feed-forward moments of S, E, F")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--targets", default="S,E", help="comma list from S,E,F")
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


def _check_output_dirs(args):
    """Refuse an output path whose directory does not exist, before any work."""
    for flag in ("out", "emit", "emit_dph"):
        path = getattr(args, flag, None)
        if path and not os.path.isdir(os.path.dirname(os.path.abspath(path))):
            raise ValidationError(f"--{flag.replace('_', '-')} {path}: no such directory")


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_output_dirs(args)
        return args.func(args)
    except (ValidationError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CapacityError as exc:
        print(f"capacity: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
