"""Seeded inputs for the workloads: corpora of F-matrices and program seeds.

Trees are grown forward, root to leaves, by splitting one lineage per
event. ``neutral_tree`` picks that lineage uniformly, which is the
Kingman law of ranked shapes; ``skewed_tree`` picks one of the two
youngest lineages half of the time, a clearly non-neutral model that
grows caterpillar-like shapes.
"""

import json
import random

from refs import births_to_row

MALFORMED_N = 6
MALFORMED_TREES = 60
MALFORMED_LINE = 17


def program_seed(seed, label):
    """A seed for one program call, fixed by the workload seed and a label."""
    return random.Random(f"{seed}:{label}").randrange(2 ** 31)


def _grow(n, rng, young_share):
    births = {2: 2}
    tri = [[2]]
    for k in range(2, n):
        if rng.random() < young_share:
            b = k
        else:
            target = rng.randrange(k)
            for b, count in sorted(births.items()):
                if target < count:
                    break
                target -= count
        births[b] -= 1
        if not births[b]:
            del births[b]
        births[k + 1] = 2
        tri.append(births_to_row(births, k + 1))
    return tri


def neutral_tree(n, rng):
    return _grow(n, rng, 0.0)


def skewed_tree(n, rng):
    return _grow(n, rng, 0.5)


def write_corpus(path, n, tris):
    with open(path, "w", encoding="utf-8") as fh:
        for tri in tris:
            fh.write(json.dumps({"n": n, "tri": tri}) + "\n")


def skewed_corpus(path, n, count, seed):
    rng = random.Random(f"{seed}:skewed")
    write_corpus(path, n, [skewed_tree(n, rng) for _ in range(count)])


def malformed_corpus(path):
    """A fixed n = 6 corpus whose line MALFORMED_LINE has F_5,1 = 99 and
    F_3,3 = 0. It does not depend on the workload seed, so the call that
    reads it fails the same way in every run."""
    rng = random.Random("malformed")
    tris = [neutral_tree(MALFORMED_N, rng) for _ in range(MALFORMED_TREES)]
    bad = tris[MALFORMED_LINE - 1]
    bad[4][0] = 99
    bad[2][2] = 0
    write_corpus(path, MALFORMED_N, tris)
