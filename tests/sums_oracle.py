"""Per-tree references for the corpus sums: the loops that summed a
corpus for the neutrality tests and for the sample mean, one matrix at a
time, where ``fmatrix.corpus_sums`` serves both in one pass."""

from fractions import Fraction

import numpy as np

from rankedcoal import ValidationError
from rankedcoal.fmatrix import nonfixed_vector
from rankedcoal.neutrality import SampleStats


def sample_stats(sample):
    """``SampleStats.from_fmatrices``: the non-fixed vectors and the E of
    each tree, summed tree by tree."""
    n, nf_sum, e_values = None, 0, []
    for f in sample:
        n = n or f.n
        if f.n != n:
            raise ValidationError(f"mixed n in sample: {f.n} vs {n}")
        nf_sum = nf_sum + nonfixed_vector(f)
        e_values.append(int(f.entries[-1].sum()))
    if not e_values:
        raise ValidationError("empty sample")
    m = len(e_values)
    return SampleStats(n=n, m=m, nf_mean=nf_sum / m, s_mean=int(np.sum(nf_sum)) / m,
                       e_mean=sum(e_values) / m, e_counts=np.bincount(e_values))


def mean_entries(matrices):
    """The entries of the unweighted sample mean of F-matrices of one n, as
    an object array of Fractions: an int64 sum, then each entry over m."""
    n = matrices[0].n
    total = np.zeros((n - 1, n - 1), dtype=np.int64)
    for f in matrices:
        total += f.entries
    m = len(matrices)
    out = np.empty((n - 1, n - 1), dtype=object)
    for idx, val in np.ndenumerate(total):
        out[idx] = Fraction(int(val), m)
    return out
