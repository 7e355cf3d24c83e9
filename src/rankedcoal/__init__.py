"""Markov-chain embedding of ranked unlabelled trees.

The package builds the tiered state space of the ranked coalescent,
its Kingman transition kernel, and the F-matrix calculus on top of it:
balance indices, Frechet means, discrete phase-type moments with a
feed-forward fast path, the ranked block-counting process, beta-splitting
simulation, and neutrality tests against the Kingman null.
"""

from ._common import CapacityError, ValidationError
from .bcp import bcp_E_distribution, bcp_chain, bcp_dph, bcp_states, partition_count
from .betasplit import BetaConfig, sample_beta_fmatrices, sample_beta_stats
from .feedforward import frechet_variance, nonfixed_moments, se_moments
from .fmatrix import (
    FMatrix,
    balance_E,
    balance_S,
    colless,
    distance,
    fmatrix_to_path,
    fmatrix_to_tree,
    iter_jsonl,
    nonfixed_positions,
    path_to_fmatrix,
    read_jsonl,
    sackin,
)
from .frechet import (
    MeanMatrix,
    mean_matrix_exact,
    mean_matrix_sample,
    state_costs,
    vitreebi,
)
from .kingman import (
    edge_table,
    enumerate_paths,
    path_probability,
    sample_paths,
    tier_blocks,
    transition_prob,
)
from .neutrality import (
    KingmanNull,
    SampleStats,
    TestReport,
    kingman_null,
    power_curve,
    run_tests,
)
from .phasetype import (
    DiscretePhaseType,
    build_rewards,
    coalescent_dph,
    dph_mean_var,
    dph_pmf,
    dph_pmf_range,
    reward_moments,
    reward_transform,
)
from .statespace import StateSpace, diff_encoding, enumerate_states, tier_sizes

__version__ = "1.0.0"

__all__ = [
    "CapacityError",
    "ValidationError",
    "StateSpace",
    "diff_encoding",
    "enumerate_states",
    "tier_sizes",
    "tier_blocks",
    "transition_prob",
    "edge_table",
    "enumerate_paths",
    "path_probability",
    "sample_paths",
    "FMatrix",
    "path_to_fmatrix",
    "fmatrix_to_path",
    "fmatrix_to_tree",
    "distance",
    "balance_E",
    "balance_S",
    "sackin",
    "colless",
    "nonfixed_positions",
    "read_jsonl",
    "iter_jsonl",
    "MeanMatrix",
    "mean_matrix_exact",
    "mean_matrix_sample",
    "state_costs",
    "vitreebi",
    "frechet_variance",
    "DiscretePhaseType",
    "coalescent_dph",
    "build_rewards",
    "dph_pmf",
    "dph_pmf_range",
    "dph_mean_var",
    "reward_moments",
    "reward_transform",
    "nonfixed_moments",
    "se_moments",
    "partition_count",
    "bcp_states",
    "bcp_chain",
    "bcp_dph",
    "bcp_E_distribution",
    "BetaConfig",
    "sample_beta_fmatrices",
    "sample_beta_stats",
    "SampleStats",
    "TestReport",
    "KingmanNull",
    "kingman_null",
    "run_tests",
    "power_curve",
]
