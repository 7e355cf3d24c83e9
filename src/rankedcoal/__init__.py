"""Markov-chain embedding of ranked unlabelled trees.

The package builds the tiered state space of the ranked coalescent,
its Kingman transition kernel, and the F-matrix calculus on top of it:
balance indices, Frechet means, discrete phase-type moments with a
feed-forward fast path, the ranked block-counting process, beta-splitting
simulation, and neutrality tests against the Kingman null.

Importing the package runs none of its submodules. Each one is in
``sys.modules`` from the start, as a lazily executed module whose code
is compiled and run on its first attribute access, so a CLI call runs
only the modules its command uses. The exported names below resolve
through the module ``__getattr__``.
"""

import importlib.util
import sys

__version__ = "1.0.0"

# submodule -> the names the package exports from it
_EXPORTS = {
    "_common": "CapacityError ValidationError",
    "statespace": "StateSpace diff_encoding enumerate_states tier_sizes",
    "kingman": "tier_blocks transition_prob edge_table enumerate_paths path_probability "
               "sample_paths",
    "fmatrix": "FMatrix path_to_fmatrix fmatrix_to_path fmatrix_to_tree distance balance_E "
               "balance_S sackin colless nonfixed_positions read_jsonl iter_jsonl",
    "frechet": "MeanMatrix mean_matrix_exact mean_matrix_sample state_costs vitreebi",
    "feedforward": "frechet_variance nonfixed_moments se_moments",
    "phasetype": "DiscretePhaseType coalescent_dph build_rewards dph_pmf dph_pmf_range "
                 "dph_mean_var reward_moments reward_transform",
    "bcp": "partition_count bcp_states bcp_chain bcp_dph bcp_E_distribution",
    "betasplit": "BetaConfig sample_beta_fmatrices sample_beta_stats",
    "neutrality": "SampleStats TestReport KingmanNull kingman_null run_tests power_curve",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}
__all__ = list(_MODULE_OF)


def _register_lazily(module):
    spec = importlib.util.find_spec(f"{__name__}.{module}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    lazy = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = lazy
    spec.loader.exec_module(lazy)
    globals()[module] = lazy


for _module in _EXPORTS:
    _register_lazily(_module)
del _module


def __getattr__(name):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(globals()[_MODULE_OF[name]], name)


def __dir__():
    return [*globals(), *__all__]
