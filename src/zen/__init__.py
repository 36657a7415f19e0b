"""Parameter-free linear hypergraph node classification.

Pipeline: build degree-normalized hop adjacencies with redundant
self-information removed, mix them with simplex weights, propagate raw
features once, and read class weights directly off the labeled rows. No
trained parameters anywhere; every step is a closed form over sparse matrix
products, so runs are fast and exactly reproducible from their seeds.
"""

import importlib

from .errors import (
    ConfigError,
    DatasetError,
    DivergenceError,
    GuardError,
    HypergraphParseError,
    IsolatedNodeError,
    SplitError,
    ZenError,
)

# Every other export is loaded on first access (PEP 562), so importing the
# package, or zen.cli, does not import numpy: ``zen run --threads`` can still
# set the BLAS thread variables before numpy loads.
_LAZY_EXPORTS = {
    "classifier": (
        "SpectralComponents", "Split", "TrainingParams", "exact_weights",
        "make_assumption_data", "normalize_rows", "tcs_error_bound",
        "tcs_weights", "train_weights_gd",
    ),
    "harness": (
        "Dataset", "RunResult", "explain_weights", "grid_search",
        "load_dataset", "make_kshot_split", "run_config", "simplex_grid",
    ),
    "hypergraph": (
        "Hypergraph", "LabelSet", "degrees", "incidence_matrix",
        "load_features", "load_hypergraph", "load_labels",
    ),
    "propagation": (
        "NormalizationKind", "PropagationConfig", "build_A1_star",
        "propagated_basis", "rsi_diag_1", "rsi_diag_2",
    ),
    "rsi_approx": (
        "HutchinsonParams", "WalkParams", "dense_diag_oracle",
        "hutchinson_diag", "random_walk_return_prob",
    ),
}
_MODULE_OF = {name: mod for mod, names in _LAZY_EXPORTS.items() for name in names}

__version__ = "0.1.0"

__all__ = sorted([
    "ConfigError", "DatasetError", "DivergenceError", "GuardError",
    "HypergraphParseError", "IsolatedNodeError", "SplitError", "ZenError",
    *_MODULE_OF,
])


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
