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
        "Prediction", "SpectralComponents", "Split", "TrainingParams", "embed",
        "exact_weights", "make_assumption_data", "normalize_cols",
        "normalize_rows", "predict", "sse_gradient", "sse_loss",
        "tcs_error_bound", "tcs_weights", "train_weights_gd",
    ),
    "harness": (
        "Dataset", "RunResult", "SeedResult", "SimplexGrid", "WeightReport",
        "config_weights", "evaluate_accuracy", "explain_weights",
        "grid_search", "load_dataset", "make_kshot_split", "run_config",
        "simplex_grid",
    ),
    "hypergraph": (
        "DegreeProfile", "Hypergraph", "LabelSet", "degrees",
        "incidence_matrix", "load_features", "load_hypergraph", "load_labels",
        "parse_hypergraph", "serialize_hypergraph",
    ),
    "propagation": (
        "BaselineRecipe", "NormalizationKind", "PropagationConfig",
        "build_A1_hat", "build_A1_star", "build_A2_hat", "build_A2_star",
        "build_baseline_adjacency", "build_P_star", "plain_adjacency",
        "restart_coefficients", "rsi_diag_1", "rsi_diag_2",
    ),
    "rsi_approx": (
        "HutchinsonParams", "WalkParams", "dense_diag_oracle",
        "hutchinson_diag", "random_walk_return_prob", "walk_transition_matrix",
    ),
}
_MODULE_OF = {name: mod for mod, names in _LAZY_EXPORTS.items() for name in names}

__version__ = "0.1.0"

__all__ = [
    "BaselineRecipe",
    "ConfigError",
    "Dataset",
    "DatasetError",
    "DegreeProfile",
    "DivergenceError",
    "GuardError",
    "HutchinsonParams",
    "Hypergraph",
    "HypergraphParseError",
    "IsolatedNodeError",
    "LabelSet",
    "NormalizationKind",
    "Prediction",
    "PropagationConfig",
    "RunResult",
    "SeedResult",
    "SimplexGrid",
    "SpectralComponents",
    "Split",
    "SplitError",
    "TrainingParams",
    "WalkParams",
    "WeightReport",
    "ZenError",
    "build_A1_hat",
    "build_A1_star",
    "build_A2_hat",
    "build_A2_star",
    "build_P_star",
    "build_baseline_adjacency",
    "config_weights",
    "degrees",
    "dense_diag_oracle",
    "embed",
    "evaluate_accuracy",
    "exact_weights",
    "explain_weights",
    "grid_search",
    "hutchinson_diag",
    "incidence_matrix",
    "load_dataset",
    "load_features",
    "load_hypergraph",
    "load_labels",
    "make_assumption_data",
    "make_kshot_split",
    "normalize_cols",
    "normalize_rows",
    "parse_hypergraph",
    "plain_adjacency",
    "predict",
    "random_walk_return_prob",
    "restart_coefficients",
    "rsi_diag_1",
    "rsi_diag_2",
    "run_config",
    "serialize_hypergraph",
    "simplex_grid",
    "sse_gradient",
    "sse_loss",
    "tcs_error_bound",
    "tcs_weights",
    "train_weights_gd",
    "walk_transition_matrix",
]


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
