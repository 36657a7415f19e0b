"""Experiment harness: datasets, k-shot splits, simplex grid search, reports.

The search protocol: for every seed, draw a k-shot split, score every mixing
configuration on the validation nodes, keep the configuration with the best
validation accuracy (ties to the earliest in enumeration order), and report
its test accuracy; aggregate mean and sample standard deviation over seeds.

One function, ``_eval_config``, defines what a configuration scores. It
works on the labeled rows of the per-hop feature blocks (X, A1 X, A2 X).
Mixing and row normalization act on each row alone and the class weights
read only the training rows, so a configuration needs only the labeled
rows: its weights come from the training rows and its accuracy from the
product of the validation rows with them. That labeled-row product is the
definition, tie policy included: the argmax takes the first maximum, so an
exact tie between two classes goes to the lower class id. Every
configuration is selected by ``_select_config`` on the same three blocks,
from its run's alpha triples: the grid's, or one triple, ``run_config``'s
or the pinned ``linearized_hgnn``'s, ``no_both`` at (0, 0, 1) on the
symmetric hop. A single triple, every grid's winner and every re-score
below go through ``_eval_config``, so re-running a selected configuration
reproduces the grid's numbers bit for bit and ``zen explain`` gets the
winner's weights the same way.

``_Run.prepare`` is the one place that reads a variant: once per run it
makes the variant's propagation (the hops through the incidence and rsi_2)
and takes its alpha triples and its weight route (descent's parameters, or
None for the closed form), beside the dataset's one stored X, dense or CSR,
and its labels. Each seed's selection and test scoring is then given only
its split. No n x d block is propagated whole: ``_Run.rows`` propagates
only the rows asked for, bit for bit the same rows of the whole blocks:
each seed's labeled rows, and the test rows whose class the scores below
cannot settle.

Descent weights come in closed form (``classifier._descent_weights``, one
``eigh`` of the t x t training Gram, whatever the epoch count), so a descent
grid is scored by ``_eval_config`` on each configuration in turn, at
O(g L (d + L)) per seed for g grid points. The closed form of ``_tcs`` is
cheaper still in Gram form: once per seed, ``_select_config`` forms the
Grams of the blocks' L labeled rows and screens all g grid points from them
in chunks (``_gram_accuracies``), at O(L^2 (d + g c)) per seed against
O(g L d) for weighting each configuration's rows. On the benchmark's
Cora-shaped input L = 70, d = 1433 and g = 55. The Gram scores match the
labeled-row scores to rounding (about 1e-14 relative on the benchmark
inputs), so they can only rank a validation row differently where its top
two class scores nearly tie. Such a configuration, and one whose Gram value
has cancelled, is re-scored through ``_eval_config``, and that accuracy
replaces the Gram one. The first configuration with the highest accuracy
wins, and its accuracy and weights are ``_eval_config``'s.

The winner's test rows are scored through X W. ZEN is linear, so a row's
scores Z_i W are (sum_j a_j (A_j X)_i W) / ||m_i||, with m_i its mixed row,
and a positive divisor does not move the argmax: the class can be read off
sum_j a_j (A_j (X W))_i, an n x c propagation costing O(nnz(H) c) per seed
(the re-association SGC makes, Wu et al., arXiv:1902.07153). The two routes
round differently, so a row whose top two scores lie within ``_NEAR_TIE``
of its rounding bound, the same propagation of |X| |W| through the hops'
magnitudes, is re-scored through the row route: its rows of the blocks
mixed, normalized and multiplied by W. A row whose mix has only zero
terms, found by pushing |X| 1 through the same magnitudes, is exactly zero
and predicts class 0 without either.
"""

from __future__ import annotations

import json
import time
import warnings
from collections import namedtuple
from dataclasses import asdict, dataclass, replace
from numbers import Integral

import numpy as np
import scipy.sparse as sp

from .classifier import (
    Split,
    TrainingParams,
    _descent_weights,
    _tcs,
    _warn_zero_rows,
    _zero_rows,
    normalize_rows,
)
from .errors import ConfigError, DatasetError, SplitError, check_count
from .hypergraph import (
    Hypergraph,
    LabelSet,
    load_features,
    load_hypergraph,
    load_labels,
)
from .propagation import NormalizationKind, PropagationConfig, _Propagation
from .sparsetools import _dense, _slice_len, _stored_features

# rap: redundancy-aware propagation; descent: weights by gradient descent;
# pinned: the one configuration a variant runs at, else None. linearized_hgnn
# is the HGNN of Feng et al. (arXiv:1809.09401) linearized as SGC does.
_Variant = namedtuple("_Variant", "rap descent pinned")
_VARIANTS = {
    "full": _Variant(rap=True, descent=False, pinned=None),
    "no_rap": _Variant(rap=False, descent=False, pinned=None),
    "no_tcs": _Variant(rap=True, descent=True, pinned=None),
    "no_both": _Variant(rap=False, descent=True, pinned=None),
    "linearized_hgnn": _Variant(rap=False, descent=True, pinned=PropagationConfig(
        (0.0, 0.0, 1.0), NormalizationKind.SYMMETRIC)),
}
VARIANTS = tuple(_VARIANTS)

# A validation row whose top two Gram scores differ by at most this fraction
# of max(1, |top score|) is a near tie, which the row route may rank the
# other way.
_NEAR_TIE = 1e-9
# A sum whose squared length is at most this fraction of the sum of its
# terms' squared lengths has cancelled, and its Gram value has lost digits.
# A sum of nonnegative vectors is never shorter than that sum.
_CANCELLATION = 1e-2


class _Features:
    """The ``features`` field of a Dataset: given a dense array or a scipy
    sparse matrix, read back as a dense n x d array.

    The value given is kept as it is, in ``_features``, and
    ``Dataset.__post_init__`` replaces it with X's one stored form. Reading
    the field goes through ``sparsetools._dense``: a stored dense X itself,
    a new dense copy of a stored CSR one, bit for bit (``-0.0`` included),
    so callers that need an array get one; the package reads ``_features``.
    """

    def __get__(self, obj, owner=None):
        if obj is None:
            raise AttributeError("features")    # the field has no default
        return _dense(obj._features)

    def __set__(self, obj, value):
        object.__setattr__(obj, "_features", value)


@dataclass(frozen=True)
class Dataset:
    """A hypergraph with per-node features and labels, plus printable names.

    ``features`` may be a dense array or a scipy sparse matrix, and X is
    stored once, as ``sparsetools._stored_features`` gives it: a sparse
    matrix as canonical float64 CSR, a dense array as itself, or as its CSR
    copy (``-0.0`` entries kept) when it is sparse enough. X must have one
    row per node and be finite. Reading ``features`` gives X as a dense
    array (see ``_Features``).
    """

    name: str
    hypergraph: Hypergraph
    features: np.ndarray = _Features()
    labels: LabelSet
    feature_names: tuple[str, ...] | None = None

    def __post_init__(self):
        n = self.hypergraph.num_nodes
        X = _stored_features(self._features, n)
        object.__setattr__(self, "_features", X)
        if self.labels.num_nodes != n:
            raise DatasetError(
                f"{self.labels.num_nodes} labels for {n} nodes"
            )
        if self.feature_names is not None and len(self.feature_names) != X.shape[1]:
            raise DatasetError(
                f"{len(self.feature_names)} feature names for {X.shape[1]} features"
            )

    @property
    def num_nodes(self) -> int:
        return self.hypergraph.num_nodes


def load_dataset(edges_path, features_path, labels_path, name: str | None = None) -> Dataset:
    """Assemble a Dataset from the three on-disk pieces.

    Features are used exactly as stored (no scaling or binarization at
    ingestion); the classifier's row normalization after propagation is the
    only rescaling anywhere in the pipeline. X is kept in the form
    ``load_features`` returns, so a sparse enough file is never made dense.
    ``Dataset`` checks X again, as it does any X it is given: the check
    reads a CSR X's stored values, or a dense X a row slice at a time. Its
    error, a row count other than the node count, is named with the
    features path.
    """
    hg = load_hypergraph(edges_path)
    X, feature_names = load_features(features_path)
    labels = load_labels(labels_path, hg.num_nodes)
    if name is None:
        import os
        name = os.path.splitext(os.path.basename(str(edges_path)))[0]
    try:
        return Dataset(name=name, hypergraph=hg, features=X, labels=labels,
                       feature_names=feature_names)
    except DatasetError as exc:     # the labels and names were read to fit
        raise DatasetError(f"{features_path}: {exc}") from None


@dataclass(frozen=True)
class SimplexGrid:
    """Lattice of mixing-weight triples on the probability simplex."""

    alphas: tuple[tuple[float, float, float], ...]
    denominator: int

    def __len__(self) -> int:
        return len(self.alphas)

    def __iter__(self):
        return iter(self.alphas)


def simplex_grid(denominator: int) -> SimplexGrid:
    """All triples (a/q, b/q, c/q) with nonnegative integers a+b+c = q.

    Enumerated lexicographically by (a, b); the count is (q+1)(q+2)/2, which
    is 55 at the default denominator 9.
    """
    check_count("denominator", denominator)
    q = int(denominator)
    triples = []
    for a in range(q + 1):
        for b in range(q - a + 1):
            c = q - a - b
            triples.append((a / q, b / q, c / q))
    return SimplexGrid(alphas=tuple(triples), denominator=q)


def _check_split_args(k, seeds) -> None:
    """Reject a non-positive or non-integer k, and any seed that is not an
    integer (numpy's included; a bool is not one) in [0, 2**128)."""
    check_count("k", k)
    for seed in seeds:
        if not isinstance(seed, Integral) or isinstance(seed, bool):
            raise ConfigError(f"seed must be an integer, got {seed!r}")
        if not 0 <= seed < 2**128:
            raise ConfigError(f"seed must be in [0, 2**128), got {seed!r}")


def make_kshot_split(labels: LabelSet, k: int, seed: int) -> Split:
    """Sample k training and k validation nodes per class; the rest is test.

    Within each class (taken in ascending id order) 2k members are drawn
    without replacement from the seeded generator; the first k go to train,
    the next k to validation. Deterministic per (labels, k, seed).
    """
    _check_split_args(k, (seed,))
    rng = np.random.Generator(np.random.Philox(key=seed))
    n = labels.num_nodes
    train = np.zeros(n, dtype=bool)
    val = np.zeros(n, dtype=bool)
    for cls in range(labels.num_classes):
        members = np.flatnonzero(labels.labels == cls)
        if members.size < 2 * k:
            raise SplitError(
                f"class {cls} has {members.size} member(s), needs at least {2 * k} "
                f"for a {k}-shot split"
            )
        pick = rng.choice(members, size=2 * k, replace=False)
        train[pick[:k]] = True
        val[pick[k:]] = True
    test = ~(train | val)
    if not test.any():
        warnings.warn("every node is in train or validation; test mask is empty",
                      stacklevel=2)
    return Split(train_mask=train, val_mask=val, test_mask=test)


def _accuracy(hard_labels: np.ndarray, truth: np.ndarray) -> float:
    if truth.size == 0:
        raise SplitError("cannot evaluate accuracy on an empty mask")
    return float(np.mean(hard_labels == truth))


@dataclass(frozen=True)
class _Run:
    """One variant's run on one dataset, prepared once: X in the dataset's
    stored form, the variant's propagation, the labels, the alpha triples it
    selects among, and the descent parameters, None for the closed form.

    ``rows`` gives the blocks the variant mixes at any rows, bit for bit the
    same rows of the whole blocks, by propagating only what those rows read.
    ``scores`` gives a configuration's class scores at every row through
    the propagation of X W, a bound on their rounding, and the rows the mix
    leaves zero.
    """

    features: np.ndarray | sp.csr_matrix
    propagation: _Propagation
    labels: LabelSet
    alphas: tuple[tuple[float, float, float], ...]
    training: TrainingParams | None

    @classmethod
    def prepare(cls, dataset: Dataset, variant: str, kind: NormalizationKind, alphas,
                training: TrainingParams | None = None) -> _Run:
        """The run of ``variant`` on ``dataset`` at ``kind`` among ``alphas``.

        full/no_tcs propagate [X, A1* X, A2* X] with redundancy-aware
        propagation, and no_rap/no_both/linearized_hgnn [X, A X, A (A X)]
        with the plain normalization (``rap=False``). A pinned variant runs
        at its own normalization and triple instead of ``kind`` and
        ``alphas``. A descent variant trains with ``training``, or the
        default parameters when it is None. Preparing builds the hops and
        rsi_2 once; no block is propagated until rows are asked for. An
        unknown variant, or ``training`` for a closed-form one, is a
        ConfigError.
        """
        if variant not in _VARIANTS:
            raise ConfigError(f"unknown variant {variant!r}; expected one of {VARIANTS}")
        rap, descent, pin = _VARIANTS[variant]
        if training is not None and not descent:
            raise ConfigError(f"training parameters apply to gradient-descent variants "
                              f"only; {variant} has closed-form weights")
        if pin:
            kind, alphas = pin.normalization, (pin.alphas,)
        return cls(features=dataset._features,
                   propagation=_Propagation.build(dataset.hypergraph, kind, rap=rap),
                   labels=dataset.labels, alphas=alphas,
                   training=(training or TrainingParams()) if descent else None)

    def rows(self, rows=None) -> list[np.ndarray]:
        """The blocks [X, A X, A_2 X] at ``rows``, every row when None."""
        return self.propagation.basis(self.features, rows)

    def scores(self, alphas, W: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """sum_j a_j A_j (X W) at every row; each row's bound on the rounding
        of both it and the row route's scores, sum_j a_j |A_j| (|X| m), where
        m is the largest |W| entry of each feature and |A_j| sums the
        magnitudes of A_j's terms (``_Propagation.absolute``, which shares
        the hops); and the rows where sum_j a_j |A_j| (|X| 1) is 0.0, whose
        mixed row has only zero terms and so is exactly zero. The bound's
        terms are each at least those of any one class's sum with |W| in
        place of m, so it bounds every class's rounding with two columns
        propagated, not c + 1. Row normalization divides a row's scores by a
        positive number, so their argmax is the embedding's."""
        P, Q = _products(self.features, W)
        mix = lambda blocks: sum(a * b for a, b in zip(alphas, blocks) if a)
        bounds = mix(self.propagation.absolute().basis(Q))
        return mix(self.propagation.basis(P)), bounds[:, 0], bounds[:, 1] == 0.0


def _products(X, W: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """X W and |X| [m 1], m the largest |W| entry of each feature's row of
    W, for a dense or CSR X; a dense |X| is formed a row slice at a time."""
    M = np.column_stack([np.abs(W).max(axis=1), np.ones(W.shape[0])])
    if sp.issparse(X):
        return X @ W, abs(X) @ M
    Q = np.empty((X.shape[0], M.shape[1]))
    step = _slice_len(X.itemsize * X.shape[1])
    for start in range(0, X.shape[0], step):
        np.matmul(np.abs(X[start:start + step]), M, out=Q[start:start + step])
    return X @ W, Q


def _mixed_embedding(blocks: list[np.ndarray], alphas) -> np.ndarray:
    """The row-normalized alpha mix of the blocks' rows, every block added,
    zero alphas included. Each row is mixed and normalized on its own."""
    mixed = alphas[0] * blocks[0]
    for a, block in zip(alphas[1:], blocks[1:]):
        mixed += a * block
    return normalize_rows(mixed)


@dataclass(frozen=True)
class _LabeledRows:
    """One split's training and validation rows of every basis block.

    The t training rows come first, then the validation rows, each in
    ascending node order, so the weights see exactly the training rows of
    the full embedding, in the same order. ``Y`` is the one-hot label
    matrix of the same rows.
    """

    blocks: list[np.ndarray]
    t: int
    Y: np.ndarray


def _labeled_rows(run: _Run, split: Split) -> _LabeledRows:
    """The split's labeled rows of ``run``, which propagates only those rows.
    A split with another node count than the run's, or with a class that has
    no training node, is a SplitError."""
    labels = run.labels
    if split.num_nodes != labels.num_nodes:
        raise SplitError(f"split has {split.num_nodes} nodes, the dataset {labels.num_nodes}")
    untrained = np.setdiff1d(np.arange(labels.num_classes), labels.labels[split.train_mask])
    if untrained.size:
        raise SplitError(f"classes with no training node: {untrained.tolist()}")
    rows = np.concatenate([np.flatnonzero(split.train_mask), np.flatnonzero(split.val_mask)])
    return _LabeledRows(blocks=run.rows(rows), t=int(np.count_nonzero(split.train_mask)),
                        Y=np.eye(labels.num_classes)[labels.labels[rows]])


def _eval_config(
    labeled: _LabeledRows,
    alphas: tuple[float, float, float],
    training: TrainingParams | None,
) -> tuple[float, np.ndarray]:
    """Validation accuracy and weights of one configuration: the alphas, and
    weights by descent with ``training`` or, when it is None, the closed form.

    The single evaluation path everywhere: weights come from the training
    rows and only the validation rows are scored. It logs no zero-row
    warning; that fires at most once per seed, from the test scoring of the
    winner.
    """
    Z, t, Y = _mixed_embedding(labeled.blocks, alphas), labeled.t, labeled.Y
    W = _tcs(Z[:t], Y[:t]) if training is None else _descent_weights(Z[:t], Y[:t], training)
    return _accuracy(np.argmax(Z[t:] @ W, axis=1), np.argmax(Y[t:], axis=1)), W


def _select_config(run: _Run, split: Split) -> tuple[int, float, np.ndarray]:
    """Index in ``run.alphas``, validation accuracy and weights of one
    split's winner among the run's alpha triples; the earliest wins ties.

    Descent scores each triple through ``_eval_config`` in grid order, so
    the first ``DivergenceError`` is the one raised. Two or more triples of
    the closed form are screened in Gram form by ``_gram_accuracies``, at
    O(L^2 (d + g c)) per seed, which re-scores through ``_eval_config``
    every configuration whose Gram scores could rank a validation row
    differently: a near tie or a cancelled sum. The winner is evaluated by
    ``_eval_config``, or taken from its re-score, so its accuracy and
    weights are exactly those of any other route through it. A single
    triple has nothing to screen, and its blocks with a zero alpha are left
    out of the mix: they add only signed zeros, so no accuracy changes and
    the weights differ at most in the sign of a zero. A grid's winner mixes
    every block, so the weights ``zen explain`` prints keep those signs. The
    run fixes the triples and the weight route, so a seed passes only its
    split.
    """
    labeled, alphas, training = _labeled_rows(run, split), run.alphas, run.training
    if len(alphas) == 1:
        nonzero, blocks = zip(*[(a, B) for a, B in zip(alphas[0], labeled.blocks) if a])
        return (0, *_eval_config(replace(labeled, blocks=[*blocks]), nonzero, training))
    if training is not None:    # max keeps the first of equal accuracies
        idx, (val_acc, W) = max(enumerate(_eval_config(labeled, a, training) for a in alphas),
                                key=lambda scored: scored[1][0])
        return idx, val_acc, W
    accs, rescored = _gram_accuracies(labeled, alphas)
    best = int(np.argmax(accs))
    if best not in rescored:
        rescored[best] = _eval_config(labeled, alphas[best], None)
    return (best, *rescored[best])


def _gram_accuracies(
    labeled: _LabeledRows, alphas
) -> tuple[np.ndarray, dict[int, tuple[float, np.ndarray]]]:
    """Validation accuracy of every alpha triple's closed-form configuration,
    from one labeled-row Gram, and what ``_eval_config`` returned for each
    configuration it re-scored.

    The labeled rows come training rows first, and the Grams G_jk = B_j B_k^T
    of the blocks are formed once. A configuration's Gram of the
    row-normalized embedding is then K = D^-1 (sum_jk a_j a_k G_jk) D^-1,
    with D the square root of the diagonal and D^-1 zero where it is zero,
    and the configurations are taken in chunks whose K fits one slice. The
    validation scores are K_vt Y / sqrt(diag(Y^T K_tt Y)).

    A configuration is re-scored through ``_eval_config`` when the Gram
    route cannot vouch for its ranks: a validation row that is not
    structurally zero has top-two scores within ``_NEAR_TIE`` of each other,
    or a mixed labeled row or a class's sum of training rows has cancelled
    (``_CANCELLATION``). A row is structurally zero when every block with a
    nonzero alpha is zero on it; both routes give it class 0.
    """
    t, nb, L = labeled.t, len(labeled.blocks), labeled.blocks[0].shape[0]
    G = np.empty((nb, nb, L, L))
    for j in range(nb):
        for k in range(j, nb):
            np.matmul(labeled.blocks[j], labeled.blocks[k].T, out=G[j, k])
            if k > j:
                G[k, j] = G[j, k].T
    nonzero = np.array([block.any(axis=1) for block in labeled.blocks])
    sq_len = np.array([np.diagonal(G[j, j]) for j in range(nb)])
    Y, truth = labeled.Y[:t], np.argmax(labeled.Y[t:], axis=1)
    points = np.asarray(alphas, dtype=np.float64)
    accs, rescored = np.empty(len(points)), {}
    step = _slice_len(G.itemsize * L * L)
    scratch = np.empty((min(step, len(points)), L * L))
    for start in range(0, len(points), step):
        a = points[start:start + step]
        K = np.matmul((a[:, :, None] * a[:, None, :]).reshape(-1, nb * nb),
                      G.reshape(nb * nb, L * L), out=scratch[:a.shape[0]]).reshape(-1, L, L)
        diag = np.diagonal(K, axis1=1, axis2=2).copy()
        # rows that are not structurally zero, and those whose mix cancelled
        live = (a != 0) @ nonzero
        unsure = (live & ~(diag > _CANCELLATION * ((a * a) @ sq_len))).any(axis=1)
        pos = diag > 0
        inv = np.zeros_like(diag)
        inv[pos] = 1.0 / np.sqrt(diag[pos])
        K *= inv[:, :, None]
        K *= inv[:, None, :]
        Ktt, Kvt = K[:, :t, :t], K[:, t:, :t]
        # squared length of each class's sum of training rows, and the count
        # of its nonzero (unit) terms
        colsq = np.einsum("gtc,tc->gc", Ktt @ Y, Y)
        terms = pos[:, :t] @ Y
        unsure |= ((terms > 0) & ~(colsq > _CANCELLATION * terms)).any(axis=1)
        scores = (Kvt @ Y) / np.sqrt(np.where(colsq > 0, colsq, 1.0))[:, None, :]
        if Y.shape[1] > 1:
            ranked = np.sort(scores, axis=2)
            top, second = ranked[..., -1], ranked[..., -2]
            tie = ~(top - second > _NEAR_TIE * np.maximum(1.0, np.abs(top)))
            unsure |= (tie & live[:, t:]).any(axis=1)
        hard = np.argmax(scores, axis=2)
        for i in range(a.shape[0]):
            idx = start + i
            if unsure[i]:
                rescored[idx] = _eval_config(labeled, alphas[idx], None)
                accs[idx] = rescored[idx][0]
            else:
                accs[idx] = _accuracy(hard[i], truth)
    return accs, rescored


def _test_accuracy(run: _Run, alphas, W: np.ndarray, split: Split) -> float:
    """Test accuracy of one configuration's weights, scored through A_j (X W).

    A test row's class is the argmax of its row of ``_Run.scores``. The
    row is unsure when its top two scores are within ``_NEAR_TIE`` times its
    rounding bound, or, with a single class, its score is that near zero:
    there the row route, whose scores differ by a positive factor and by
    rounding, may rank the classes the other way or find a zero row. Unsure
    rows are scored through the row route, their rows of the blocks mixed,
    normalized and multiplied by W, about 2 MiB of rows at a time. A row
    whose mix has only zero terms (``_Run.scores``) predicts class 0 with
    neither. One warning is logged with the count of zero embedding rows.
    """
    rows = np.flatnonzero(split.test_mask)
    truth = run.labels.labels[rows]
    if rows.size == 0:
        return _accuracy(rows, truth)  # raises the empty-mask SplitError
    scores, bound, zero = (v[rows] for v in run.scores(alphas, W))
    if scores.shape[1] > 1:
        ranked = np.sort(scores, axis=1)
        gap = ranked[:, -1] - ranked[:, -2]
    else:
        gap = np.abs(scores[:, 0])
    unsure = np.flatnonzero(~zero & ~(gap > _NEAR_TIE * bound))
    hard_labels = np.argmax(scores, axis=1)
    hard_labels[zero] = 0
    zero_rows = int(np.count_nonzero(zero))
    step = _slice_len(8 * run.features.shape[1])     # float64 rows of a block
    for start in range(0, unsure.size, step):
        block = unsure[start:start + step]
        Z = _mixed_embedding(run.rows(rows[block]), alphas)
        zero_rows += _zero_rows(Z)
        hard_labels[block] = np.argmax(Z @ W, axis=1)
    _warn_zero_rows(zero_rows)
    return _accuracy(hard_labels, truth)


def run_config(
    dataset: Dataset,
    config: PropagationConfig,
    split: Split,
    variant: str = "full",
    training: TrainingParams | None = None,
) -> tuple[float, float]:
    """Validation and test accuracy of one configuration under one split.

    The variant picks the propagation route (redundancy-removed hops for
    full/no_tcs, plain normalization otherwise) and the weight route (closed
    form for full/no_rap, which refuse ``training`` with a ConfigError,
    gradient descent with ``training`` otherwise). config.alphas and
    config.normalization are honored, except by a pinned variant:
    linearized_hgnn runs at its own (0, 0, 1) on the symmetric hop. The run
    is prepared with the one triple, a one-point grid, so the configuration
    scores exactly as in ``grid_search``. A split with another node count
    than the dataset's is a SplitError.
    """
    run = _Run.prepare(dataset, variant, config.normalization, (config.alphas,), training)
    _, val_acc, W = _select_config(run, split)
    return val_acc, _test_accuracy(run, run.alphas[0], W, split)


@dataclass(frozen=True)
class SeedResult:
    seed: int
    selected_alphas: tuple[float, float, float]
    val_acc: float
    test_acc: float


@dataclass(frozen=True)
class RunResult:
    """Grid-search outcome: one selected configuration per seed plus aggregates."""

    dataset: str
    k: int
    variant: str
    grid_denominator: int
    seeds: tuple[int, ...]
    per_seed: tuple[SeedResult, ...]
    mean_test: float
    std_test: float
    timing_ms: dict

    def to_json(self, include_timing: bool = False) -> str:
        """Serialize the fields in declaration order; timing is null unless
        asked for, so identical runs serialize to identical bytes."""
        payload = asdict(self)
        if not include_timing:
            payload["timing_ms"] = None
        return json.dumps(payload, indent=2) + "\n"


def grid_search(
    dataset: Dataset,
    grid: SimplexGrid,
    k: int,
    seeds,
    variant: str = "full",
    normalization: NormalizationKind = NormalizationKind.SYMMETRIC,
    training: TrainingParams | None = None,
) -> RunResult:
    """Best-validation selection over the grid, independently per seed.

    Every configuration is evaluated for every seed on the split's labeled
    rows alone: weights from the training rows, accuracy on the validation
    rows. Within a seed the configuration with the highest validation
    accuracy wins, earliest first on ties, and only the winner is scored on
    the test rows, once per seed. A pinned variant (linearized_hgnn) runs its
    one configuration instead of the grid. The reported spread is the sample
    standard deviation (ddof=1) over seeds, or 0.0 for a single seed. ``k``
    and every seed are checked before the propagation is prepared, so a bad
    one fails before any work is done. ``training`` is for descent variants
    only; a closed-form one refuses it with a ConfigError.

    The work runs in three phases, and ``timing_ms`` times each as one span,
    so the three add up to the wall time: ``propagation_ms`` prepares the
    propagation once (the hops, the rsi diagonals), ``search_ms`` draws
    every seed's split, propagates its labeled rows and screens the grid,
    and ``test_ms`` then propagates every winner's scores and re-scores its
    unsure test rows.
    """
    seeds = tuple(seeds)
    if len(grid) == 0 or len(seeds) == 0:
        raise ConfigError("grid and seeds must both be nonempty")
    _check_split_args(k, seeds)
    seeds = tuple(int(s) for s in seeds)
    start = time.perf_counter()
    run = _Run.prepare(dataset, variant, normalization, grid.alphas, training)
    prepared = time.perf_counter()
    splits = [make_kshot_split(dataset.labels, k, seed) for seed in seeds]
    winners = [_select_config(run, split) for split in splits]
    searched = time.perf_counter()
    per_seed = [
        SeedResult(seed=seed, selected_alphas=run.alphas[idx], val_acc=val_acc,
                   test_acc=_test_accuracy(run, run.alphas[idx], W, split))
        for seed, split, (idx, val_acc, W) in zip(seeds, splits, winners)
    ]
    scored = time.perf_counter()
    timing = {"propagation_ms": (prepared - start) * 1e3,
              "search_ms": (searched - prepared) * 1e3,
              "test_ms": (scored - searched) * 1e3}
    tests = np.array([r.test_acc for r in per_seed], dtype=np.float64)
    std = float(np.std(tests, ddof=1)) if tests.size > 1 else 0.0
    return RunResult(
        dataset=dataset.name,
        k=int(k),
        variant=variant,
        grid_denominator=grid.denominator,
        seeds=seeds,
        per_seed=tuple(per_seed),
        mean_test=float(tests.mean()),
        std_test=std,
        timing_ms=timing,
    )


@dataclass(frozen=True)
class WeightReport:
    """Weight matrix entries with per-feature ranks across classes.

    ranks[i, j] = 1 means class j has the largest weight in feature i's row
    (ties go to the lower class id), mirroring how shaded importance tables
    are read row by row.
    """

    values: np.ndarray
    feature_names: tuple[str, ...]
    class_names: tuple[str, ...]
    ranks: np.ndarray

    def to_csv(self) -> str:
        import csv as _csv
        import io
        buf = io.StringIO()
        writer = _csv.writer(buf, lineterminator="\n")
        writer.writerow(["feature", *self.class_names])
        for i, name in enumerate(self.feature_names):
            writer.writerow([name, *[repr(float(v)) for v in self.values[i]]])
        return buf.getvalue()

    def to_json(self) -> str:
        payload = {
            "features": list(self.feature_names),
            "classes": list(self.class_names),
            "values": self.values.tolist(),
            "ranks": self.ranks.tolist(),
        }
        return json.dumps(payload, indent=2) + "\n"


def explain_weights(
    W: np.ndarray,
    feature_names=None,
    class_names=None,
) -> WeightReport:
    """Tabulate a (features x classes) weight matrix as an importance report.

    Missing name lists fall back to generic f0.., c0..; provided lists must
    match the matrix dimensions.
    """
    W = np.asarray(W, dtype=np.float64)
    if W.ndim != 2:
        raise DatasetError(f"weight matrix must be 2-d, got shape {W.shape}")
    d, c = W.shape
    feature_names = _names(feature_names, "f", d, "feature names for {} rows")
    class_names = _names(class_names, "c", c, "class names for {} columns")
    # each row's ranks invert its stable order, so ties go to the lower class id
    ranks = np.argsort(np.argsort(-W, axis=1, kind="stable"), axis=1) + 1
    return WeightReport(values=W.copy(), feature_names=feature_names,
                        class_names=class_names, ranks=ranks)


def _names(names, prefix: str, count: int, mismatch: str) -> tuple[str, ...]:
    """``names`` as strings, or prefix0.. when None. Any other count than
    ``count`` is a DatasetError, "{len} " + ``mismatch`` filled with ``count``."""
    if names is None:
        return tuple(f"{prefix}{i}" for i in range(count))
    names = tuple(str(s) for s in names)
    if len(names) != count:
        raise DatasetError(f"{len(names)} " + mismatch.format(count))
    return names
