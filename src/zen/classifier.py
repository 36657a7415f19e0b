"""Training-free linear classification on propagated features.

The pipeline is: propagate raw features, length-normalize each node's row,
then form class weight vectors directly from the labeled rows (class-mean
style, column-normalized) instead of running an optimizer. Two reference
routes exist alongside the closed form: the exact minimum-norm least-squares
solution via pseudoinverse, and plain gradient descent on the squared error.
They are kept separate so each can check the others. Descent runs in dual
form, the one loop ``_descend`` that the selection screen in ``harness`` runs.
Scoring is not here: ``harness`` takes the argmax of Z W itself, and an exact
tie goes to the lower class id.

Also here: the spectral machinery that bounds how far the closed-form weights
can drift from the exact solution in the idealized geometry (unit-length
embeddings with intra-class dot 1-eps and inter-class dot eps), and a
generator producing synthetic datasets that satisfy that geometry to machine
precision.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from numbers import Real

import numpy as np

from .errors import ConfigError, DivergenceError, GuardError, SplitError, check_count
from .hypergraph import LabelSet
from .sparsetools import check_guard

logger = logging.getLogger(__name__)

DIVERGENCE_LIMIT = 1e10
PINV_RCOND = 1e-10
EXACT_GUARD = 8192


def normalize_rows(M: np.ndarray) -> np.ndarray:
    """Scale each row to unit Euclidean length; all-zero rows stay zero."""
    M = np.asarray(M, dtype=np.float64)
    norms = np.linalg.norm(M, axis=1, keepdims=True)
    safe = np.where(norms > 0, norms, 1.0)
    return M / safe


@dataclass(frozen=True)
class Split:
    """Boolean node masks for train/validation/test; pairwise disjoint."""

    train_mask: np.ndarray
    val_mask: np.ndarray
    test_mask: np.ndarray

    def __post_init__(self):
        for name in ("train_mask", "val_mask", "test_mask"):
            arr = np.asarray(getattr(self, name), dtype=bool)
            object.__setattr__(self, name, arr)
        n = self.train_mask.shape[0]
        if self.val_mask.shape[0] != n or self.test_mask.shape[0] != n:
            raise SplitError("masks must have equal length")
        overlap = (self.train_mask & self.val_mask) | (self.train_mask & self.test_mask) \
            | (self.val_mask & self.test_mask)
        if overlap.any():
            raise SplitError(f"masks overlap at {int(overlap.sum())} node(s)")

    @property
    def num_nodes(self) -> int:
        return self.train_mask.shape[0]


def _zero_rows(Z: np.ndarray) -> int:
    """Number of all-zero rows of Z."""
    return int(np.count_nonzero(~Z.any(axis=1)))


def _warn_zero_rows(count: int) -> None:
    """The one warning for ``count`` zero embedding rows, if there are any."""
    if count:
        logger.warning("%d zero embedding row(s); they predict class 0", count)


def _train_rows(Z: np.ndarray, split: Split, labels: LabelSet) -> tuple[np.ndarray, np.ndarray]:
    Z = np.asarray(Z, dtype=np.float64)
    if Z.shape[0] != split.num_nodes or labels.num_nodes != split.num_nodes:
        raise SplitError(
            f"inconsistent sizes: Z has {Z.shape[0]} rows, split {split.num_nodes}, "
            f"labels {labels.num_nodes}"
        )
    counts = np.bincount(labels.labels[split.train_mask], minlength=labels.num_classes)
    empty = np.flatnonzero(counts == 0)
    if empty.size:
        raise SplitError(f"classes with no training node: {empty.tolist()}")
    return Z[split.train_mask], labels.one_hot()[split.train_mask]


def tcs_weights(Z: np.ndarray, split: Split, labels: LabelSet) -> np.ndarray:
    """Closed-form class weights: column-normalized sum of each class's training rows.

    W = colnorm(Z_train^T Y_train), shape (d, num_classes). Column j is the
    unit vector pointing at the mean direction of class j's training
    embeddings; no scale factor is kept because argmax scoring ignores it.
    With nonnegative embeddings the weights are nonnegative.
    """
    Zt, Yt = _train_rows(Z, split, labels)
    W = Zt.T @ Yt
    norms = np.linalg.norm(W, axis=0)
    return W / np.where(norms > 0, norms, 1.0)


def exact_weights(Z: np.ndarray, split: Split, labels: LabelSet) -> np.ndarray:
    """Minimum-norm least-squares weights via SVD pseudoinverse.

    Solves min_W ||Z_train W - Y_train||_F restricted to the training rows and
    returns the minimum-Frobenius-norm solution pinv(Z_train) @ Y_train.
    Singular values below 1e-10 times the largest are treated as zero. Dense
    SVD on a (train, d) matrix; refused above ``EXACT_GUARD`` columns.
    """
    Zt, Yt = _train_rows(Z, split, labels)
    if Zt.shape[1] > EXACT_GUARD:
        raise GuardError(f"exact solve on {Zt.shape[1]} feature columns exceeds "
                         f"the guard ({EXACT_GUARD})")
    return np.linalg.pinv(Zt, rcond=PINV_RCOND) @ Yt


@dataclass(frozen=True)
class TrainingParams:
    """Step size and iteration budget for the gradient-descent reference route.

    ``lr`` is a positive finite real number (a bool is not one), or None,
    which picks 1/(2 * train_rows), safe for unit-length rows because the
    Hessian's largest eigenvalue is then at most 2 * train_rows.
    """

    lr: float | None = None
    epochs: int = 500

    def __post_init__(self):
        lr = self.lr
        if lr is not None and (isinstance(lr, bool) or not isinstance(lr, Real)
                               or not 0 < lr < np.inf):
            raise ConfigError(f"lr must be positive and finite, got {lr!r}")
        check_count("epochs", self.epochs)


def _descend(K, Y, params: TrainingParams, limit: float = DIVERGENCE_LIMIT):
    """Dual gradient descent C <- C - 2 lr (K C - Y) from zero on each training
    Gram K = Z_t Z_t^T of a (g, t, t) stack; W = Z_t^T C is then the primal
    iterate W <- W - 2 lr Z_t^T (Z_t W - Y). Returns C, and per Gram the first
    epoch whose loss ||K C - Y||^2 was not finite or above ``limit`` (-1 if
    none) with that loss; a Gram stops there.
    """
    lr = params.lr if params.lr is not None else 0.5 / max(1, Y.shape[0])
    C = np.zeros((K.shape[0],) + Y.shape)
    diverged, loss = np.full(K.shape[0], -1), np.zeros(K.shape[0])
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(params.epochs):
            R = K @ C - Y
            sq = np.einsum("gtc,gtc->g", R, R)
            over = ~(sq <= limit)
            # a stopped Gram keeps its C, so its loss stays over the limit
            if over.any():
                new = over & (diverged < 0)
                diverged[new], loss[new] = epoch, sq[new]
                if over.all():
                    break
                R[over] = 0.0
            C -= (2.0 * lr) * R
    return C, diverged, loss


def train_weights_gd(
    Z: np.ndarray,
    split: Split,
    labels: LabelSet,
    params: TrainingParams = TrainingParams(),
) -> np.ndarray:
    """Full-batch gradient descent on the squared error from zero initialization.

    Runs ``_descend`` on Z_t Z_t^T in O(t^2 (d + e c)) for t training rows, d
    columns, e epochs and c classes. Deterministic given its inputs; raises if
    the loss leaves the sane regime (step too large for Z_train's spectrum).
    """
    Zt, Yt = _train_rows(Z, split, labels)
    C, diverged, loss = _descend((Zt @ Zt.T)[None], Yt, params)
    if diverged[0] >= 0:
        raise DivergenceError(f"training diverged at epoch {diverged[0]} "
                              f"(loss {float(loss[0])!r}); lower the step size")
    return Zt.T @ C[0]


@dataclass(frozen=True)
class SpectralComponents:
    """Eigenstructure of the idealized training Gram matrix.

    For k labeled nodes in each of c classes whose unit embeddings have
    intra-class dot 1-eps and inter-class dot eps, the (kc, kc) Gram matrix
    has exactly three eigenvalues; the matching orthogonal projectors are
    assembled on demand (kc is guarded by the dense size limit).
    """

    epsilon: float
    k: int
    c: int

    def __post_init__(self):
        if not (0.0 < self.epsilon < 0.5):
            raise ConfigError(f"epsilon must lie in (0, 0.5), got {self.epsilon!r}")
        check_count("k", self.k)
        check_count("c", self.c)

    @property
    def lambda1(self) -> float:
        """Within-class contrast eigenvalue (multiplicity kc - c)."""
        return self.epsilon

    @property
    def lambda2(self) -> float:
        """Between-class contrast eigenvalue (multiplicity c - 1)."""
        return (1.0 - 2.0 * self.epsilon) * self.k + self.epsilon

    @property
    def lambda3(self) -> float:
        """Global-mean eigenvalue (multiplicity 1)."""
        return self.k * (1.0 - 2.0 * self.epsilon + self.epsilon * self.c) + self.epsilon

    def _block_mean(self) -> np.ndarray:
        # (1/k) I_c (x) J_k: averaging within each class block
        return np.kron(np.eye(self.c), np.full((self.k, self.k), 1.0 / self.k))

    def m1(self) -> np.ndarray:
        check_guard(self.k * self.c, "spectral projector")
        return np.eye(self.k * self.c) - self._block_mean()

    def m2(self) -> np.ndarray:
        check_guard(self.k * self.c, "spectral projector")
        kc = self.k * self.c
        return self._block_mean() - np.full((kc, kc), 1.0 / kc)

    def m3(self) -> np.ndarray:
        check_guard(self.k * self.c, "spectral projector")
        kc = self.k * self.c
        return np.full((kc, kc), 1.0 / kc)


def tcs_error_bound(epsilon: float, k: int, c: int) -> float:
    """Relative gap, in percent, between the closed-form and exact weights
    in the idealized geometry.

    Compares sum_i lambda_i^{-2} M_i (the exact inverse-squared Gram) against
    (1/eps) sum_i lambda_i^{-1} M_i (the scaled inverse the closed form
    effectively applies) in Frobenius norm, relative to the former. The M_i
    are orthogonal projectors of ranks kc - c, c - 1 and 1, so the norms are
    sqrt(sum_i coef_i^2 rank_i) and no kc x kc matrix is formed. The eps
    eigenvalue's coefficient in the gap is exactly zero.
    """
    comps = SpectralComponents(epsilon=epsilon, k=k, c=c)
    inv = 1.0 / np.array([comps.lambda1, comps.lambda2, comps.lambda3])
    ranks = np.array([k * c - c, c - 1, 1.0])
    gap = inv * (inv - 1.0 / comps.epsilon)
    return 100.0 * float(np.sqrt(ranks @ gap**2 / (ranks @ inv**4)))


def make_assumption_data(
    n: int, c: int, epsilon: float, seed: int = 0
) -> tuple[np.ndarray, LabelSet]:
    """Synthetic embeddings satisfying the idealized geometry to machine precision.

    Produces n unit-length rows in dimension n + c + 1 with balanced class
    sizes, intra-class dot exactly 1-eps, and inter-class dot exactly eps
    (up to rotation roundoff ~1e-14). Construction: class directions share a
    common component so they meet at angle arccos(eps/(1-eps)), each node adds
    its own orthogonal noise direction with weight sqrt(eps).
    """
    if not (0.0 < epsilon < 0.5):
        raise ConfigError(f"epsilon must lie in (0, 0.5), got {epsilon!r}")
    if c < 1 or n < c:
        raise ConfigError(f"need n >= c >= 1, got n={n}, c={c}")
    rng = np.random.Generator(np.random.Philox(key=seed))
    labels = rng.permutation(np.arange(n, dtype=np.int64) % c)
    d = n + c + 1
    delta = epsilon / (1.0 - epsilon)
    U = np.zeros((c, d), dtype=np.float64)
    U[:, :c] = np.sqrt(1.0 - delta) * np.eye(c)
    U[:, c] = np.sqrt(delta)
    Z = np.sqrt(1.0 - epsilon) * U[labels]
    Z[np.arange(n), c + 1 + np.arange(n)] = np.sqrt(epsilon)
    Q, _ = np.linalg.qr(rng.normal(size=(d, d)))
    Z = Z @ Q
    return Z, LabelSet(labels=labels, num_classes=c)
