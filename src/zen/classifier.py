"""Training-free linear classification on propagated features.

The pipeline is: propagate raw features, length-normalize each node's row,
then form class weight vectors directly from the labeled rows (class-mean
style, column-normalized) instead of running an optimizer. Two reference
routes exist alongside the closed form: the exact minimum-norm least-squares
solution via pseudoinverse, and plain gradient descent on the squared error.
They are kept separate so each can check the others.

Also here: the spectral machinery that bounds how far the closed-form weights
can drift from the exact solution in the idealized geometry (unit-length
embeddings with intra-class dot 1-eps and inter-class dot eps), and a
generator producing synthetic datasets that satisfy that geometry to machine
precision.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DivergenceError, GuardError, SplitError
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


def normalize_cols(M: np.ndarray) -> np.ndarray:
    """Scale each column to unit Euclidean length; all-zero columns stay zero."""
    M = np.asarray(M, dtype=np.float64)
    norms = np.linalg.norm(M, axis=0, keepdims=True)
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


@dataclass(frozen=True)
class Prediction:
    """Per-node class scores plus the argmax labels (ties go to the lower id)."""

    scores: np.ndarray
    hard_labels: np.ndarray

    @classmethod
    def from_scores(cls, scores: np.ndarray) -> "Prediction":
        scores = np.asarray(scores, dtype=np.float64)
        return cls(scores=scores, hard_labels=np.argmax(scores, axis=1))


def predict(Z: np.ndarray, W: np.ndarray) -> Prediction:
    """Score every node as Z @ W and take the argmax class.

    Zero embedding rows score 0 everywhere and therefore land in class 0;
    when that happens a warning is logged with the count.
    """
    Z = np.asarray(Z, dtype=np.float64)
    W = np.asarray(W, dtype=np.float64)
    if Z.shape[1] != W.shape[0]:
        raise ConfigError(f"shape mismatch: Z is {Z.shape}, W is {W.shape}")
    _warn_zero_rows(_zero_rows(Z))
    return Prediction.from_scores(Z @ W)


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
    return normalize_cols(Zt.T @ Yt)


def exact_weights(
    Z: np.ndarray, split: Split, labels: LabelSet, guard: int = EXACT_GUARD
) -> np.ndarray:
    """Minimum-norm least-squares weights via SVD pseudoinverse.

    Solves min_W ||Z_train W - Y_train||_F restricted to the training rows and
    returns the minimum-Frobenius-norm solution pinv(Z_train) @ Y_train.
    Singular values below 1e-10 times the largest are treated as zero. Dense
    SVD on a (train, d) matrix; refused above ``guard`` columns.
    """
    Zt, Yt = _train_rows(Z, split, labels)
    if Zt.shape[1] > guard:
        raise GuardError(
            f"exact solve on {Zt.shape[1]} feature columns exceeds the guard ({guard})"
        )
    return np.linalg.pinv(Zt, rcond=PINV_RCOND) @ Yt


def sse_loss(Z: np.ndarray, split: Split, labels: LabelSet, W: np.ndarray) -> float:
    """Squared-error objective over the training rows: ||Z_t W - Y_t||_F^2."""
    Zt, Yt = _train_rows(Z, split, labels)
    R = Zt @ W - Yt
    return float(np.sum(R * R))


def sse_gradient(Z: np.ndarray, split: Split, labels: LabelSet, W: np.ndarray) -> np.ndarray:
    """Gradient of :func:`sse_loss` in W: 2 Z_t^T (Z_t W - Y_t)."""
    Zt, Yt = _train_rows(Z, split, labels)
    return 2.0 * Zt.T @ (Zt @ W - Yt)


@dataclass(frozen=True)
class TrainingParams:
    """Step size and iteration budget for the gradient-descent reference route.

    ``lr=None`` picks 1/(2 * train_rows), safe for unit-length rows because
    the Hessian's largest eigenvalue is then at most 2 * train_rows.
    """

    lr: float | None = None
    epochs: int = 500

    def __post_init__(self):
        if self.lr is not None and not (self.lr > 0):
            raise ConfigError(f"lr must be positive, got {self.lr!r}")
        if not isinstance(self.epochs, (int, np.integer)) or self.epochs < 1:
            raise ConfigError(f"epochs must be a positive integer, got {self.epochs!r}")


def _step_size(params: TrainingParams, train_rows: int) -> float:
    """The descent step size ``params`` gives for ``train_rows`` training rows."""
    return params.lr if params.lr is not None else 0.5 / max(1, train_rows)


def train_weights_gd(
    Z: np.ndarray,
    split: Split,
    labels: LabelSet,
    params: TrainingParams = TrainingParams(),
) -> np.ndarray:
    """Full-batch gradient descent on the squared error from zero initialization.

    Deterministic given its inputs. Raises if the loss leaves the sane regime
    (step size too large for the spectrum of Z_train).
    """
    Zt, Yt = _train_rows(Z, split, labels)
    lr = _step_size(params, Zt.shape[0])
    W = np.zeros((Zt.shape[1], Yt.shape[1]), dtype=np.float64)
    for epoch in range(params.epochs):
        R = Zt @ W - Yt
        loss = float(np.sum(R * R))
        if not np.isfinite(loss) or loss > DIVERGENCE_LIMIT:
            raise DivergenceError(
                f"training diverged at epoch {epoch} (loss {loss!r}); lower the step size"
            )
        W -= lr * (2.0 * Zt.T @ R)
    return W


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
        for name in ("k", "c"):
            v = getattr(self, name)
            if not isinstance(v, (int, np.integer)) or v < 1:
                raise ConfigError(f"{name} must be a positive integer, got {v!r}")

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
    effectively applies) in Frobenius norm, relative to the former. The
    leading eigenvalue equals eps, so its projector cancels identically and
    only the two low-rank components contribute to the gap.
    """
    comps = SpectralComponents(epsilon=epsilon, k=k, c=c)
    lams = (comps.lambda1, comps.lambda2, comps.lambda3)
    mats = (comps.m1(), comps.m2(), comps.m3())
    inv_eps = 1.0 / comps.epsilon
    target = sum((1.0 / lam) ** 2 * M for lam, M in zip(lams, mats))
    # coefficient of each projector in (target - approx), written so the
    # lambda1 = eps term is exactly zero in floating point
    gap = sum((1.0 / lam) * ((1.0 / lam) - inv_eps) * M for lam, M in zip(lams, mats))
    return 100.0 * float(np.linalg.norm(gap) / np.linalg.norm(target))


def make_assumption_data(
    n: int, c: int, epsilon: float, seed: int = 0, rotate: bool = True
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
    if rotate:
        Q, _ = np.linalg.qr(rng.normal(size=(d, d)))
        Z = Z @ Q
    return Z, LabelSet(labels=labels, num_classes=c)
