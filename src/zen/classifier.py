"""Training-free linear classification on propagated features.

The pipeline is: propagate raw features, length-normalize each node's row,
then form class weight vectors directly from the labeled rows (class-mean
style, column-normalized) instead of running an optimizer. Two reference
routes exist alongside the closed form: the exact minimum-norm least-squares
solution via pseudoinverse, and plain gradient descent on the squared error.
They are kept separate so each can check the others. Descent from zero with
a fixed step has a closed form too, through one eigendecomposition of the
training Gram, so no route here iterates over epochs. Scoring is not here:
``harness`` takes the argmax of Z W itself, and an exact tie goes to the
lower class id.

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
    return Z[split.train_mask], np.eye(labels.num_classes)[labels.labels[split.train_mask]]


def tcs_weights(Z: np.ndarray, split: Split, labels: LabelSet) -> np.ndarray:
    """Closed-form class weights: column-normalized sum of each class's training rows.

    W = colnorm(Z_train^T Y_train), shape (d, num_classes). Column j is the
    unit vector pointing at the mean direction of class j's training
    embeddings; no scale factor is kept because argmax scoring ignores it.
    With nonnegative embeddings the weights are nonnegative.
    """
    return _tcs(*_train_rows(Z, split, labels))


def _tcs(Zt: np.ndarray, Yt: np.ndarray) -> np.ndarray:
    """colnorm(Zt^T Yt) for training rows Zt and their one-hot labels Yt."""
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
    """Step size and epoch count of the gradient-descent reference route.

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


def _power_minus_one(s: np.ndarray, k: float) -> np.ndarray:
    """(1 - s)^k - 1 for each s, through expm1 and log1p where s < 1/2: there
    (1 - s)^k may round to 1, and the difference would lose its digits. The
    log1p branch is not finite from s = 1 on, where it is not read."""
    with np.errstate(all="ignore"):
        return np.where(s < 0.5, np.expm1(k * np.log1p(-s)), (1.0 - s) ** k - 1.0)


def _descent_weights(Zt: np.ndarray, Yt: np.ndarray, params: TrainingParams) -> np.ndarray:
    """Full-batch gradient descent on the squared error from zero initialization,
    for training rows Zt and their one-hot labels Yt, in closed form.

    With Zt Zt^T = V diag(lam) V^T, P = V^T Yt and s = 2 lr lam, e epochs of
    W <- W - 2 lr Zt^T (Zt W - Yt) give W = Zt^T V (f P), where
    f = (1 - (1 - s)^e) / lam, and 2 lr e where lam is 0. One ``eigh`` costs
    O(t^2 (d + t)) for t training rows and d columns, whatever e. The loss
    before epoch k's update, k = 0 .. e - 1, is sum (1 - s)^(2k) |P|^2 over
    the modes: convex in k and |Yt|^2 = t at k = 0, so it stays within
    ``DIVERGENCE_LIMIT`` at every epoch if it does at epoch e - 1. Otherwise
    a bisection finds the first epoch whose loss is above the limit or not
    finite, and a DivergenceError names it, as stepping epoch by epoch would:
    the step is too large for Zt's spectrum.
    """
    lr = params.lr if params.lr is not None else 0.5 / max(1, Yt.shape[0])
    lam, V = np.linalg.eigh(Zt @ Zt.T)
    s, P = 2.0 * lr * lam, V.T @ Yt
    sq = np.einsum("tc,tc->t", P, P)
    loss = lambda k: float(sq @ (_power_minus_one(s, 2.0 * k) + 1.0))
    within, over = 0, params.epochs - 1
    if not loss(over) <= DIVERGENCE_LIMIT:
        while over - within > 1:
            mid = (within + over) // 2
            within, over = (mid, over) if loss(mid) <= DIVERGENCE_LIMIT else (within, mid)
        raise DivergenceError(f"training diverged at epoch {over} "
                              f"(loss {loss(over)!r}); lower the step size")
    with np.errstate(divide="ignore", invalid="ignore"):
        f = np.where(lam == 0, 2.0 * lr * params.epochs,
                     -_power_minus_one(s, float(params.epochs)) / lam)
    return Zt.T @ (V @ (f[:, None] * P))


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
