"""Independent reference for the benchmark's correctness checks.

Built from the generator's own edge lists with numpy and scipy.sparse only;
nothing here imports the package under test. It computes the diagonal-free
one-hop operator A1*, the two-hop product without forming A2* (the
matrix-free identity A2*·X = A1*·(m ⊙ A1*·X) − rsi₂ ⊙ X with m = d/(d−1)),
both closed-form diagonals, exact two-step walk return probabilities, and
the closed-form classifier scored on labeled rows only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp


def incidence(num_nodes: int, edges) -> sp.csr_matrix:
    """0/1 node-by-edge matrix; members of each edge are already distinct."""
    rows = np.fromiter((v for e in edges for v in e), dtype=np.int64)
    cols = np.repeat(np.arange(len(edges)), [len(e) for e in edges])
    return sp.csr_matrix((np.ones(rows.size), (rows, cols)),
                         shape=(num_nodes, len(edges)))


def _inv(v: np.ndarray, where: np.ndarray) -> np.ndarray:
    out = np.zeros(v.shape)
    np.divide(1.0, v, out=out, where=where)
    return out


@dataclass(frozen=True)
class Operators:
    a1: sp.csr_matrix       # diagonal-free symmetric one-hop matrix
    mid: np.ndarray         # d/(d-1) for degree >= 2, else 0
    rsi1: np.ndarray
    rsi2: np.ndarray
    walk: sp.csr_matrix     # row-stochastic edge-then-member walk matrix

    def two_hop(self, X: np.ndarray) -> np.ndarray:
        """A2*·X without materializing A2*."""
        return self.a1 @ (self.mid[:, None] * (self.a1 @ X)) - self.rsi2[:, None] * X

    def basis(self, X: np.ndarray) -> list[np.ndarray]:
        return [X, self.a1 @ X, self.two_hop(X)]

    def walk_return_2(self) -> np.ndarray:
        """Exact two-step return probability: sum_k W[i,k] W[k,i]."""
        return np.asarray(self.walk.multiply(self.walk.T).sum(axis=1)).ravel()

    def two_hop_offdiag_norm(self, nodes: np.ndarray) -> np.ndarray:
        """sqrt(sum_{j != i} A2hat[i,j]^2) for the given rows, A2hat = A1* M A1*.

        This is the standard deviation of one sign probe's estimate of
        A2hat[i,i], and sets the Hutchinson tolerance.
        """
        rows = (self.a1[nodes] @ sp.diags(self.mid) @ self.a1).tocsr()
        sq = np.asarray(rows.multiply(rows).sum(axis=1)).ravel()
        diag = np.asarray(rows[np.arange(len(nodes)), nodes]).ravel()
        return np.sqrt(np.maximum(sq - diag * diag, 0.0))


def operators(num_nodes: int, edges) -> Operators:
    H = incidence(num_nodes, edges)
    d = np.asarray(H.sum(axis=1)).ravel()
    s = np.asarray(H.sum(axis=0)).ravel()
    w = _inv(s - 1.0, s >= 2)                  # singletons propagate nothing
    isd = np.zeros(num_nodes)
    isd[d > 0] = 1.0 / np.sqrt(d[d > 0])
    A = (sp.diags(isd) @ H @ sp.diags(w) @ H.T @ sp.diags(isd)).tocsr()
    rsi1 = _inv(d, d > 0) * (H @ w)            # closed form: d^-1 sum 1/(|e|-1)
    A.setdiag(0.0)
    A.eliminate_zeros()
    mid = np.zeros(num_nodes)
    np.divide(d, d - 1.0, out=mid, where=d >= 2)
    rsi2 = np.asarray(A.multiply(A.T) @ mid).ravel()
    walk = (sp.diags(_inv(d, d > 0)) @ H @ sp.diags(1.0 / s) @ H.T).tocsr()
    return Operators(a1=A, mid=mid, rsi1=rsi1, rsi2=rsi2, walk=walk)


def lattice(q: int) -> list[tuple[float, float, float]]:
    """The (q+1)(q+2)/2 simplex points (a/q, b/q, c/q), lexicographic in (a, b)."""
    return [(a / q, b / q, (q - a - b) / q) for a in range(q + 1) for b in range(q - a + 1)]


def _unit_rows(M: np.ndarray) -> np.ndarray:
    n = np.sqrt((M * M).sum(axis=1, keepdims=True))
    return M / np.where(n > 0, n, 1.0)


def _unit_cols(M: np.ndarray) -> np.ndarray:
    n = np.sqrt((M * M).sum(axis=0, keepdims=True))
    return M / np.where(n > 0, n, 1.0)


def _accuracy(basis, alphas, labels, classes, train, rows) -> float:
    """Closed-form class weights from the train rows, accuracy on ``rows``."""
    def mixed(idx):
        return _unit_rows(sum(a * b[idx] for a, b in zip(alphas, basis)))

    Zt = mixed(train)
    Y = np.zeros((train.size, classes))
    Y[np.arange(train.size), labels[train]] = 1.0
    W = _unit_cols(Zt.T @ Y)
    pred = np.argmax(mixed(rows) @ W, axis=1)
    return float(np.mean(pred == labels[rows]))


def val_accuracies(basis, labels, classes, train, val, grid) -> np.ndarray:
    """Validation accuracy of every lattice point for one split."""
    return np.array([_accuracy(basis, a, labels, classes, train, val) for a in grid])


def test_accuracy(basis, labels, classes, train, test, alphas) -> float:
    return _accuracy(basis, alphas, labels, classes, train, test)
