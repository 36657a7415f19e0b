"""Normalized hop adjacencies for linear hypergraph propagation.

Redundancy-aware propagation (RAP) is one switch, ``rap``, through one hop
builder and one propagation routine:

* ``_hop(hg, kind, rap)`` builds D H diag(w) H^T D over the stored incidence
  H, with D = D_v^{-1/2} on both sides (``sym``) or D_v^{-1} on the left
  (``row``). With ``rap`` the edge weights are w = 1/(size - 1), so each
  node's incoming mass excludes its own contribution inside every shared
  edge, and the diagonal is zeroed before the one ``compact`` drops it, so
  only information from other nodes flows: that is ``build_A1_star``.
  Without it w = 1/size and the diagonal stays: the standard HGNN and
  AllDeepSets forms of ``plain_adjacency``, which the ablation variants
  propagate with.
* ``rsi_diag_1`` / ``rsi_diag_2``: the redundant self-information, the exact
  diagonal mass a node propagates back to itself after one or two hops.
* ``propagated_basis(hg, X, kind, rap)``: the blocks [X, A X, A_2 X] the
  mixing weights combine. With ``rap``, A = A1* and the two-hop matrix
  A2* = A1* diag(d/(d-1)) A1* - diag(rsi_2) is never formed: its product
  with X is A1* (m * (A1* X)) - rsi_2 * X, two sparse-times-dense products
  and the closed-form diagonal. Without it, A is the plain form and the
  two-hop block is A (A X). The two-hop block is filled in column slices of
  about 2 MiB of scratch, so beside X only the two kept n x d blocks are
  allocated. Each output column of a CSR times dense product is summed on
  its own and the elementwise steps are exact, so the slices give the
  whole-matrix expression bit for bit.

Sparse features (bag-of-words X is often about 1% nonzero) take a sparse
first hop: X is copied to CSR once, A X is a CSR times CSR product, and
rsi_2 * X is subtracted at X's nonzeros only. The layout is chosen from X's
measured density alone (``_sparse_enough``); denser X stays dense.

Both routes give the same bits. Each entry of A X is summed over the row's
stored hop entries in the same order either way, the CSR route only skipping
X's zeros. Every stored hop entry is positive, so each skipped term is +0.0
or -0.0; the running sum starts at +0.0, so it is never -0.0, and adding a
zero of either sign leaves it unchanged. For the same reason the two-hop
sums are unchanged by subtracting rsi_2 * 0 where X is zero.

Degenerate structure never divides by zero: singleton edges contribute no
propagation weight, and degree-0 or degree-1 nodes get a zero factor wherever
(d - 1) or d would be inverted.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np
import scipy.sparse as sp

from .errors import ConfigError
from .hypergraph import Hypergraph, degrees, incidence_matrix
from .sparsetools import compact

SIMPLEX_TOL = 1e-9

# scratch bytes of one slice when an n x d product is filled piecewise
_BLOCK_BYTES = 1 << 21


def _slice_len(line_bytes: int) -> int:
    """Rows or columns of ``line_bytes`` each that fit one slice; at least 1."""
    return max(1, _BLOCK_BYTES // max(1, line_bytes))


def _sparse_enough(nonzero: np.ndarray) -> bool:
    """Whether X, given by its n x d nonzero mask, is multiplied as CSR.

    A CSR first hop costs about nnz(A) (1 + rho d) for X with a fraction rho
    of nonzeros, a dense one about nnz(A) d, so the cut is
    32 (n + nnz(X)) <= n d: 1.6% nonzero at d = 64 and 3.1% at d = 1433,
    below the crossovers measured on the benchmark's hop matrices (3% to 9%,
    counting the scan that builds the CSR copy).
    """
    n, d = nonzero.shape
    return 32 * (n + int(np.count_nonzero(nonzero))) <= n * d


def _feature_csr(X: np.ndarray) -> sp.csr_matrix | None:
    """X as CSR, from one scan of its nonzeros, if it is sparse enough; else None."""
    nonzero = X != 0
    if not _sparse_enough(nonzero):
        return None
    n, d = X.shape
    rows, cols = np.divmod(np.flatnonzero(nonzero), d)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    return sp.csr_matrix((X[rows, cols], cols, indptr), shape=X.shape)


class NormalizationKind(Enum):
    """Left/right degree scaling of the hop matrices."""

    SYMMETRIC = "sym"   # D_v^{-1/2} ... D_v^{-1/2}
    ROW = "row"         # D_v^{-1} ...

    @classmethod
    def from_string(cls, s: str) -> "NormalizationKind":
        for kind in cls:
            if kind.value == s:
                return kind
        raise ConfigError(f"unknown normalization {s!r}; expected 'sym' or 'row'")


@dataclass(frozen=True)
class PropagationConfig:
    """Mixing weights and normalization for the propagation operator.

    ``alphas`` must be a length-3 tuple of nonnegative weights on the
    probability simplex (sum 1 within 1e-9). Whether self-information is
    removed is a property of the harness variant, not of the configuration.
    """

    alphas: tuple[float, float, float]
    normalization: NormalizationKind = NormalizationKind.SYMMETRIC

    def __post_init__(self):
        alphas = tuple(float(a) for a in self.alphas)
        if len(alphas) != 3:
            raise ConfigError(f"need exactly 3 mixing weights, got {len(alphas)}")
        if any(not np.isfinite(a) for a in alphas):
            raise ConfigError(f"mixing weights must be finite, got {alphas}")
        if any(a < 0.0 for a in alphas):
            raise ConfigError(f"mixing weights must be nonnegative, got {alphas}")
        if abs(sum(alphas) - 1.0) > SIMPLEX_TOL:
            raise ConfigError(
                f"mixing weights must sum to 1 within {SIMPLEX_TOL}, got sum {sum(alphas)!r}"
            )
        object.__setattr__(self, "alphas", alphas)
        if not isinstance(self.normalization, NormalizationKind):
            raise ConfigError(f"bad normalization {self.normalization!r}")


def _div(num, den: np.ndarray, where: np.ndarray) -> np.ndarray:
    """num/den where ``where`` holds, else 0."""
    out = np.zeros(den.shape, dtype=np.float64)
    np.divide(num, den, out=out, where=where)
    return out


def _excl_edge_weight(sizes: np.ndarray) -> np.ndarray:
    """1/(size - 1) for edges with >= 2 members, else 0 (singletons propagate nothing)."""
    return _div(1.0, sizes - 1.0, sizes >= 2)


def _middle_degree_factor(node_deg: np.ndarray) -> np.ndarray:
    """d/(d - 1) for nodes of degree >= 2, else 0.

    This is the diagonal factor between the two one-hop matrices in the
    two-hop composition; it is the same for both normalization kinds.
    """
    return _div(node_deg, node_deg - 1.0, node_deg >= 2)


def _hop(hg: Hypergraph, kind: NormalizationKind, rap: bool) -> sp.csr_matrix:
    """D H diag(w) H^T D: A1* with ``rap``, else the plain form.

    With ``rap``, w = 1/(size - 1) and the stored diagonal is zeroed in place,
    so the one ``compact`` drops it; without it, w = 1/size and the diagonal
    is kept. Symmetric scales both sides by D_v^{-1/2}, row scales the left
    by D_v^{-1}; isolated nodes get a zero factor.
    """
    H = incidence_matrix(hg)
    prof = degrees(hg)
    sizes, d = prof.edge_sizes, prof.node_degrees
    w = _excl_edge_weight(sizes) if rap else _div(1.0, sizes, sizes > 0)
    B = (H @ sp.diags(w)) @ H.T
    if kind is NormalizationKind.SYMMETRIC:
        s = sp.diags(_div(1.0, np.sqrt(d), d > 0))
        A = s @ B @ s
    elif kind is NormalizationKind.ROW:
        A = sp.diags(_div(1.0, d, d > 0)) @ B
    else:
        raise ConfigError(f"bad normalization kind {kind!r}")
    if rap:
        rows = np.repeat(np.arange(A.shape[0]), np.diff(A.indptr))
        A.data[A.indices == rows] = 0.0
    return compact(A)


def rsi_diag_1(hg: Hypergraph, kind: NormalizationKind = NormalizationKind.SYMMETRIC) -> np.ndarray:
    """Exact one-hop self-information: rsi_i = d_i^{-1} sum over edges containing i of 1/(size - 1).

    The value is identical for both normalization kinds (the left/right degree
    factors meet as d_i^{-1} on the diagonal either way).
    """
    if not isinstance(kind, NormalizationKind):
        raise ConfigError(f"bad normalization kind {kind!r}")
    H = incidence_matrix(hg)
    prof = degrees(hg)
    incident_mass = H @ _excl_edge_weight(prof.edge_sizes)
    d = prof.node_degrees
    return _div(1.0, d, d > 0) * incident_mass


def build_A1_star(hg: Hypergraph, kind: NormalizationKind = NormalizationKind.SYMMETRIC) -> sp.csr_matrix:
    """One-hop propagation matrix with exclusive edge normalization, diagonal removed.

    Symmetric: D_v^{-1/2} (H (D_e - I)^{-1} H^T - diag) D_v^{-1/2};
    Row:       D_v^{-1}   (H (D_e - I)^{-1} H^T - diag).
    Singleton edges and isolated nodes contribute zero rows/columns.
    """
    return _hop(hg, kind, rap=True)


def rsi_diag_2(
    hg: Hypergraph,
    kind: NormalizationKind = NormalizationKind.SYMMETRIC,
    a1_star: sp.csr_matrix | None = None,
) -> np.ndarray:
    """Exact two-hop self-information: the diagonal of the two-hop matrix.

    Computed in O(nnz) without forming the two-hop matrix, as
    rsi_i = sum_k A1*[i,k] * (d_k/(d_k-1)) * A1*[k,i]. Like the one-hop value,
    it is the same for both normalization kinds. Counts every two-hop path
    that leaves node i and returns to it, whichever edges the path uses.
    """
    if a1_star is None:
        a1_star = build_A1_star(hg, kind)
    return _two_hop_diag(a1_star, _middle_degree_factor(degrees(hg).node_degrees))


def _two_hop_diag(a1_star: sp.csr_matrix, m: np.ndarray) -> np.ndarray:
    prod = a1_star.multiply(a1_star.T.tocsr())
    return np.asarray(prod @ m).ravel()


def propagated_basis(
    hg: Hypergraph,
    X: np.ndarray,
    kind: NormalizationKind = NormalizationKind.SYMMETRIC,
    rap: bool = True,
) -> list[np.ndarray]:
    """The blocks [X, A X, A_2 X] of the one- and two-hop propagation.

    With ``rap``, A = A1* and the two-hop block is A1* (m * (A1* X)) - rsi_2 * X
    with m = d/(d-1), which equals A2* X without building the two-hop matrix.
    Without it, A is ``plain_adjacency`` and the two-hop block is A (A X); the
    m-multiply and the rsi_2 term are skipped. The two-hop block is written
    column slice by column slice into one preallocated array, so no n x d
    temporary is formed.

    When X is sparse enough (``_sparse_enough``), A X is taken from a CSR copy
    of X and rsi_2 * X is subtracted once, at X's nonzeros only, after the
    slices; otherwise X stays dense and each slice subtracts its own columns
    of rsi_2 * X. The two routes agree bit for bit (see the module docstring).
    """
    A = _hop(hg, kind, rap)
    if rap:
        m = _middle_degree_factor(degrees(hg).node_degrees)
        r2 = _two_hop_diag(A, m)
    Xs = _feature_csr(X)
    X1 = np.asarray(A @ X) if Xs is None else (A @ Xs).toarray()
    X2 = np.empty_like(X1)
    step = _slice_len(X1.itemsize * X1.shape[0])
    for start in range(0, X2.shape[1], step):
        cols = slice(start, start + step)
        if rap:
            X2[:, cols] = A @ (m[:, None] * X1[:, cols])
            if Xs is None:
                X2[:, cols] -= r2[:, None] * X[:, cols]
        else:
            X2[:, cols] = A @ X1[:, cols]
    if rap and Xs is not None:
        nz = Xs.tocoo()
        X2[nz.row, nz.col] -= r2[nz.row] * nz.data
    return [X, X1, X2]


def plain_adjacency(hg: Hypergraph, kind: NormalizationKind) -> sp.csr_matrix:
    """Standard (self-information kept) one-hop normalization for the ablation.

    Symmetric is the HGNN form D_v^{-1/2} H D_e^{-1} H^T D_v^{-1/2}; row is the
    AllDeepSets form D_v^{-1} H D_e^{-1} H^T. These are the usual
    message-passing forms with plain 1/size edge averaging and no diagonal
    removal.
    """
    return _hop(hg, kind, rap=False)
