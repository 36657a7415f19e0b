"""Normalized hop adjacencies for linear hypergraph propagation.

The two-hop propagation used by the classifier is built here:

* ``build_A1_hat``: one-hop adjacency normalized so that each node's expected
  incoming mass excludes its own contribution inside every shared edge, via
  edge weights 1/(size - 1) instead of 1/size.
* ``rsi_diag_1`` / ``rsi_diag_2``: the redundant self-information, the exact
  diagonal mass a node propagates back to itself after one or two hops.
* ``build_A1_star``: the one-hop matrix with that diagonal removed, so only
  information from other nodes flows.
* ``propagated_basis``: the blocks [X, A1* X, A2* X] the mixing weights
  combine. The two-hop matrix A2* = A1* diag(d/(d-1)) A1* - diag(rsi_2) is
  never formed: its product with X is A1* (m * (A1* X)) - rsi_2 * X, two
  sparse-times-dense products and the closed-form diagonal, so memory stays
  proportional to nnz(A1*) and the size of X.

Degenerate structure never divides by zero: singleton edges contribute no
propagation weight, and degree-0 or degree-1 nodes get a zero factor wherever
(d - 1) or d would be inverted.

``build_baseline_adjacency`` provides the reference one-hop recipes of several
published message-passing normalizations, all expressed as powers of a
node-to-node matrix, plus the restart-style coefficient schedule used to mix
hop powers.
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


def _safe_inv(v: np.ndarray) -> np.ndarray:
    """1/v where v > 0, else 0."""
    out = np.zeros(v.shape, dtype=np.float64)
    np.divide(1.0, v, out=out, where=v > 0)
    return out


def _safe_inv_sqrt(v: np.ndarray) -> np.ndarray:
    """v^{-1/2} where v > 0, else 0."""
    out = np.zeros(v.shape, dtype=np.float64)
    mask = v > 0
    out[mask] = 1.0 / np.sqrt(v[mask].astype(np.float64))
    return out


def _excl_edge_weight(sizes: np.ndarray) -> np.ndarray:
    """1/(size - 1) for edges with >= 2 members, else 0 (singletons propagate nothing)."""
    s = sizes.astype(np.float64)
    out = np.zeros(s.shape, dtype=np.float64)
    np.divide(1.0, s - 1.0, out=out, where=s >= 2)
    return out


def _middle_degree_factor(node_deg: np.ndarray) -> np.ndarray:
    """d/(d - 1) for nodes of degree >= 2, else 0.

    This is the diagonal factor between the two one-hop matrices in the
    two-hop composition; it is the same for both normalization kinds.
    """
    d = node_deg.astype(np.float64)
    out = np.zeros(d.shape, dtype=np.float64)
    np.divide(d, d - 1.0, out=out, where=d >= 2)
    return out


def _drop_diagonal(mat: sp.csr_matrix) -> sp.csr_matrix:
    """Copy of mat with no stored diagonal entries at all."""
    coo = mat.tocoo()
    keep = coo.row != coo.col
    out = sp.csr_matrix(
        (coo.data[keep], (coo.row[keep], coo.col[keep])), shape=mat.shape
    )
    return compact(out)


def build_A1_hat(hg: Hypergraph, kind: NormalizationKind = NormalizationKind.SYMMETRIC) -> sp.csr_matrix:
    """One-hop adjacency with exclusive edge normalization, diagonal included.

    Symmetric: D_v^{-1/2} H (D_e - I)^{-1} H^T D_v^{-1/2};
    Row:       D_v^{-1}   H (D_e - I)^{-1} H^T.
    Singleton edges and isolated nodes contribute zero rows/columns.
    """
    H = incidence_matrix(hg)
    prof = degrees(hg)
    w = _excl_edge_weight(prof.edge_sizes)
    B = (H @ sp.diags(w)) @ H.T
    if kind is NormalizationKind.SYMMETRIC:
        s = sp.diags(_safe_inv_sqrt(prof.node_degrees))
        return compact(s @ B @ s)
    if kind is NormalizationKind.ROW:
        return compact(sp.diags(_safe_inv(prof.node_degrees)) @ B)
    raise ConfigError(f"bad normalization kind {kind!r}")


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
    return _safe_inv(prof.node_degrees) * incident_mass


def build_A1_star(hg: Hypergraph, kind: NormalizationKind = NormalizationKind.SYMMETRIC) -> sp.csr_matrix:
    """One-hop propagation matrix: build_A1_hat with its diagonal removed exactly."""
    return _drop_diagonal(build_A1_hat(hg, kind))


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
) -> list[np.ndarray]:
    """The blocks [X, A1* X, A2* X] of the redundancy-removed propagation.

    The two-hop block is A1* (m * (A1* X)) - rsi_2 * X with m = d/(d-1),
    which equals A2* X without building the two-hop matrix.
    """
    A1 = build_A1_star(hg, kind)
    m = _middle_degree_factor(degrees(hg).node_degrees)
    X1 = np.asarray(A1 @ X)
    X2 = np.asarray(A1 @ (m[:, None] * X1)) - _two_hop_diag(A1, m)[:, None] * X
    return [X, X1, X2]


def plain_adjacency(hg: Hypergraph, kind: NormalizationKind) -> sp.csr_matrix:
    """Standard (self-information kept) one-hop normalization for the ablation.

    Symmetric uses D_v^{-1/2} H D_e^{-1} H^T D_v^{-1/2}; row uses
    D_v^{-1} H D_e^{-1} H^T. These are the usual message-passing forms with
    plain 1/size edge averaging and no diagonal removal.
    """
    recipe = BaselineRecipe.HGNN if kind is NormalizationKind.SYMMETRIC \
        else BaselineRecipe.ALLDEEPSET
    return build_baseline_adjacency(hg, recipe, 1)


class BaselineRecipe(Enum):
    """Reference one-hop normalizations from published hypergraph models."""

    HGNN = "hgnn"               # D_v^{-1/2} H D_e^{-1} H^T D_v^{-1/2}
    HNHN = "hnhn"               # D_{v,a}^{-1} H D_e^a D_{e,b}^{-1} H^T D_v^b
    UNIGCNII = "unigcnii"       # D_v^{-1} H  Dtilde_e^{-1} H^T
    ALLDEEPSET = "alldeepset"   # D_v^{-1} H D_e^{-1} H^T
    EDHNN = "alldeepset"        # alias: identical linearized form


def build_baseline_adjacency(
    hg: Hypergraph,
    recipe: BaselineRecipe,
    l: int,
    hnhn_alpha: float = 0.0,
    hnhn_beta: float = 0.0,
) -> sp.csr_matrix:
    """l-th power of a baseline one-hop matrix; l = 0 gives the identity.

    The HNHN recipe takes its two exponents as keywords; at the default
    (0, 0) it coincides with the ALLDEEPSET row normalization.
    """
    if not isinstance(l, (int, np.integer)) or l < 0:
        raise ConfigError(f"hop count must be a nonnegative integer, got {l!r}")
    n = hg.num_nodes
    if l == 0:
        return sp.identity(n, format="csr")
    base = _baseline_base(hg, recipe, hnhn_alpha, hnhn_beta)
    P = base
    for _ in range(l - 1):
        P = P @ base
    return compact(P)


def _baseline_base(hg, recipe, hnhn_alpha, hnhn_beta) -> sp.csr_matrix:
    H = incidence_matrix(hg)
    prof = degrees(hg)
    d = prof.node_degrees.astype(np.float64)
    sz = prof.edge_sizes.astype(np.float64)
    if recipe is BaselineRecipe.HGNN:
        s = sp.diags(_safe_inv_sqrt(prof.node_degrees))
        return compact(s @ H @ sp.diags(_safe_inv(sz)) @ H.T @ s)
    if recipe is BaselineRecipe.ALLDEEPSET:
        return compact(sp.diags(_safe_inv(prof.node_degrees)) @ H @ sp.diags(_safe_inv(sz)) @ H.T)
    if recipe is BaselineRecipe.UNIGCNII:
        # per-edge mean member degree; members always have degree >= 1
        mean_deg = np.asarray(H.T @ d).ravel() * _safe_inv(sz)
        return compact(
            sp.diags(_safe_inv(prof.node_degrees)) @ H @ sp.diags(_safe_inv(mean_deg)) @ H.T
        )
    if recipe is BaselineRecipe.HNHN:
        # 0^beta is clamped to 0 for isolated nodes; their rows/columns of the
        # product are structurally zero anyway.
        d_beta = np.zeros_like(d)
        np.power(d, hnhn_beta, out=d_beta, where=d > 0)
        sz_alpha = np.power(sz, hnhn_alpha)  # sizes are >= 1
        dva = np.asarray(H @ sz_alpha).ravel()
        deb = np.asarray(H.T @ d_beta).ravel()
        mid = sz_alpha * _safe_inv(deb)
        return compact(
            sp.diags(_safe_inv(dva)) @ H @ sp.diags(mid) @ H.T @ sp.diags(d_beta)
        )
    raise ConfigError(f"unknown baseline recipe {recipe!r}")


def restart_coefficients(alpha: float, num_hops: int) -> np.ndarray:
    """Restart-style mixing schedule over hop powers 0..num_hops.

    Returns [alpha, alpha*(1-alpha), ..., alpha*(1-alpha)^(num_hops-1),
    (1-alpha)^num_hops]; the entries are nonnegative and sum to 1 exactly in
    real arithmetic (telescoping).
    """
    if not isinstance(num_hops, (int, np.integer)) or num_hops < 1:
        raise ConfigError(f"num_hops must be a positive integer, got {num_hops!r}")
    if not (0.0 <= alpha <= 1.0):
        raise ConfigError(f"restart weight must lie in [0, 1], got {alpha!r}")
    coeffs = [alpha * (1.0 - alpha) ** i for i in range(num_hops)]
    coeffs.append((1.0 - alpha) ** num_hops)
    return np.asarray(coeffs, dtype=np.float64)
