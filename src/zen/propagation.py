"""Normalized hop adjacencies for linear hypergraph propagation.

Every hop is D H diag(w) H^T D over the stored incidence H: for ``sym`` the
node scales are l = r = D_v^{-1/2} on both sides, for ``row`` l = D_v^{-1} on
the left and r = 1. Redundancy-aware propagation (RAP) is one switch,
``rap``. With it the edge weights are w = 1/(size - 1), so each node's
incoming mass excludes its own contribution inside every shared edge, and
the diagonal rsi_1 is removed, so only information from other nodes flows:
that is A1*. Without it w = 1/size and the diagonal stays: the standard HGNN
and AllDeepSets forms, which the ablation variants propagate with.

* ``propagated_basis(hg, X, kind, rap)``: the blocks [X, A X, A_2 X] the
  mixing weights combine. No hop matrix is formed; every hop goes through H,

      A V = l * H (w * H^T (r * V)) - rsi_1 * V,

  with the subtraction under ``rap`` only. l and w are folded into one
  scaled CSR copy of H and r into one of H^T, built once in O(nnz(H)), so a
  hop costs products over about 2 nnz(H) + n entries per column instead of
  one over the about sum size^2 entries of the hop matrix. The subtraction
  rides in the second product: -diag(rsi_1) is appended to the copy of H as
  n more columns and V below H^T (r * V), so each row sums its edge terms
  and then subtracts its own term. With ``rap`` the two-hop block is
  A2* X = A1* (m * A1* X) - rsi_2 * X with m = d/(d - 1); m is folded into
  a second copy of H^T, and the second hop removes (rsi_1 m) * (A1* X). On
  the rows where every two-hop walk returns, A2* is structurally zero, but
  the returning walks and rsi_2 * X cancel only to rounding, and row
  normalization would blow that residue up to a unit row; those rows are
  set to 0.0 (``_returning_rows``, O(nnz(H)) integer counts). Without
  ``rap`` the block is A (A X). The blocks are filled in column slices of
  about 2 MiB of scratch, so beside X only the two kept n x d blocks are
  allocated. Each output column of a CSR times dense product is summed on
  its own and the elementwise steps are exact, so the slices give the
  whole-matrix expression bit for bit.
* ``rsi_diag_1`` / ``rsi_diag_2``: the redundant self-information, the exact
  diagonal mass a node propagates back to itself after one or two hops, the
  same for both kinds. The two-hop value has a closed form through the
  edge-overlap Gram E = H^T diag(g) H, with g = 1/(d - 1) (0 where d < 2):

      rsi_2[i] = d_i^{-1} sum over edges e, f containing i of w_e w_f (E[e, f] - g_i).

  That is O(sum d_i^2) work over the pairs of each node's edges, done in
  node blocks of about 2 MiB of scratch, and no n x n object. E[e, f] sums
  g over e and f's common members, i among them, so every term is
  nonnegative and nothing cancels: a term is exactly 0.0 when no other
  common member has degree >= 2, as the matrix route's is.
* ``_hop(hg, kind, rap)`` builds a hop as a matrix for the callers that ask
  for one: ``build_A1_star`` (the diagonal is zeroed before the one
  ``compact`` drops it) and ``plain_adjacency``.

Sparse features (bag-of-words X is often about 1% nonzero) take a sparse
first hop: X is copied to CSR once, A X is taken by CSR times CSR products,
and rsi_2 * X is subtracted at X's nonzeros only. The layout is chosen from
X's measured density alone (``_sparse_enough``); denser X stays dense.

Both routes give the same bits. Each entry of T = H^T (r * X) and of A X is
summed over the stored entries of one row of a scaled copy, in the same
order either way; the CSR route only skips the terms whose factor from X or
T is zero. The stored scales are finite, so each skipped term is +0.0 or
-0.0; every running sum starts at +0.0, so it is never -0.0, and adding a
zero of either sign leaves it unchanged. An entry of T the CSR product drops
because it summed to zero is +0.0 in the dense T, so it too only adds zeros.
For the same reason subtracting rsi_2 * 0 where X is zero changes nothing.

Degenerate structure never divides by zero: singleton edges contribute no
propagation weight, and degree-0 or degree-1 nodes get a zero factor wherever
(d - 1) or d would be inverted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np
import scipy.sparse as sp

from .errors import ConfigError, DatasetError
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
    below the crossovers measured with the benchmark's materialized hop
    matrices (3% to 9%, counting the scan that builds the CSR copy); they
    have not been measured again for the hops through H.
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


def _scales(hg: Hypergraph, kind: NormalizationKind, rap: bool):
    """(l, w, r) of the hop diag(l) H diag(w) H^T diag(r).

    w = 1/(size - 1) with ``rap``, else 1/size. Symmetric has l = r =
    D_v^{-1/2}, row has l = D_v^{-1} and r = 1; isolated nodes get a zero
    factor.
    """
    prof = degrees(hg)
    sizes, d = prof.edge_sizes, prof.node_degrees
    w = _excl_edge_weight(sizes) if rap else _div(1.0, sizes, sizes > 0)
    if kind is NormalizationKind.SYMMETRIC:
        s = _div(1.0, np.sqrt(d), d > 0)
        return s, w, s
    if kind is NormalizationKind.ROW:
        return _div(1.0, d, d > 0), w, np.ones(d.shape)
    raise ConfigError(f"bad normalization kind {kind!r}")


def _hop(hg: Hypergraph, kind: NormalizationKind, rap: bool) -> sp.csr_matrix:
    """diag(l) H diag(w) H^T diag(r) as a matrix: A1* with ``rap``, else the plain form.

    With ``rap`` the stored diagonal is zeroed in place, so the one
    ``compact`` drops it; without it the diagonal is kept.
    """
    H = incidence_matrix(hg)
    l, w, r = _scales(hg, kind, rap)
    A = sp.diags(l) @ ((H @ sp.diags(w)) @ H.T) @ sp.diags(r)
    if rap:
        A = sp.csr_matrix(A)
        rows = np.repeat(np.arange(A.shape[0]), np.diff(A.indptr))
        A.data[A.indices == rows] = 0.0
    return compact(A)


def _subtract_rows(out: np.ndarray, c: np.ndarray, V, scratch: np.ndarray) -> None:
    """out -= c * V in place, row i of V scaled by c[i]; at V's stored entries
    only when V is sparse. A dense c * V is written to the front of the flat
    array ``scratch``."""
    if sp.issparse(V):
        nz = V.tocoo()
        out[nz.row, nz.col] -= c[nz.row] * nz.data
    else:
        out -= np.multiply(c[:, None], V, out=scratch[:V.size].reshape(V.shape))


@dataclass(frozen=True)
class _Hop:
    """V -> left [right V; V]: a hop through scaled copies of H, never built.

    ``right`` is H^T diag(r), e x n. ``left`` is diag(l) H diag(w), n x e,
    with -diag(c) appended as n more columns when the hop removes a diagonal
    c, so one product sums a row's edge terms and then subtracts its own.
    Without a diagonal it is left (right V).
    """

    left: sp.csr_matrix
    right: sp.csr_matrix

    def __call__(self, V, buffer=None) -> np.ndarray:
        """The hop of V, a vector, an n x k array or a CSR matrix; the result is
        dense. A dense stack [right V; V] is built in the front of the flat
        array ``buffer`` when one is given."""
        ne, n = self.right.shape
        if self.left.shape[1] == ne:
            out = self.left @ (self.right @ V)
        elif sp.issparse(V):
            out = self.left @ sp.vstack([self.right @ V, V], format="csr")
        else:
            shape = (ne + n,) + V.shape[1:]
            B = np.empty(shape) if buffer is None else buffer[:math.prod(shape)].reshape(shape)
            B[ne:] = V
            B[:ne] = self.right @ B[ne:]
            out = self.left @ B
        return out.toarray() if sp.issparse(out) else out


def _factored_hops(hg: Hypergraph, kind: NormalizationKind, rap: bool) -> tuple[_Hop, _Hop]:
    """The hop A and the second hop: V -> A (m * V) with ``rap``, A without.

    A is A1* with ``rap``, else the plain form. The two share the scaled copy
    of H; with ``rap`` the second folds m = d/(d-1) into its copy of H^T and
    removes the diagonal rsi_1 m. Building them is O(nnz(H)).
    """
    l, w, r = _scales(hg, kind, rap)
    H = incidence_matrix(hg)
    rows = np.repeat(np.arange(H.shape[0]), np.diff(H.indptr))
    left = sp.csr_matrix((l[rows] * w[H.indices], H.indices, H.indptr), shape=H.shape)
    Ht = H.T.tocsr()

    def hop(scale, diag):
        right = sp.csr_matrix((scale[Ht.indices], Ht.indices, Ht.indptr), shape=Ht.shape)
        if diag is None:
            return _Hop(left, right)
        return _Hop(sp.hstack([left, sp.diags(-diag)], format="csr"), right)

    if not rap:
        plain = hop(r, None)
        return plain, plain
    m = _middle_degree_factor(degrees(hg).node_degrees)
    rsi_1 = rsi_diag_1(hg, kind)
    return hop(r, rsi_1), hop(r * m, rsi_1 * m)


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


# bytes of scratch per edge pair in one node block of ``rsi_diag_2``
_PAIR_BYTES = 96


def rsi_diag_2(
    hg: Hypergraph,
    kind: NormalizationKind = NormalizationKind.SYMMETRIC,
    a1_star: sp.csr_matrix | None = None,
) -> np.ndarray:
    """Exact two-hop self-information: the diagonal of the two-hop matrix.

    rsi_i = sum_k A1*[i,k] * (d_k/(d_k-1)) * A1*[k,i], which counts every
    two-hop path that leaves node i and returns to it, whichever edges the
    path uses. Like the one-hop value, it is the same for both normalization
    kinds. Given ``a1_star`` it is read off that matrix in O(nnz); otherwise
    it takes the closed form over pairs of each node's edges (see the module
    docstring) and no n x n object is formed.
    """
    if not isinstance(kind, NormalizationKind):
        raise ConfigError(f"bad normalization kind {kind!r}")
    n = hg.num_nodes
    d = degrees(hg).node_degrees
    if a1_star is not None:
        if a1_star.shape != (n, n):
            raise ConfigError(f"a1_star has shape {a1_star.shape}, expected ({n}, {n})")
        return _two_hop_diag(a1_star, _middle_degree_factor(d))
    H = incidence_matrix(hg)
    ne = H.shape[1]
    w = _excl_edge_weight(degrees(hg).edge_sizes)
    g = _div(1.0, d - 1.0, d >= 2)
    Ht = H.T.tocsr()
    Hg = sp.csr_matrix((g[Ht.indices], Ht.indices, Ht.indptr), shape=Ht.shape)
    # the pairs e = f, one per membership: E[e, e] is g summed over e
    rows = np.repeat(np.arange(n), d)
    we = w[H.indices]
    total = np.bincount(rows, weights=we * we * ((Hg @ np.ones(n))[H.indices] - g[rows]),
                        minlength=n)
    # the pairs e < f, counted twice, read from E by row-major key; the product
    # drops the entries that sum to zero, so a key past every stored one ends
    # the search and reads as 0.0
    E = Hg @ H
    E.sort_indices()
    keys = np.repeat(np.arange(ne, dtype=np.int64), np.diff(E.indptr)) * ne + E.indices
    keys, vals = np.append(keys, ne * ne), np.append(E.data, 0.0)
    pairs = d * (d - 1) // 2
    ends = np.cumsum(pairs)
    per_block = _slice_len(_PAIR_BYTES)
    a = 0
    while a < n:
        b = max(a + 1, int(np.searchsorted(ends, ends[a] - pairs[a] + per_block, side="right")))
        first = np.arange(H.indptr[a], H.indptr[b])
        later = np.repeat(H.indptr[a + 1:b + 1], d[a:b]) - first - 1
        first = np.repeat(first, later)
        second = first + 1 + np.arange(first.size) - np.repeat(np.cumsum(later) - later, later)
        node = rows[first]
        e = H.indices[first].astype(np.int64)
        f = H.indices[second]
        key = e * ne + f
        pos = np.searchsorted(keys, key)
        overlap = np.where(keys[pos] == key, vals[pos], 0.0)
        total[a:b] += np.bincount(node - a, weights=2.0 * w[e] * w[f] * (overlap - g[node]),
                                  minlength=b - a)
        a = b
    return _div(total, d, d > 0)


def _returning_rows(hg: Hypergraph) -> np.ndarray:
    """Nodes whose row of A2* is structurally zero: every two-hop walk from
    them comes back, so the block's row is zero whatever X holds.

    A walk i -> k -> j with j != i exists iff some k sharing an edge of two or
    more members with i has degree >= 2 and another neighbour: an edge of
    three or more members, or two-member edges to two different partners.
    Counted with 0/1 weights, so every sum is an exact integer; O(nnz(H)).
    """
    H = incidence_matrix(hg)
    prof = degrees(hg)
    d, sizes = prof.node_degrees, prof.edge_sizes
    n = hg.num_nodes
    rows = np.repeat(np.arange(n), np.diff(H.indptr))
    size = sizes[H.indices]
    pair = size == 2
    partner = np.bincount(H.indices, weights=rows, minlength=H.shape[1])[H.indices] - rows
    lo, hi = np.full(n, np.inf), np.full(n, -np.inf)
    np.minimum.at(lo, rows[pair], partner[pair])
    np.maximum.at(hi, rows[pair], partner[pair])
    wide = np.bincount(rows[size > 2], minlength=n) > 0
    branching = ((d >= 2) & (wide | (lo < hi))).astype(np.float64)
    linking = (sizes >= 2).astype(np.float64)
    via = H @ (linking * (H.T @ branching)) - (H @ linking) * branching
    return via == 0


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
    with m = d/(d-1), which equals A2* X. Without it, A is the plain form of
    ``plain_adjacency`` and the two-hop block is A (A X). Every hop goes
    through scaled copies of the incidence H, so no hop matrix is built, and
    the blocks are written column slice by column slice into preallocated
    arrays, so no n x d temporary is formed.

    When X is sparse enough (``_sparse_enough``), A X is taken from a CSR copy
    of X and rsi_2 * X is subtracted at X's nonzeros only; otherwise X stays
    dense and each slice takes its own columns of X. The two routes agree bit
    for bit (see the module docstring). A wrong-shaped X is a DatasetError.
    """
    n = hg.num_nodes
    if np.ndim(X) != 2 or np.shape(X)[0] != n:
        raise DatasetError(f"features have shape {np.shape(X)}, expected ({n}, num_features)")
    hop, hop2 = _factored_hops(hg, kind, rap)
    if rap:
        rsi_2 = rsi_diag_2(hg, kind)
    Xs = _feature_csr(X)
    X1 = np.empty(X.shape) if Xs is None else hop(Xs)
    X2 = np.empty_like(X1)
    step = _slice_len(X1.itemsize * n)
    # one flat scratch array, reused by every slice, for the stacks of the
    # hops and the rsi_2 * X term
    stack = np.empty((hop.right.shape[0] + n) * min(step, X.shape[1])) if rap else None
    for start in range(0, X.shape[1], step):
        cols = slice(start, start + step)
        if Xs is None:
            X1[:, cols] = hop(X[:, cols], stack)
        X2[:, cols] = hop2(X1[:, cols], stack)
        if rap and Xs is None:
            _subtract_rows(X2[:, cols], rsi_2, X[:, cols], stack)
    if rap and Xs is not None:
        _subtract_rows(X2, rsi_2, Xs, stack)
    if rap:
        # rounding leaves a residue where the returning walks and rsi_2 cancel
        X2[_returning_rows(hg)] = 0.0
    return [X, X1, X2]


def plain_adjacency(hg: Hypergraph, kind: NormalizationKind) -> sp.csr_matrix:
    """Standard (self-information kept) one-hop normalization for the ablation.

    Symmetric is the HGNN form D_v^{-1/2} H D_e^{-1} H^T D_v^{-1/2}; row is the
    AllDeepSets form D_v^{-1} H D_e^{-1} H^T. These are the usual
    message-passing forms with plain 1/size edge averaging and no diagonal
    removal.
    """
    return _hop(hg, kind, rap=False)
