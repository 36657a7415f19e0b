"""Normalized hop adjacencies for linear hypergraph propagation.

Every hop is D H diag(w) H^T D over the stored incidence H: for ``sym`` the
node scales are l = r = D_v^{-1/2} on both sides, for ``row`` l = D_v^{-1} on
the left and r = 1. Redundancy-aware propagation (RAP) is one switch,
``rap``. With it the edge weights are w = 1/(size - 1), so each node's
incoming mass excludes its own contribution inside every shared edge, and
the diagonal rsi_1 is removed, so only information from other nodes flows:
that is A1*. Without it w = 1/size and the diagonal stays: the standard HGNN
and AllDeepSets forms (Feng et al., arXiv:1809.09401), which the ablation
variants propagate with. The ``row`` one is also the walk matrix
W = D_v^{-1} H D_e^{-1} H^T that ``zen rsi`` applies for its walk targets.

* ``propagated_basis(hg, X, kind, rap, rows)``: the blocks [X, A X, A_2 X]
  the mixing weights combine, at every row or only at ``rows``. It builds a
  ``_Propagation`` (the hops, rsi_2 and the returning rows, once) and asks
  it for the blocks; ``harness`` keeps one for a whole run. No hop matrix
  is formed; every hop goes through H,

      A V = l * H (w * H^T (r * V)) - rsi_1 * V,

  with the subtraction under ``rap`` only. l and w are folded into one
  scaled CSR copy of H and r into one of H^T, built once in O(nnz(H)), so a
  hop costs products over about 2 nnz(H) + n entries per column instead of
  one over the about sum size^2 entries of the hop matrix. Every removed
  diagonal is subtracted after its product (``_minus_rows``), so each row
  sums its edge terms and then subtracts its own term: in place for a
  dense V, as one CSR difference for a CSR V. With ``rap`` the two-hop
  block is A2* X = A1* (m * A1* X) - rsi_2 * X with m = d/(d - 1); m is
  folded into a second copy of H^T, and the second hop removes
  (rsi_1 m) * (A1* X). On the rows where every two-hop walk returns, A2* is
  structurally zero, but the returning walks and rsi_2 * X cancel only to
  rounding, and row normalization would blow that residue up to a unit
  row; those rows are set to 0.0 (``_returning_rows``, O(nnz(H)) integer
  counts). Without ``rap`` the block is A (A X). Both feature routes run
  one two-hop body: the first hop, the second, then rsi_2 * X. On the
  dense route it fills the blocks in column slices of about 2 MiB of
  scratch, so beside X only the kept blocks are allocated. Each output
  column of a CSR times dense product is summed on its own and the
  elementwise steps are exact, so the slices give the whole-matrix
  expression bit for bit.

  Given ``rows``, the second hop is cut down to those rows and the first to
  the nodes the second reads: the members of the edges at ``rows`` (and
  ``rows``), whose own edges' members are the rows of X it reads
  (``_Hop.restrict``). A CSR product sums each output row on its own, over
  that row's stored entries in stored order, and the cut keeps the order
  and renumbers only the columns, so the restricted rows are those rows of
  the whole blocks bit for bit. The harness takes the labeled rows of a
  split this way; on the benchmark's Cora-shaped input the 70 labeled rows
  read about 500 rows of A X and about 1800 of X. A X is kept only at
  ``rows``: on the dense route each slice's rows of A X that the second
  hop reads are dropped once it has read them.
* ``_Propagation.absolute``: the same propagation with every term by its
  magnitude. It shares the scaled copies of H, whose factors l, w, r and m
  are all >= +0.0, and adds the removed diagonals instead. Applied to |V|
  it sums, entry by entry, the magnitudes of the terms the signed one sums
  for V, which bounds the rounding of both.
* ``rsi_diag_1`` / ``rsi_diag_2``: the redundant self-information, the exact
  diagonal mass a node propagates back to itself after one or two hops, the
  same for both kinds. For i != k, A1*[i, k] m_k A1*[k, i] = B[i, k]^2 g_k / d_i
  with B = H diag(w) H^T and g = 1/(d - 1) (0 where d < 2), so

      rsi_2 = D^{-1} offdiag(B o B) g.

  B is formed one node block at a time, (H diag(w))[a:b] H^T, each block
  sized by the entries its rows can hold (H @ sizes) to about 2 MiB of
  scratch, so no n x n object is held, even for a caller that holds A1*. The
  block's diagonal entries are zeroed before the sum, so every term is
  nonnegative and nothing cancels: where every term is zero the sum is
  exactly +0.0, as on the matrix route diag(A1* diag(m) A1*).
* ``build_A1_star`` is the one hop built as a matrix, for callers that read
  A1* itself: B = H diag(w) H^T is formed once, its entries are scaled in
  place by l of their row and r of their column, and its diagonal is zeroed
  and dropped. Every other hop, the plain forms included, goes through H.

Sparse features (bag-of-words X is often about 1% nonzero) take a sparse
route: X is a CSR matrix, both hops are CSR times CSR products, and each
removed diagonal is subtracted at the nonzeros of the V it scales. A X
stays CSR: the second hop reads it as CSR, and only the rows of it that are
returned are made dense, so a row set's second hop holds the rows of A X it
reads at their nonzeros alone. How X is stored and which route it takes are
two rules over its count of stored entries (``sparsetools``).
``_stored_features``, which ``Dataset``, ``load_features`` and
``propagated_basis`` share, stores X as CSR, with every entry that is not
+0.0, when that takes at most half its dense bytes (about a third
nonzero), else dense. ``_Propagation.hop_blocks`` sends a CSR X that is
sparse enough (``_sparse_enough``, about 2-3% nonzero) to the CSR route,
and any other X to the dense one, which reads a dense X's own column
slices or, for a CSR X, slices of one CSC copy of its rows that the first
hop reads, each stored value written into a zero array. The ``wide-edges``
X (9% nonzero) is stored as CSR and takes the dense route.

Both routes give the same bits. Each entry of T = H^T (r * V) and of the hop
of V, for V = X and then V = A X, is summed over the stored entries of one
row of a scaled copy, in the same order either way; the CSR route only skips
the terms whose factor from V or T is zero (a stored ``-0.0`` of X is not
skipped, but its terms are zeros too). The stored scales are finite, so
each skipped term is +0.0 or -0.0; every running sum starts at +0.0, so it
is never -0.0, and adding a zero of either sign leaves it unchanged. An
entry of T or of A X that a CSR product drops because it summed to zero is
+0.0 on the dense route, so it too only adds zeros. For the same reason
subtracting c * 0 where V is zero changes nothing, and an entry that a CSR
difference drops because it came out zero is +0.0 on the dense route,
since x - x is +0.0 and no sum is -0.0.

Degenerate structure never divides by zero: singleton edges contribute no
propagation weight, and degree-0 or degree-1 nodes get a zero factor wherever
(d - 1) or d would be inverted.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum

import numpy as np
import scipy.sparse as sp

from .errors import ConfigError
from .hypergraph import Hypergraph, degrees, incidence_matrix
from .sparsetools import _dense, _slice_len, _sparse_enough, _stored_features

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


def _minus_rows(out, c: np.ndarray, V):
    """out - c * V, row i of V scaled by c[i]: in place when ``out`` is dense
    (V a vector or an array), a new CSR matrix when it is CSR (V too)."""
    if sp.issparse(out):
        scaled = np.repeat(c, np.diff(V.indptr)) * V.data
        return out - sp.csr_matrix((scaled, V.indices, V.indptr), shape=V.shape)
    out -= (c * V.T).T    # c scales V's rows, whether V is a vector or not
    return out


def _renumber(ids: np.ndarray, size: int) -> tuple[np.ndarray, np.ndarray]:
    """The distinct values of ``ids`` (integers below ``size``), sorted, and
    for every value below ``size`` its position among them."""
    keep = np.zeros(size, dtype=bool)
    keep[ids] = True
    return np.flatnonzero(keep), np.cumsum(keep) - 1


@dataclass(frozen=True)
class _Hop:
    """V -> left (right V) - diag * V[own]: a hop through scaled copies of H,
    never built.

    ``right`` is H^T diag(r), e x n, and ``left`` is diag(l) H diag(w), n x e.
    ``diag`` is the diagonal the hop removes, None when it keeps it: each
    output row sums its edge terms and then subtracts its own term, its row
    of V scaled by diag. ``own`` is None when the output rows are V's rows,
    and on a restricted hop the positions of the output rows among V's.
    """

    left: sp.csr_matrix
    right: sp.csr_matrix
    diag: np.ndarray | None = None
    own: np.ndarray | None = None

    def __call__(self, V):
        """The hop of V, a vector, an n x k array or a CSR matrix; the result is
        CSR for a CSR V, else dense."""
        out = self.left @ (self.right @ V)
        if self.diag is None:
            return out
        return _minus_rows(out, self.diag, _take(V, self.own))

    def restrict(self, rows: np.ndarray | None) -> tuple["_Hop", np.ndarray | None]:
        """The hop's rows ``rows`` as a hop of V's rows at the returned nodes:
        sub(V[nodes]) equals self(V)[rows] bit for bit.

        Only the edges at ``rows`` and their members are kept, and the columns
        are renumbered without reordering a row's stored entries, so each
        output row sums the same terms in the same order. The nodes are
        sorted and include ``rows``. ``rows=None`` keeps every row.
        """
        if rows is None:
            return self, None
        ne, n = self.right.shape
        left = self.left[rows]
        edges, edge_at = _renumber(left.indices, ne)
        right = self.right[edges]
        nodes, node_at = _renumber(np.concatenate([right.indices, rows]), n)
        return _Hop(
            sp.csr_matrix((left.data, edge_at[left.indices], left.indptr),
                          shape=(len(rows), edges.size)),
            sp.csr_matrix((right.data, node_at[right.indices], right.indptr),
                          shape=(edges.size, nodes.size)),
            _take(self.diag, rows), node_at[rows],
        ), nodes


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
        return _Hop(left, sp.csr_matrix((scale[Ht.indices], Ht.indices, Ht.indptr),
                                        shape=Ht.shape), diag)

    if not rap:
        plain = hop(r, None)
        return plain, plain
    m = _middle_degree_factor(degrees(hg).node_degrees)
    rsi_1 = rsi_diag_1(hg)
    return hop(r, rsi_1), hop(r * m, rsi_1 * m)


def rsi_diag_1(hg: Hypergraph) -> np.ndarray:
    """Exact one-hop self-information: rsi_i = d_i^{-1} sum over edges containing i of 1/(size - 1).

    The value is identical for both normalization kinds (the left/right degree
    factors meet as d_i^{-1} on the diagonal either way), so it takes none.
    """
    H = incidence_matrix(hg)
    prof = degrees(hg)
    incident_mass = H @ _excl_edge_weight(prof.edge_sizes)
    d = prof.node_degrees
    return _div(1.0, d, d > 0) * incident_mass


def build_A1_star(hg: Hypergraph, kind: NormalizationKind = NormalizationKind.SYMMETRIC) -> sp.csr_matrix:
    """One-hop propagation matrix with exclusive edge normalization, diagonal removed.

    Symmetric: D_v^{-1/2} (H (D_e - I)^{-1} H^T - diag) D_v^{-1/2};
    Row:       D_v^{-1}   (H (D_e - I)^{-1} H^T - diag).
    Singleton edges and isolated nodes contribute zero rows/columns. B =
    H diag(w) H^T is the one matrix formed: its entries are scaled in place,
    each by l of its row and then by r of its column, as the two diagonal
    products would, and its stored diagonal is zeroed and dropped.
    """
    H = incidence_matrix(hg)
    l, w, r = _scales(hg, kind, rap=True)
    A = (H @ sp.diags(w)) @ H.T
    counts = np.diff(A.indptr)
    A.data *= np.repeat(l, counts)
    A.data *= r[A.indices]
    A.data[A.indices == np.repeat(np.arange(A.shape[0]), counts)] = 0.0
    A.eliminate_zeros()
    A.sort_indices()
    return A


# bytes of scratch per entry of one node block of B in ``rsi_diag_2``
_ENTRY_BYTES = 24


def rsi_diag_2(hg: Hypergraph, *, a1_star: sp.csr_matrix | None = None) -> np.ndarray:
    """Exact two-hop self-information: the diagonal of the two-hop matrix.

    rsi_i = sum_k A1*[i,k] * (d_k/(d_k-1)) * A1*[k,i], which counts every
    two-hop path that leaves node i and returns to it, whichever edges the
    path uses. Like the one-hop value, it is the same for both normalization
    kinds, so it takes none. It is D^{-1} offdiag(B o B) g over node blocks
    of B = H diag(w) H^T (see the module docstring), and no n x n object is
    formed. A given ``a1_star`` is checked for its shape and not read: the
    product that reads rsi_2 off it holds two more copies of A1*.
    """
    n = hg.num_nodes
    if a1_star is not None and a1_star.shape != (n, n):
        raise ConfigError(f"a1_star has shape {a1_star.shape}, expected ({n}, {n})")
    prof = degrees(hg)
    d, sizes = prof.node_degrees, prof.edge_sizes
    H = incidence_matrix(hg)
    Hw = sp.csr_matrix((_excl_edge_weight(sizes)[H.indices], H.indices, H.indptr), shape=H.shape)
    Ht = H.T.tocsr()
    g = _div(1.0, d - 1.0, d >= 2)
    # row i of B holds at most the members of i's edges, counted with repeats
    cost = H @ sizes
    ends = np.cumsum(cost)
    per_block = _slice_len(_ENTRY_BYTES)
    total = np.zeros(n)
    a = 0
    while a < n:
        b = max(a + 1, int(np.searchsorted(ends, ends[a] - cost[a] + per_block, side="right")))
        B = Hw[a:b] @ Ht
        B.data[B.indices == np.repeat(np.arange(a, b), np.diff(B.indptr))] = 0.0
        np.square(B.data, out=B.data)
        total[a:b] = B @ g
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


@dataclass(frozen=True)
class _Propagation:
    """The hops of one (kind, rap) and the terms of its two-hop block, built once.

    ``basis`` propagates any features with them, at all rows or only some.
    With ``rap``, ``rsi_2`` is subtracted from the two-hop block and the
    ``returning`` rows of it are set to 0.0; without it both are None.
    """

    hop: _Hop
    hop2: _Hop
    rsi_2: np.ndarray | None
    returning: np.ndarray | None

    @classmethod
    def build(cls, hg: Hypergraph, kind: NormalizationKind, rap: bool) -> "_Propagation":
        hop, hop2 = _factored_hops(hg, kind, rap)
        if not rap:
            return cls(hop, hop2, None, None)
        return cls(hop, hop2, rsi_diag_2(hg), _returning_rows(hg))

    def absolute(self) -> "_Propagation":
        """Every term of this propagation by its magnitude: the same scaled
        copies of H, none of whose values has its sign bit set (l, w, r and
        m are all >= +0.0), and every removed diagonal added instead of
        subtracted. Applied to |V| it gives, entry by entry, the sum of the
        magnitudes of the terms this one sums for V, which bounds their
        rounding."""
        flip = lambda v: None if v is None else -v
        hop, hop2 = (replace(h, diag=flip(h.diag)) for h in (self.hop, self.hop2))
        return _Propagation(hop, hop2, flip(self.rsi_2), self.returning)

    def basis(self, X, rows=None) -> list[np.ndarray]:
        """[X, A X, A_2 X] at ``rows`` (every row when None), in their order,
        as dense arrays: X's rows (a dense X itself when ``rows`` is None)
        and ``hop_blocks``."""
        blocks = self.hop_blocks(X, rows)   # X's rows are taken after their peak
        return [_dense(X, rows), *blocks]

    def hop_blocks(self, X, rows=None) -> list[np.ndarray]:
        """[A X, A_2 X] at ``rows`` (every row when None), as dense arrays.

        The second hop is restricted to ``rows`` and the first to the nodes it
        reads, so only those rows are propagated; each is bit for bit the
        same row of the whole blocks. A CSR X (canonical, float64) that is
        sparse enough (``_sparse_enough``) takes the sparse route: A X then
        stays CSR through the second hop, and only its rows at ``rows`` are
        made dense. Any other X, dense or CSR, is propagated in column
        slices (``_columns``), and only each slice's rows of A X at ``rows``
        are kept.
        """
        hop2, mid = self.hop2.restrict(rows)
        hop, src = self.hop.restrict(mid)
        rsi_2 = _take(self.rsi_2, rows)
        own = None if rows is None else np.searchsorted(src, rows)

        def hops(V):
            """A V and the two-hop block of V, for V read at the nodes ``src``."""
            at_rows = None if rsi_2 is None else _take(V, own)
            V1 = hop(V)
            del V   # freed before the second hop, which reads only V1
            V2 = hop2(V1)
            return V1, (V2 if rsi_2 is None else _minus_rows(V2, rsi_2, at_rows))

        keep = None if rows is None else np.searchsorted(mid, rows)
        if sp.issparse(X) and _sparse_enough(*X.shape, X.nnz):
            X1, X2 = hops(_take(X, src))
            X2 = X2.toarray()   # each CSR block is freed as its dense one is made
            X1 = _take(X1, keep).toarray()
        else:
            shape = (hop2.left.shape[0], X.shape[1])
            X1, X2 = np.empty(shape), np.empty(shape)
            columns = _columns(X, src)
            # a slice's temporaries hold a hop's rows of V and of right V
            step = _slice_len(X1.itemsize * max(sum(h.right.shape) for h in (hop, hop2)))
            for start in range(0, shape[1], step):
                cols = slice(start, start + step)
                V1, X2[:, cols] = hops(columns(cols))
                X1[:, cols] = _take(V1, keep)   # the second hop's rows of A X are not kept
        if self.returning is not None:
            # rounding leaves a residue where the returning walks and rsi_2 cancel
            X2[_take(self.returning, rows)] = 0.0
        return [X1, X2]


def _columns(X, rows):
    """cols -> X's rows ``rows`` (every row when None) at the column slice
    ``cols``, as a dense array bit for bit: a dense X's own, or a CSR X's
    from one CSC copy of those rows, its stored values written (``_dense``)."""
    if not sp.issparse(X):
        return lambda cols: _take(X[:, cols], rows)
    C = _take(X, rows).tocsc()
    return lambda cols: _dense(C[:, cols])


def _take(V, rows):
    """Rows ``rows`` of V, or V itself when either is None."""
    return V if V is None or rows is None else V[rows]


def propagated_basis(
    hg: Hypergraph,
    X,
    kind: NormalizationKind = NormalizationKind.SYMMETRIC,
    rap: bool = True,
    rows=None,
) -> list[np.ndarray]:
    """The blocks [X, A X, A_2 X] of the one- and two-hop propagation, at
    ``rows`` (every row by default), as dense arrays.

    With ``rap``, A = A1* and the two-hop block is A1* (m * (A1* X)) - rsi_2 * X
    with m = d/(d-1), which equals A2* X. Without it, A is the plain HGNN
    (``sym``) or AllDeepSets (``row``) form and the two-hop block is A (A X);
    for X = I the second block is A itself. Every hop goes through scaled
    copies of the incidence H, so no hop matrix is built, and the blocks are
    written column slice by column slice into preallocated arrays, so no
    n x d temporary is formed. Given ``rows``, only the rows the two hops
    read are propagated, and the result is those rows of the whole blocks,
    bit for bit.

    X is a dense array or a scipy sparse matrix, as ``load_features``
    returns it, and is checked and stored as ``Dataset`` stores it
    (``sparsetools._stored_features``): as CSR when that takes at most half
    its dense bytes, else dense. A CSR X that is sparse enough takes the
    sparse route (both hops CSR products, A X CSR until its returned rows);
    any other X is propagated in column slices. The first block is a dense
    X itself (its rows at ``rows``) or a sparse X's rows made dense. The
    routes agree bit for bit (see the module docstring), so a sparse X
    gives the blocks of its dense twin. An X of the wrong shape, or with a
    NaN or infinite value, is a DatasetError, and ``rows`` other than a 1-d
    array of node ids in [0, n) a ConfigError.
    """
    n = hg.num_nodes
    stored = _stored_features(X, n)
    if rows is not None:
        rows = np.asarray(rows)
        if rows.size == 0:
            rows = rows.astype(np.int64)
        if rows.ndim != 1 or rows.dtype.kind not in "iu" or np.any((rows < 0) | (rows >= n)):
            raise ConfigError(f"rows must be a 1-d array of node ids in [0, {n})")
    blocks = _Propagation.build(hg, kind, rap).hop_blocks(stored, rows)
    return [_dense(stored if sp.issparse(X) else X, rows), *blocks]
