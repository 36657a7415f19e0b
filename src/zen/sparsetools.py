"""Small helpers: the dense-size guard, the scratch budget of the loops
that fill a large array a slice at a time, and the one feature contract.
Two rules read X's count of stored entries. ``_csr_smaller`` picks how X is
stored: CSR when that takes at most half the dense bytes, else dense.
``_sparse_enough`` picks the route a CSR X takes through the hops.
``_stored_features`` checks and stores X (float64, n rows, finite, in the
form ``_csr_smaller`` picks) for ``Dataset``, ``load_features``' text route
and ``propagated_basis``, and ``_dense`` reads its rows back, bit for bit.
The grid loader builds the same form straight from a file's bytes, a row
block at a time (``_row_nonzeros``, ``_csr_rows``)."""

from __future__ import annotations

import os

import numpy as np
import scipy.sparse as sp

from .errors import DatasetError, GuardError

DEFAULT_DENSE_GUARD = 2000

# scratch bytes of one slice when an n x d array is filled piecewise
_BLOCK_BYTES = 1 << 21


def _slice_len(line_bytes: int) -> int:
    """Rows or columns of ``line_bytes`` each that fit one slice; at least 1."""
    return max(1, _BLOCK_BYTES // max(1, line_bytes))


def dense_guard() -> int:
    """Size limit for dense brute-force computations.

    Defaults to 2000 rows; the ZEN_DENSE_GUARD environment variable overrides it.
    """
    raw = os.environ.get("ZEN_DENSE_GUARD")
    if raw is None:
        return DEFAULT_DENSE_GUARD
    try:
        value = int(raw)
    except ValueError as exc:
        raise GuardError(f"ZEN_DENSE_GUARD must be an integer, got {raw!r}") from exc
    if value < 1:
        raise GuardError(f"ZEN_DENSE_GUARD must be positive, got {value}")
    return value


def check_guard(n: int, what: str) -> None:
    limit = dense_guard()
    if n > limit:
        raise GuardError(
            f"{what}: size {n} exceeds the dense guard ({limit}); "
            "raise ZEN_DENSE_GUARD to override"
        )


def _sparse_enough(n: int, d: int, nnz: int) -> bool:
    """Whether a CSR X, n x d with nnz stored entries, takes the CSR x CSR
    hops; any other X takes the dense route, a column slice at a time.

    A CSR first hop costs about nnz(A) (1 + rho d) for X with a fraction rho
    of nonzeros, a dense one about nnz(A) d, so the cut is
    32 (n + nnz(X)) <= n d: 1.6% nonzero at d = 64, 2.7% at d = 256 and
    3.1% at d = 1433.

    Measured on the first hop the harness takes, restricted to the labeled
    rows of a k = 5 split, on the benchmark's two graphs with random 0/1 X
    (2-core host, one BLAS thread, medians over six splits), the routes
    cross at about 6% nonzero at d = 1433 (at 3%: CSR 7.6 ms, dense 13.9
    ms), about 4% at d = 256, and at d = 64 at about 1.2% on ``wide-edges``
    (at 1.6%: CSR 4.4 ms, dense 4.0 ms) and below 0.5% on the Cora-shaped
    graph, where either route takes about 1 ms. The cut is within a factor
    of two of every crossover, on the dense side at large d. Neither route
    wins on both benchmark inputs: the Cora-shaped X (1.25% nonzero,
    d = 1433) takes 5.1 ms as CSR and 14.4 ms dense, the ``wide-edges`` X
    (8.9%, d = 64) 7.4 ms as CSR and 4.0 ms dense, and the cut sends each
    to its faster route. Every X this cut passes is also stored as CSR
    (``_csr_smaller``), so the route never converts X.
    """
    return 32 * (n + nnz) <= n * d


def _csr_smaller(n: int, d: int, nnz: int) -> bool:
    """Whether an n x d X with nnz stored entries is stored as CSR: its CSR
    bytes, 12 per entry (a float64 value and an int32 column) and 8 per
    row, are at most half its 8 n d dense bytes. That holds up to about a
    third nonzero: 32% at d = 64. By this count the ``wide-edges`` X (8.9%
    nonzero, d = 64) takes 0.76 MB as CSR against 5.12 MB dense."""
    return 12 * nnz + 8 * n <= 4 * n * d


def _row_nonzeros(mask: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The flat positions of the 2-d boolean ``mask``'s True entries in
    row-major order, their int32 column indices and each row's count.

    The positions are found 8 entries at a time. numpy finds the set
    entries of a boolean array under 10% set by a branch per set entry,
    which costs most near 10%: 1.4 ms on 640 000 entries 9.9% set, 0.5 ms
    at 10.1%. Read as 8-byte words, the set words are each at least 1/8
    set, so the second pass always takes the branch-free path.
    """
    r, d = mask.shape
    flat = mask.reshape(-1)
    m = flat.size - flat.size % 8
    words = flat[:m].view(np.uint64)
    at_word = np.flatnonzero(words != 0)
    at = np.flatnonzero(words[at_word].view(np.bool_))
    word = at_word[at >> 3]
    word <<= 3
    at &= 7
    at |= word
    tail = np.flatnonzero(flat[m:])
    if tail.size:
        at = np.concatenate([at, tail + m])
    rows = at // d
    return at, (at - rows * d).astype(np.int32), np.bincount(rows, minlength=r)


def _csr_rows(n: int, d: int, blocks: list) -> sp.csr_matrix:
    """The n x d CSR matrix whose row blocks, in order, are ``blocks``, each
    the (int32 columns, per-row counts, float64 values) of its nonzeros."""
    empty = (np.zeros(0, np.int32), np.zeros(0, np.int64), np.zeros(0))
    cols, counts, data = (np.concatenate(part) for part in zip(empty, *blocks))
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    return sp.csr_matrix((data, cols, indptr), shape=(n, d))


def _stored_features(X, n: int):
    """X checked (float64, n rows, finite, else a DatasetError) and in the
    form the package stores and computes with: CSR when that takes at most
    half the dense bytes (``_csr_smaller``), else dense.

    A scipy sparse X becomes canonical CSR (duplicates summed, indices
    sorted, explicit zeros kept, copied only to do so), and its dense twin
    (``_dense``) when its stored entries are too many. An array is read a
    row slice at a time for the finite check and its count of nonzeros, and
    comes back as itself, or, when that count is small enough, as its CSR
    copy, made in a second pass over the slices. The copy stores every
    entry whose bits are not those of +0.0, ``-0.0`` included, so
    ``_dense`` gives X back bit for bit.
    """
    if sp.issparse(X):
        X = sp.csr_matrix(X, dtype=np.float64)
        if not X.has_canonical_format:
            X = X.copy()
            X.sum_duplicates()
    else:
        X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] != n:
        raise DatasetError(f"features have shape {X.shape}, expected ({n}, num_features)")
    d = X.shape[1]
    if sp.issparse(X):
        if not np.isfinite(X.data).all():
            raise DatasetError("features contain NaN or infinity")
        return X if _csr_smaller(n, d, X.nnz) else _dense(X)
    step = _slice_len(8 * d)    # float64 rows of a slice
    nnz = 0
    for start in range(0, n, step):
        block = X[start:start + step]
        if not np.isfinite(block).all():
            raise DatasetError("features contain NaN or infinity")
        if nnz is not None:
            nnz += np.count_nonzero(block.view(np.int64))
            if not _csr_smaller(n, d, nnz):
                nnz = None  # the rest is only checked
    if nnz is None:
        return X
    blocks = []
    for start in range(0, n, step):     # counted first: a dense X extracts nothing
        block = X[start:start + step]
        at, cols, counts = _row_nonzeros(block.view(np.int64) != 0)
        blocks.append((cols, counts, block.reshape(-1)[at]))
    return _csr_rows(n, d, blocks)


def _dense(X, rows=None) -> np.ndarray:
    """X's rows ``rows`` (every row when None) as a dense array, bit for bit: a
    dense X's own rows (X itself for None), or a canonical CSR or CSC X's
    stored values each written, not added to a zero, into a new array, so a
    stored ``-0.0`` keeps its sign, which ``toarray`` loses."""
    if not sp.issparse(X):
        X = np.asarray(X, dtype=np.float64)
        return X if rows is None else X[rows]
    if rows is not None:
        X = X[rows]
    out = np.zeros(X.shape)
    major = np.repeat(np.arange(X.indptr.size - 1), np.diff(X.indptr))
    out[(major, X.indices) if X.format == "csr" else (X.indices, major)] = X.data
    return out
