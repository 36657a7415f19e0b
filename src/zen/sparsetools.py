"""Small helpers: the dense-size guard, the scratch budget of the loops
that fill a large array a slice at a time, and the one feature contract:
``_stored_features`` checks and stores X (float64, n rows, finite, CSR
when ``_sparse_enough``, else dense) for ``Dataset``, ``load_features``'
text route and ``propagated_basis``, and ``_dense`` reads its rows back,
bit for bit. The grid loader builds the same form straight from a file's
bytes."""

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
    """Whether an n x d X with nnz nonzeros is stored and multiplied as CSR.

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
    to its faster route.
    """
    return 32 * (n + nnz) <= n * d


def _csr_rows(n: int, d: int, flat: np.ndarray, data: np.ndarray) -> sp.csr_matrix:
    """The n x d CSR matrix holding ``data`` at the ascending row-major
    positions ``flat``."""
    rows, cols = np.divmod(flat, d)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    return sp.csr_matrix((data, cols, indptr), shape=(n, d))


def _stored_features(X, n: int):
    """X checked (float64, n rows, finite, else a DatasetError) and in the
    form the package stores and computes with.

    A scipy sparse X becomes canonical CSR (duplicates summed, indices
    sorted, explicit zeros kept, copied only to do so). An array is read
    once, a row slice at a time, for the finite check and its nonzeros
    together, and comes back as itself, or as its CSR copy when sparse
    enough. The copy stores every entry whose bits are not those of +0.0,
    ``-0.0`` included, so ``_dense`` gives X back bit for bit.
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
    if sp.issparse(X):
        if not np.isfinite(X.data).all():
            raise DatasetError("features contain NaN or infinity")
        return X
    d = X.shape[1]
    step = _slice_len(8 * d)    # rows whose int64 positions fill a slice
    found, nnz = [np.zeros(0, dtype=np.int64)], 0
    for start in range(0, n, step):
        block = X[start:start + step]
        if not np.isfinite(block).all():
            raise DatasetError("features contain NaN or infinity")
        if found is not None:
            found.append(np.flatnonzero(block.view(np.int64)) + start * d)
            nnz += found[-1].size
            if not _sparse_enough(n, d, nnz):
                found = None    # the rest is only checked
    if found is None:
        return X
    flat = np.concatenate(found)
    return _csr_rows(n, d, flat, X[np.divmod(flat, d)])


def _dense(X, rows=None) -> np.ndarray:
    """X's rows ``rows`` (every row when None) as a dense array, bit for bit: a
    dense X's own rows (X itself for None), or a canonical CSR X's stored
    values each written, not added to a zero, into a new array, so a stored
    ``-0.0`` keeps its sign, which ``toarray`` loses."""
    if not sp.issparse(X):
        X = np.asarray(X, dtype=np.float64)
        return X if rows is None else X[rows]
    if rows is not None:
        X = X[rows]
    out = np.zeros(X.shape)
    out[np.repeat(np.arange(X.shape[0]), np.diff(X.indptr)), X.indices] = X.data
    return out
