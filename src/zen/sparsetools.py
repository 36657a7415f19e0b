"""Small helpers: canonical CSR form, the dense-size guard, and the scratch
budget of the loops that fill a large array a slice at a time."""

from __future__ import annotations

import os

import scipy.sparse as sp

from .errors import GuardError

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


def compact(mat) -> sp.csr_matrix:
    """Return `mat` as a canonical CSR matrix.

    Canonical means: duplicate entries summed, column indices sorted within each
    row, and explicitly stored zeros dropped. Every matrix this package hands
    out goes through here so equality and export are deterministic.
    """
    out = sp.csr_matrix(mat)
    out.sum_duplicates()
    out.eliminate_zeros()
    out.sort_indices()
    return out
