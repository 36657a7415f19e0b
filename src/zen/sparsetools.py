"""Small helpers around scipy CSR matrices: canonical form and the dense-size guard."""

from __future__ import annotations

import os

import scipy.sparse as sp

from .errors import GuardError

DEFAULT_DENSE_GUARD = 2000


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
