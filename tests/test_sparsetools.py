"""Canonical-form and dense-guard helpers."""

import numpy as np
import numpy.testing as npt
import pytest
import scipy.sparse as sp

from zen import GuardError
from zen.sparsetools import compact, dense_guard


def test_compact_merges_duplicates_and_drops_zeros():
    m = sp.coo_matrix(([1.0, 2.0, 3.0, -3.0], ([0, 0, 1, 1], [1, 1, 0, 0])), shape=(2, 2))
    out = compact(m)
    assert out.nnz == 1
    npt.assert_allclose(out.toarray(), [[0, 3], [0, 0]])
    assert out.has_canonical_format


def test_dense_guard_env_override(monkeypatch):
    monkeypatch.delenv("ZEN_DENSE_GUARD", raising=False)
    assert dense_guard() == 2000
    monkeypatch.setenv("ZEN_DENSE_GUARD", "123")
    assert dense_guard() == 123
    monkeypatch.setenv("ZEN_DENSE_GUARD", "abc")
    with pytest.raises(GuardError):
        dense_guard()
    monkeypatch.setenv("ZEN_DENSE_GUARD", "0")
    with pytest.raises(GuardError):
        dense_guard()
