"""The dense-size guard and its environment override, and the row-block
nonzero scan the stored feature form is built from."""

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings, strategies as st

from zen import GuardError
from zen.sparsetools import _row_nonzeros, dense_guard


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


# masks of any shape, a length that is or is not a multiple of the 8-entry
# words, at densities on both sides of the 10% where numpy changes method
@settings(max_examples=300, deadline=None)
@given(rows=st.integers(0, 9), cols=st.integers(1, 20),
       density=st.sampled_from([0.0, 0.02, 0.09, 0.11, 0.5, 1.0]),
       seed=st.integers(0, 2**32 - 1))
def test_row_nonzeros_match_numpy(rows, cols, density, seed):
    mask = np.random.default_rng(seed).random((rows, cols)) < density
    at, got_cols, counts = _row_nonzeros(mask)
    npt.assert_array_equal(at, np.flatnonzero(mask))
    assert got_cols.dtype == np.int32
    npt.assert_array_equal(got_cols, np.nonzero(mask)[1])
    npt.assert_array_equal(counts, np.count_nonzero(mask, axis=1))
