"""The dense-size guard and its environment override."""

import pytest

from zen import GuardError
from zen.sparsetools import dense_guard


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
