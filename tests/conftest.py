"""Shared fixtures."""

import pytest


class _NoNumpy:
    """Stands in for a module's numpy: any array operation is a failure."""

    def __getattr__(self, name):
        raise AssertionError(f"np.{name} used past the cap")


@pytest.fixture
def no_numpy(monkeypatch):
    """Call with a module to make every numpy use inside it fail, so a cap
    that raises before its first allocation is the only way through."""
    return lambda module: monkeypatch.setattr(module, "np", _NoNumpy())
