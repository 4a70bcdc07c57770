import contextlib

import pytest

from treebsde import bsde


@pytest.fixture
def enumeration_cap(monkeypatch):
    """enumeration_cap(k): a context in which every enumeration's cap,
    bsde.ENUMERATION_CAP, is k; brute-force references outside it keep 10^6."""
    @contextlib.contextmanager
    def patched(cap):
        with monkeypatch.context() as m:
            m.setattr(bsde, "ENUMERATION_CAP", cap)
            yield
    return patched
