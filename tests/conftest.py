import pytest

from dickelab import eigen


@pytest.fixture
def dstevd_calls(monkeypatch):
    """Count the calls eigen makes to LAPACK dstevd, by matrix size."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[0].size)
        return real(*args, **kwargs)

    real = eigen.dstevd
    monkeypatch.setattr(eigen, "dstevd", counting)
    return calls
