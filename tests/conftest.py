import pytest
import scipy.linalg


@pytest.fixture
def backsolves(monkeypatch):
    """One entry per call of LAPACK's full banded back-substitution
    (pbtrs), which numerics looks up as an attribute of scipy.linalg."""
    calls = []
    real = scipy.linalg.cho_solve_banded

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(scipy.linalg, "cho_solve_banded", counted)
    return calls
