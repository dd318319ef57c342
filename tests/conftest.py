import os

# The command line's BLAS setting, one thread per process, made before
# numpy loads: otherwise every forked sweep worker runs its own BLAS
# thread pool, and the workers oversubscribe the CPUs.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

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
