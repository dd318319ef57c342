import os

# The command line's BLAS setting, one thread per process, made before
# numpy loads, so the tests' solves run as the commands' do (sweep
# workers set one thread themselves either way).
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

import pytest

from holderlab import operators


@pytest.fixture
def backsolves(monkeypatch):
    """One entry per full back-substitution (numerics.back_solve), at
    the name under which operators.ForwardProblem calls it."""
    calls = []
    real = operators.back_solve

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(operators, "back_solve", counted)
    return calls
