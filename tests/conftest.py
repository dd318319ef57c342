import os

# The command line's BLAS setting, one thread per process, made before
# numpy loads: otherwise every forked sweep worker runs its own BLAS
# thread pool, and the workers oversubscribe the CPUs.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

import pytest

from holderlab import conductivity, elasticity, numerics


@pytest.fixture
def backsolves(monkeypatch):
    """One entry per full back-substitution (numerics.back_solve), at
    the name under which each forward problem's module calls it."""
    calls = []
    real = numerics.back_solve

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    for module in (conductivity, elasticity):
        monkeypatch.setattr(module, "back_solve", counted)
    return calls
