# This import must come first: the command line pins BLAS to one thread
# per process before numpy loads, so the tests' solves run as the
# commands' do (sweep workers set one thread themselves either way).
import holderlab.cli  # noqa: F401

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
