import numpy as np
import pytest

from augustin_lab import augustin
from augustin_lab.linalg import hermitize


def random_spd(rng, d, *, complex_entries=True):
    """Random comfortably-conditioned positive definite matrix."""
    if complex_entries:
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    else:
        g = rng.standard_normal((d, d))
    return hermitize(g @ g.conj().T + 0.1 * np.eye(d))


def random_simplex(rng, d):
    return rng.dirichlet(np.ones(d))


def plain(monkeypatch):
    # a memory that never fills: every row is the paper's sweep
    monkeypatch.setattr(augustin, "MIX_START", augustin.MIX_DEPTH + 1)


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)
