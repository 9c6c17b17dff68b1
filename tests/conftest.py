from contextlib import contextmanager

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


@contextmanager
def raw_rows(problem, q1=None):
    """The raw iterate of every row of the one solve of ``problem`` from
    ``q1`` run inside the block.

    Wraps ``augustin.petz_augustin_step`` and keeps, for each step, the last
    state it returned: the row the solver kept, since a refused mixed point
    is swept before the plain sweep of the same step.  Yields ``rows``;
    ``rows(report)`` returns ``initial_state(problem, q1)`` (the solver's
    default start for ``None``) and the kept states of steps 1 to
    ``len(report.iterates) - 1``, after checking them against the report:
    each has its row's ``f_value`` and ``trace``, and a swept last row is
    ``report.state`` itself.
    """
    step = augustin.petz_augustin_step
    kept = {}

    def keeping(problem, state):
        new = step(problem, state)
        kept[new.step] = new
        return new

    def rows(report):
        start = augustin._uniform_start(problem) if q1 is None else q1
        states = [augustin.initial_state(problem, start)]
        states += [kept[k] for k in range(1, len(report.iterates))]
        for state, row in zip(states, report.iterates, strict=True):
            assert (state.f_value, state.trace) == (row.f_value, row.trace)
        assert len(states) == 1 or states[-1] is report.state
        return states

    augustin.petz_augustin_step = keeping
    try:
        yield rows
    finally:
        augustin.petz_augustin_step = step


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)
