"""One sweep loop: the sweep does not re-validate its own products, a run of
plain sweeps resumes from a kept iterate bit for bit, and the capacity
oracle, which runs that loop, turns a non-finite stop into a typed error."""

import math
import sys
from dataclasses import replace

import numpy as np
import pytest

from augustin_lab import augustin, linalg
from augustin_lab.augustin import initial_state, petz_augustin_step, solve_petz_augustin
from augustin_lab.capacity import CapacityProblem, approx_oracle_detailed
from augustin_lab.divergences import AugustinProblem, ClassicalAugustinProblem
from augustin_lab.errors import NonFinite
from augustin_lab.linalg import random_density_ensemble
from conftest import plain, random_simplex, raw_rows


def matrix_problem(alpha):
    return AugustinProblem.create(random_density_ensemble(91, 3, 4), np.full(3, 1 / 3), alpha)


def vector_problem(alpha):
    rng = np.random.default_rng(92)
    points = np.stack([random_simplex(rng, 5) for _ in range(3)])
    return ClassicalAugustinProblem.create(points, np.full(3, 1 / 3), alpha)


def test_sweeps_do_not_hermitize(monkeypatch):
    p = matrix_problem(1.5)
    state = initial_state(p, np.eye(4, dtype=complex) / 4)
    calls = []
    original = linalg.hermitize

    def counting(a):
        calls.append(1)
        return original(a)

    for name, module in list(sys.modules.items()):
        if name == "augustin_lab" or name.startswith("augustin_lab."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counting)
    for _ in range(20):
        state = petz_augustin_step(p, state)
    assert state.step == 20
    assert calls == []


RESUME_CASES = {
    "matrix-0.8": lambda: matrix_problem(0.8),
    "matrix-1.5": lambda: matrix_problem(1.5),
    "vector-1.5": lambda: vector_problem(1.5),
    # orders at or below 1/2 renormalize the carried iterate every sweep
    "matrix-0.4": lambda: matrix_problem(0.4),
}


@pytest.mark.parametrize("case", sorted(RESUME_CASES))
def test_resume_from_kept_iterate_is_bit_identical(case, monkeypatch):
    # a resumed run starts an empty Anderson memory, so compare plain sweeps
    plain(monkeypatch)
    p = RESUME_CASES[case]()
    k = 4
    with raw_rows(p) as rows:
        full = solve_petz_augustin(p, max_iter=40)
    full_rows = rows(full)
    with raw_rows(p, full_rows[k]) as rows:
        rest = solve_petz_augustin(p, full_rows[k], max_iter=40 - k)
    rest_rows = rows(rest)
    assert rest.stop_reason == full.stop_reason
    assert len(rest_rows) == len(full_rows) - k > 2
    for a, b in zip(full_rows[k:], rest_rows):
        assert b.step + k == a.step
        for name in ("matrix", "power", "pairings", "coefficients"):
            assert np.array_equal(getattr(a, name), getattr(b, name))
        assert (b.trace, b.f_value) == (a.trace, a.f_value)
    rows = full.iterates.rows[k:]
    for i, (a, b) in enumerate(zip(rows, rest.iterates.rows)):
        assert b.step + k == a.step
        assert (b.f_value, b.trace) == (a.f_value, a.trace)
        if i > 0:
            assert b.residual_thompson == a.residual_thompson
    assert np.array_equal(rest.final, full.final)
    assert rest.distance_bound == full.distance_bound


def test_oracle_raises_non_finite_on_a_non_finite_sweep(monkeypatch):
    def blow_up(problem, state):
        return replace(petz_augustin_step(problem, state), f_value=math.inf)

    monkeypatch.setattr(augustin, "petz_augustin_step", blow_up)
    p = CapacityProblem.create(random_density_ensemble(4104, 4, 2), 0.8)
    with pytest.raises(NonFinite):
        approx_oracle_detailed(p, np.full(4, 0.25), 1e-9)
