"""Iterates carry the coefficients c_j of the combination they were swept
from, so the solver's O(n) certificate holds from any carried start (a warm
start or a resume under other weights included), the report keeps the last
raw iterate, and a start or a resume checks that it fits the problem."""

from contextlib import nullcontext

import numpy as np
import pytest

from augustin_lab import capacity
from augustin_lab.augustin import (
    _renormalized,
    apply_T_F,
    contraction_factor,
    initial_state,
    solve_petz_augustin,
)
from augustin_lab.capacity import CapacityProblem, approx_oracle_detailed
from augustin_lab.divergences import AugustinProblem, ClassicalAugustinProblem
from augustin_lab.errors import InvalidInput
from augustin_lab.linalg import matrix_power, random_density_ensemble, thompson_metric_psd
from conftest import raw_rows


def mixed_states(seed, n, d):
    # The bound assumes exact eigendecompositions; mixing with I/d keeps the
    # eigensolver's rounding under the 1e-12 slack, as in
    # test_bound_is_at_least_the_exact_residual.
    return [0.5 * s + 0.5 * np.eye(d) / d for s in random_density_ensemble(seed, n, d)]


def first_row_is_certified(problem, report, first):
    """kappa / (1 - kappa) times the first row's residual bounds d_T(N_1, N*)
    from the first row's iterate ``first`` to the problem's fixed point,
    reached through a long reference run within its own bound."""
    alpha = problem.order
    kappa = contraction_factor(alpha)
    ref = solve_petz_augustin(problem, max_iter=2000, residual_tol=1e-14)
    distance = thompson_metric_psd(
        first.power * first.trace ** (alpha - 1.0),
        ref.state.power * ref.state.trace ** (alpha - 1.0),
    )
    bound = kappa / (1.0 - kappa) * report.iterates.rows[1].residual_thompson
    return bound + ref.distance_bound >= distance - 1e-12


@pytest.mark.parametrize("alpha", [0.6, 0.8])
def test_warm_oracle_call_under_new_weights_bounds_the_first_move(alpha, monkeypatch):
    reports = []
    solve = capacity.solve_petz_augustin

    def keeping(problem, start, **kwargs):
        with raw_rows(problem, start) as rows:
            report = solve(problem, start, **kwargs)
        reports.append((problem, report, rows(report)))
        return report

    monkeypatch.setattr(capacity, "solve_petz_augustin", keeping)
    rng = np.random.default_rng(7)
    p = CapacityProblem.create(mixed_states(4200, 4, 3), alpha)
    result = approx_oracle_detailed(p, np.full(4, 0.25), 1e-9)
    for _ in range(8):
        result = approx_oracle_detailed(p, rng.dirichlet(np.ones(4)), 1e-9, start=result.state)
        problem, report, rows = reports[-1]
        assert rows[0].coefficients is not None
        assert first_row_is_certified(problem, report, rows[1])


@pytest.mark.parametrize("alpha", [1.5, 3.0])
def test_resume_under_other_weights_bounds_the_first_move(alpha):
    rng = np.random.default_rng(8)
    states = mixed_states(4201, 4, 3)
    first = AugustinProblem.create(states, rng.dirichlet(np.ones(4)), alpha)
    with raw_rows(first) as rows:
        run = solve_petz_augustin(first, max_iter=6, residual_tol=0.0)
    for start in rows(run)[1:]:
        other = AugustinProblem.create(states, rng.dirichlet(np.ones(4)), alpha)
        report = solve_petz_augustin(other, start, max_iter=1, residual_tol=0.0)
        assert first_row_is_certified(other, report, report.state)


def rebuilt(problem, state):
    """(sum_j c_j A_j^alpha)^(1/alpha) from the state's coefficients."""
    s = np.tensordot(state.coefficients, problem.state_powers, axes=1)
    return matrix_power(s, 1.0 / problem.order)


@pytest.mark.parametrize("alpha", [0.4, 0.8, 1.5, 3.0])
def test_renormalized_coefficients_rebuild_the_unit_trace_iterate(alpha):
    problem = AugustinProblem.create(random_density_ensemble(4202, 3, 4), [0.2, 0.3, 0.5], alpha)
    raw = solve_petz_augustin(problem, max_iter=5, residual_tol=0.0).state
    state = _renormalized(raw, alpha)
    assert raw.trace != 1.0 and state.trace == 1.0
    error = np.linalg.norm(rebuilt(problem, state) - state.matrix)
    assert error <= 1e-12 * np.linalg.norm(state.matrix)


def test_oracle_state_coefficients_rebuild_its_iterate():
    p = CapacityProblem.create(random_density_ensemble(4203, 4, 2), 0.7)
    w = np.array([0.1, 0.2, 0.3, 0.4])
    state = approx_oracle_detailed(p, w, 1e-9).state
    assert state.trace == 1.0
    error = np.linalg.norm(rebuilt(p.weighted(w), state) - state.matrix)
    assert error <= 1e-12 * np.linalg.norm(state.matrix)


@pytest.mark.parametrize("keep", [False, True])
def test_report_keeps_the_last_raw_iterate(keep):
    # with ``keep`` the rows are recorded as well, which leaves the run alone
    problem = AugustinProblem.create(random_density_ensemble(4204, 3, 4), np.full(3, 1 / 3), 1.5)
    with raw_rows(problem) if keep else nullcontext() as rows:
        report = solve_petz_augustin(problem, max_iter=7, residual_tol=0.0)
    assert report.state.step == 7
    assert np.array_equal(report.final, report.state.matrix / report.state.trace)
    if keep:
        assert report.state is rows(report)[-1]


def test_resume_into_another_dimension_raises():
    four = AugustinProblem.create(random_density_ensemble(4205, 3, 4), np.full(3, 1 / 3), 1.5)
    five = AugustinProblem.create(random_density_ensemble(4205, 3, 5), np.full(3, 1 / 3), 1.5)
    last = solve_petz_augustin(four, max_iter=3).state
    with pytest.raises(InvalidInput, match="shape"):
        solve_petz_augustin(five, last)
    vector = ClassicalAugustinProblem.create(np.full((3, 4), 0.25), np.full(3, 1 / 3), 1.5)
    with pytest.raises(InvalidInput, match="shape"):
        initial_state(vector, last)


def test_resume_into_another_number_of_states_raises():
    states = random_density_ensemble(4206, 4, 3)
    three = AugustinProblem.create(states[:3], np.full(3, 1 / 3), 0.8)
    four = AugustinProblem.create(states, np.full(4, 0.25), 0.8)
    last = solve_petz_augustin(three, max_iter=3).state
    with pytest.raises(InvalidInput, match="3 states"):
        solve_petz_augustin(four, last)


def four(form):
    if form == "matrix":
        return AugustinProblem.create(random_density_ensemble(4207, 3, 4), np.full(3, 1 / 3), 1.5)
    return ClassicalAugustinProblem.create(np.full((3, 4), 0.25), np.full(3, 1 / 3), 1.5)


@pytest.mark.parametrize(
    "call, form, wrong",
    [
        (solve_petz_augustin, "matrix", np.eye(3) / 3),
        (solve_petz_augustin, "matrix", np.full(4, 0.25)),
        (solve_petz_augustin, "vector", np.full(5, 0.2)),
        (solve_petz_augustin, "vector", np.eye(4) / 4),
        (apply_T_F, "matrix", np.eye(3) / 3),
        (apply_T_F, "vector", np.full(5, 0.2)),
        (apply_T_F, "vector", np.eye(4) / 4),
    ],
    ids=["start-3x3", "start-vector", "start-5", "start-4x4", "T-3x3", "T-5", "T-4x4"],
)
def test_an_argument_of_the_wrong_shape_raises(call, form, wrong):
    with pytest.raises(InvalidInput, match="shape"):
        call(four(form), wrong)
