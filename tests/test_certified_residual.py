"""The certificate column of the sweep above order 1/2, the Banach distance
bound on the report, and the library import staying free of scipy."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import augustin_lab
from augustin_lab import augustin
from augustin_lab.augustin import certificate, contraction_factor, solve_petz_augustin
from augustin_lab.divergences import AugustinProblem, ClassicalAugustinProblem
from augustin_lab.linalg import matrix_power, random_density_ensemble, thompson_metric_psd
from conftest import random_simplex


def normalized_power(state, alpha):
    return state.power * state.trace ** (alpha - 1.0)


def certificates(problem, report):
    return [certificate(problem, s) for s in report.raw_iterates[1:]]


orders = st.one_of(
    st.floats(0.5, 1.0, exclude_min=True, exclude_max=True),
    st.floats(1.0, 6.0, exclude_min=True, exclude_max=True),
)


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(1, 6),
    d=st.integers(1, 8),
    alpha=orders,
    seed=st.integers(0, 2**31),
    mix=st.floats(0.5, 1.0),
)
def test_bound_is_at_least_the_exact_residual(n, d, alpha, seed, mix):
    # Every row's residual is its certificate r, and kappa / (1 - kappa) * r
    # bounds the row's Thompson distance to the fixed point N*, here reached
    # through a long reference run within its own bound.  The bound assumes
    # exact eigendecompositions, so the computed distance may exceed it by
    # the eigensolver's rounding, about eps * cond(Q*)^|1-alpha|.  Mixing
    # with I/d keeps every state's condition number below 5, which keeps that
    # rounding under the 1e-12 allowance at every order drawn here (a single
    # unmixed state at alpha near 6 puts it near 1e-7).
    rng = np.random.default_rng(seed)
    states = [
        (1.0 - mix) * s + mix * np.eye(d) / d for s in random_density_ensemble(seed, n, d)
    ]
    problem = AugustinProblem.create(states, rng.dirichlet(np.ones(n)), alpha)
    report = solve_petz_augustin(problem, keep_iterates=True)
    reported = report.iterates.column("residual_thompson")[1:]
    assert reported == certificates(problem, report)
    ref = solve_petz_augustin(problem, max_iter=2000, residual_tol=1e-14)
    ref_power = normalized_power(ref.state, alpha)
    scale = contraction_factor(alpha) / (1.0 - contraction_factor(alpha))
    for r, state in zip(reported, report.raw_iterates[1:]):
        distance = thompson_metric_psd(normalized_power(state, alpha), ref_power)
        assert scale * r + ref.distance_bound >= distance - 1e-12


def test_single_state_bound_vanishes_after_one_sweep():
    a = random_density_ensemble(4, 1, 3)[0]
    problem = AugustinProblem.create([a], [1.0], 1.5)
    report = solve_petz_augustin(problem, max_iter=5, residual_tol=0.0)
    assert all(r <= 1e-14 for r in report.iterates.column("residual_thompson")[2:])


def test_matrix_solve_calls_exact_metric_at_most_once(monkeypatch):
    # above order 1/2 the residual column is the O(n) certificate
    calls = []

    def counted(u, v):
        calls.append(1)
        return thompson_metric_psd(u, v)

    monkeypatch.setattr(augustin, "thompson_metric_psd", counted)
    problem = AugustinProblem.create(random_density_ensemble(21, 4, 8), np.full(4, 0.25), 1.5)
    report = solve_petz_augustin(problem, max_iter=30, residual_tol=0.0)
    assert len(report.iterates) == 31
    assert calls == []


@pytest.mark.parametrize("alpha", [0.8, 3.0])
def test_vector_form_keeps_the_exact_residual(alpha):
    rng = np.random.default_rng(31)
    points = np.stack([random_simplex(rng, 5) for _ in range(4)])
    problem = ClassicalAugustinProblem.create(points, np.full(4, 0.25), alpha)
    report = solve_petz_augustin(problem, max_iter=10, residual_tol=0.0, keep_iterates=True)
    assert report.iterates.column("residual_thompson")[1:] == certificates(problem, report)


@pytest.mark.parametrize("alpha", [0.6, 0.8, 1.5, 3.0])
@pytest.mark.parametrize("seed,n,d", [(41, 3, 4), (42, 5, 8), (43, 2, 2)])
def test_distance_bound_covers_the_distance_to_the_fixed_point(alpha, seed, n, d):
    problem = AugustinProblem.create(random_density_ensemble(seed, n, d), np.full(n, 1.0 / n), alpha)
    ref = solve_petz_augustin(problem, max_iter=2000, residual_tol=1e-13)
    ref_power = matrix_power(ref.final, 1.0 - alpha)
    for max_iter in (1, 2, 5, 10, 200):
        report = solve_petz_augustin(problem, max_iter=max_iter)
        distance = thompson_metric_psd(matrix_power(report.final, 1.0 - alpha), ref_power)
        assert distance <= report.distance_bound + ref.distance_bound + 1e-12


def test_distance_bound_is_absent_without_a_guarantee():
    problem = AugustinProblem.create(random_density_ensemble(51, 3, 4), np.full(3, 1 / 3), 0.4)
    assert solve_petz_augustin(problem, max_iter=5).distance_bound is None


def test_import_does_not_load_scipy():
    src = str(Path(augustin_lab.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c", "import sys, augustin_lab; print('scipy' in sys.modules)"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"
