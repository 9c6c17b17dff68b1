"""The solver at orders above 1/2: it stops on the O(n) oscillation
certificate, accelerates by safeguarded Anderson mixing of the log-pairings,
computes the pairings as one real GEMV, and stops a numerically singular
combination with a typed reason.  The property tests run on inputs that
stress the numerical floors."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from augustin_lab import augustin
from augustin_lab.augustin import (
    STOP_MAX_ITER,
    STOP_NON_FINITE,
    STOP_RESIDUAL,
    STOP_SINGULAR,
    _pairings,
    certificate,
    contraction_factor,
    initial_state,
    petz_augustin_step,
    solve_petz_augustin,
)
from augustin_lab.capacity import CapacityProblem, approx_oracle_detailed
from augustin_lab.divergences import AugustinProblem, ClassicalAugustinProblem
from augustin_lab.errors import DegenerateTrace, SingularMatrix
from augustin_lab.linalg import matrix_power, random_density_ensemble, thompson_metric_psd
from reference import diagonal_embedding
from conftest import plain

# From I/d the memory holds its MIX_START-th difference after the row swept
# from step MIX_START, so the first mixed point is swept from this step.
FIRST_MIX = augustin.MIX_START + 1


def counting_steps(monkeypatch):
    calls = []

    def counted(problem, state):
        calls.append(state.step)
        return petz_augustin_step(problem, state)

    monkeypatch.setattr(augustin, "petz_augustin_step", counted)
    return calls


def assert_plain_from(problem, raw, start):
    """Every row after raw[start] is the plain sweep of the row before it."""
    for old, new in zip(raw[start:], raw[start + 1 :]):
        assert np.array_equal(petz_augustin_step(problem, old).matrix, new.matrix)


def density(rng, d, rank, real=False):
    g = rng.standard_normal((d, rank))
    if not real:
        g = g + 1j * rng.standard_normal((d, rank))
    m = g @ g.conj().T
    return m / np.trace(m).real


# ---------------------------------------------------------------------------
# pairings, carried states and the singular stop
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("real_states", [False, True])
@pytest.mark.parametrize("real_power", [False, True])
def test_gemv_pairings_match_the_trace(real_states, real_power):
    rng = np.random.default_rng(5)
    states = [density(rng, 5, 5, real=real_states) for _ in range(4)]
    problem = AugustinProblem.create(states, np.full(4, 0.25), 1.5)
    power = matrix_power(density(rng, 5, 5, real=real_power), -0.5)
    expected = np.real(np.einsum("nij,ji->n", problem.state_powers, power))
    got = _pairings(problem, power)
    assert np.abs(got - expected).max() <= 1e-14 * np.abs(expected).max()


def test_resumed_state_reuses_its_pairings():
    states = random_density_ensemble(61, 3, 4)
    first = AugustinProblem.create(states, [0.2, 0.3, 0.5], 1.5)
    other = AugustinProblem.create(states, [0.5, 0.3, 0.2], 1.5)
    last = solve_petz_augustin(first, max_iter=4, residual_tol=0.0).state
    start = initial_state(other, last)
    assert start.pairings is last.pairings and start.step == 0
    recomputed = initial_state(other, last.matrix)
    assert start.f_value == pytest.approx(recomputed.f_value, rel=1e-12)


def nearpure_problem(alpha):
    rng = np.random.default_rng(62)
    d, eps = 4, 1e-6
    states = [(1 - eps) * density(rng, d, 1) + eps * np.eye(d) / d for _ in range(2)]
    return AugustinProblem.create(states, [0.5, 0.5], alpha)


@pytest.mark.parametrize("alpha", [3.0, 5.0])
def test_nearpure_combination_stops_singular(alpha):
    # two near-pure states in dimension 4: the sum of the states passes the
    # full-rank check, but the alpha power pushes the combination's smallest
    # eigenvalue to about (1e-6 / 4)^alpha of its largest
    report = solve_petz_augustin(nearpure_problem(alpha))
    assert report.stop_reason == STOP_SINGULAR
    assert "eigenvalue ratio" in report.detail
    ratio = float(report.detail.split("eigenvalue ratio ")[1].split()[0])
    assert ratio <= augustin.EIG_FLOOR
    assert len(report.iterates) == 1 and report.distance_bound is None


def test_nearpure_at_a_milder_order_converges():
    report = solve_petz_augustin(nearpure_problem(1.5))
    assert report.stop_reason == STOP_RESIDUAL and report.detail == ""


@pytest.mark.parametrize("alpha, ratio", [(5.0, 1e-6), (3.0, 1e-10)])
def test_ill_conditioned_start_is_no_singular_combination(alpha, ratio):
    # Q1^(1-alpha) has condition number ratio^(1-alpha), too large for a
    # Cholesky factor; no combination is refused, and every row after the
    # start carries its certificate
    problem = AugustinProblem.create(random_density_ensemble(3, 3, 4), np.full(3, 1 / 3), alpha)
    rng = np.random.default_rng(0)
    u = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))[0]
    lam = np.array([1.0, ratio, 0.5, 0.3])
    report = solve_petz_augustin(problem, (u * (lam / lam.sum())) @ u.conj().T)
    assert report.stop_reason == STOP_RESIDUAL and report.detail == ""
    residuals = report.iterates.column("residual_thompson")
    assert all(r is not None for r in residuals[1:])
    reference = solve_petz_augustin(problem, max_iter=2000, residual_tol=1e-14).final
    distance = thompson_metric_psd(
        matrix_power(report.final, 1 - alpha), matrix_power(reference, 1 - alpha)
    )
    assert distance <= report.distance_bound


def test_oracle_raises_singular_matrix_on_a_singular_combination(monkeypatch):
    split = augustin._spectral_split

    def deflated(problem, s):
        # remove the smallest eigenvalue: the real refusal then fires
        return split(problem, s - np.linalg.eigvalsh(s)[0] * np.eye(len(s)))

    monkeypatch.setattr(augustin, "_spectral_split", deflated)
    p = CapacityProblem.create(random_density_ensemble(4107, 4, 2), 0.8)
    with pytest.raises(SingularMatrix, match=r"order 0\.8: .*eigenvalue ratio"):
        approx_oracle_detailed(p, np.full(4, 0.25), 1e-9)


# ---------------------------------------------------------------------------
# certificate stop and safeguarded mixing
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("alpha", [0.6, 0.8, 1.5, 3.0, 5.0])
def test_plain_certificate_stop_fires_no_later_than_the_move_stop(alpha, monkeypatch):
    plain(monkeypatch)
    problem = AugustinProblem.create(random_density_ensemble(63, 5, 6), np.full(5, 0.2), alpha)
    # a plain run stops at the first row whose certificate is within 2 * tol
    run = solve_petz_augustin(problem, max_iter=60, residual_tol=0.0, keep_iterates=True)
    certs = [certificate(problem, s) for s in run.raw_iterates[1:]]
    for tol in (1e-4, 1e-7, 1e-10):
        cert_stop = next(t for t, r in enumerate(certs) if r <= 2 * tol)
        report = solve_petz_augustin(problem, residual_tol=tol)
        assert len(report.iterates) == cert_stop + 2


@pytest.mark.parametrize("alpha", [0.8, 1.5, 5.0])
def test_mixing_cuts_sweeps_and_keeps_the_certificate(alpha, monkeypatch):
    rng = np.random.default_rng(64)
    states = [0.999 * density(rng, 8, 2) + 0.001 * np.eye(8) / 8 for _ in range(6)]
    problem = AugustinProblem.create(states, np.full(6, 1 / 6), alpha)
    mixed = solve_petz_augustin(problem)
    plain(monkeypatch)
    reference = solve_petz_augustin(problem)
    assert mixed.stop_reason == reference.stop_reason == STOP_RESIDUAL
    assert len(mixed.iterates) < len(reference.iterates)
    ref_power = matrix_power(reference.final, 1.0 - alpha)
    distance = thompson_metric_psd(matrix_power(mixed.final, 1.0 - alpha), ref_power)
    assert distance <= mixed.distance_bound + reference.distance_bound + 1e-12


def rejected_step(calls):
    """The step a rejected mixed point was swept from: the one step that the
    mixed point and then the plain sweep were both swept from."""
    (step,) = [s for s in set(calls) if calls.count(s) == 2]
    return step


def test_a_run_to_the_rounding_floor_pays_one_rejected_mix(monkeypatch):
    calls = counting_steps(monkeypatch)
    problem = AugustinProblem.create(random_density_ensemble(65, 6, 8), np.full(6, 1 / 6), 1.5)
    report = solve_petz_augustin(problem, max_iter=60, residual_tol=0.0, keep_iterates=True)
    assert report.stop_reason == STOP_MAX_ITER and len(report.iterates) == 61
    assert report.rejected_mixes == 1
    assert len(calls) == 61
    assert_plain_from(problem, report.raw_iterates, rejected_step(calls))


def test_after_a_rejection_every_row_is_the_plain_sweep(monkeypatch):
    calls = counting_steps(monkeypatch)
    problem = AugustinProblem.create(random_density_ensemble(65, 6, 8), np.full(6, 1 / 6), 1.5)
    report = solve_petz_augustin(problem, max_iter=40, residual_tol=0.0, keep_iterates=True)
    off = rejected_step(calls)
    assert off > augustin.MIX_START
    assert_plain_from(problem, report.raw_iterates, off)


def test_a_warm_start_begins_with_plain_sweeps():
    # the memory is the run's own: a run resumed from a kept iterate under
    # the same weights mixes only once it has MIX_START differences again
    problem = AugustinProblem.create(random_density_ensemble(66, 4, 5), np.full(4, 0.25), 3.0)
    first = solve_petz_augustin(problem, max_iter=8, residual_tol=0.0)
    assert first.state.coefficients is not None
    warm = solve_petz_augustin(
        problem, first.state, max_iter=8, residual_tol=0.0, keep_iterates=True
    )
    assert_plain_from(problem, warm.raw_iterates[: augustin.MIX_START + 1], 0)


def test_non_finite_mixed_point_ends_the_run(monkeypatch):
    def blow_up_mixed(problem, state):
        new = petz_augustin_step(problem, state)
        if state.step == FIRST_MIX:
            return replace(new, f_value=math.nan)
        return new

    monkeypatch.setattr(augustin, "petz_augustin_step", blow_up_mixed)
    problem = AugustinProblem.create(random_density_ensemble(67, 4, 5), np.full(4, 0.25), 3.0)
    report = solve_petz_augustin(problem, residual_tol=0.0, max_iter=20)
    assert report.stop_reason == STOP_NON_FINITE
    assert len(report.iterates) == augustin.MIX_START + 2
    assert np.all(np.isfinite(report.final))


@pytest.mark.parametrize("refusal", [DegenerateTrace, SingularMatrix])
def test_a_floor_refusing_the_mixed_point_is_a_rejection(refusal, monkeypatch):
    # at the rounding floor the mixing differences are noise, and a wild
    # mixed point can collapse a pairing; the plain sweep carries on
    refused = []

    def refuse_mixed(problem, state):
        if state.step == FIRST_MIX and not refused:
            refused.append(state.step)
            raise refusal("refused")
        return petz_augustin_step(problem, state)

    monkeypatch.setattr(augustin, "petz_augustin_step", refuse_mixed)
    problem = AugustinProblem.create(random_density_ensemble(68, 4, 5), np.full(4, 0.25), 3.0)
    report = solve_petz_augustin(problem, residual_tol=0.0, max_iter=20, keep_iterates=True)
    assert report.stop_reason == STOP_MAX_ITER and len(report.iterates) == 21
    assert report.rejected_mixes == 1 and refused == [FIRST_MIX]
    assert_plain_from(problem, report.raw_iterates, FIRST_MIX)


@pytest.mark.parametrize("field", ["f_value", "trace"])
def test_a_mixed_point_that_raises_f_or_the_trace_is_rejected(field, monkeypatch):
    bumped = []

    def raise_mixed(problem, state):
        # lift the first mixed point's F just above the previous row's, or
        # its trace just above 1
        new = petz_augustin_step(problem, state)
        if state.step == FIRST_MIX and not bumped:
            bumped.append(state.step)
            value = state.f_value + 1e-9 if field == "f_value" else 1.0 + 1e-12
            return replace(new, **{field: value})
        return new

    monkeypatch.setattr(augustin, "petz_augustin_step", raise_mixed)
    problem = AugustinProblem.create(random_density_ensemble(69, 4, 5), np.full(4, 0.25), 3.0)
    report = solve_petz_augustin(problem, residual_tol=0.0, max_iter=12)
    assert bumped and report.rejected_mixes == 1
    assert all(r.trace <= 1.0 for r in report.iterates.rows)


# ---------------------------------------------------------------------------
# properties on inputs that stress the numerical floors
# ---------------------------------------------------------------------------

orders = st.one_of(
    st.floats(0.55, 0.95),
    st.floats(1.05, 6.0),
)


@st.composite
def stressed(draw):
    n = draw(st.integers(2, 5))
    d = draw(st.integers(2, 5))
    kind = draw(st.sampled_from(["rank-deficient", "tiny-weight", "degenerate", "real"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**31)))
    weights = rng.dirichlet(np.ones(n))
    if kind == "rank-deficient":
        # every state misses a direction; their sum does not
        rank = max(1, min(d - 1, -(-d // n)))
        states = [density(rng, d, rank) for _ in range(n)]
    elif kind == "tiny-weight":
        states = [density(rng, d, d) for _ in range(n)]
        weights[0] = 1e-9
        weights /= weights.sum()
    elif kind == "degenerate":
        # repeated eigenvalues, and a repeated state
        u, _ = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
        spectrum = np.repeat([2.0, 1.0], [d // 2, d - d // 2])
        states = [(u * (spectrum / spectrum.sum())) @ u.conj().T]
        states += [density(rng, d, d) for _ in range(n - 2)]
        states.append(states[-1])
    else:
        states = [density(rng, d, d, real=True) for _ in range(n)]
    return kind, states, weights


def rounding_floor(problem, report):
    """eps * cond(Q)^max(alpha, 1) over the kept rows.  eigh of the
    combination S = Q^alpha returns its small eigenvalues to an absolute
    eps * |S|, so the pairings that F and r read are off by about
    eps * cond(S) relative, and d_T reads Q's own small eigenvalues."""
    conds = []
    for s in report.raw_iterates:
        lam = np.linalg.eigvalsh(s.matrix) if s.matrix.ndim == 2 else s.matrix
        conds.append(lam.max() / lam.min())
    return np.finfo(float).eps * max(conds) ** max(problem.order, 1.0)


def rows_keep_invariants(problem, report):
    alpha = problem.order
    kappa = contraction_factor(alpha)
    slack = 1e-12 + 100 * rounding_floor(problem, report)
    rows = report.iterates.rows
    f = [r.f_value for r in rows]
    if alpha > 1:
        assert all(b <= a + slack for a, b in zip(f, f[1:]))
        assert all(r.trace <= 1.0 + slack for r in rows)
    certs = [certificate(problem, s) for s in report.raw_iterates if s.coefficients is not None]
    # r contracts by kappa in exact arithmetic
    assert all(new <= kappa * old + slack for old, new in zip(certs, certs[1:]))
    return slack


@settings(max_examples=40, deadline=None)
@given(case=stressed(), alpha=orders)
def test_stressed_runs_keep_the_invariants_or_stop_typed(case, alpha):
    kind, states, weights = case
    problem = AugustinProblem.create(states, weights, alpha)
    report = solve_petz_augustin(problem, keep_iterates=True)
    assert np.all(np.isfinite(report.final))
    if report.stop_reason in (STOP_SINGULAR, STOP_NON_FINITE):
        return
    assert report.stop_reason in (STOP_RESIDUAL, STOP_MAX_ITER)
    slack = rows_keep_invariants(problem, report)
    reference = solve_petz_augustin(problem, max_iter=2000, residual_tol=1e-14)
    ref_power = matrix_power(reference.final, 1.0 - alpha)
    distance = thompson_metric_psd(matrix_power(report.final, 1.0 - alpha), ref_power)
    assert distance <= report.distance_bound + reference.distance_bound + slack


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(1, 5),
    d=st.integers(2, 6),
    alpha=orders,
    seed=st.integers(0, 2**31),
    tiny=st.booleans(),
)
def test_matrix_and_vector_forms_agree_on_diagonal_data(n, d, alpha, seed, tiny):
    rng = np.random.default_rng(seed)
    points = rng.dirichlet(np.ones(d), size=n)
    weights = rng.dirichlet(np.ones(n))
    if tiny and n > 1:
        weights[0] = 1e-9
        weights /= weights.sum()
    vector = ClassicalAugustinProblem.create(points, weights, alpha)
    matrix = diagonal_embedding(vector)
    runs = []
    for problem in (vector, matrix):
        # to the rounding floor: a certificate of exactly 0 stops earlier
        report = solve_petz_augustin(problem, max_iter=300, residual_tol=0.0, keep_iterates=True)
        if report.stop_reason in (STOP_SINGULAR, STOP_NON_FINITE):
            return  # a typed stop: a floor refused the data
        assert report.stop_reason in (STOP_RESIDUAL, STOP_MAX_ITER)
        rows_keep_invariants(problem, report)
        runs.append(report)
    vec, mat = runs
    assert np.abs(np.diag(mat.final).real - vec.final).max() <= 1e-10
