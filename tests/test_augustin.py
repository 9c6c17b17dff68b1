import math

import numpy as np
import pytest

from augustin_lab import augustin
from augustin_lab.augustin import (
    DEFAULT_RESIDUAL_TOL,
    PolyakRun,
    STOP_MAX_ITER,
    STOP_NON_FINITE,
    STOP_RESIDUAL,
    apply_T_F,
    classical_gradient,
    contraction_factor,
    emd_polyak_run,
    emd_polyak_step,
    initial_state,
    petz_augustin_step,
    solve_petz_augustin,
)
from augustin_lab.divergences import (
    AugustinProblem,
    ClassicalAugustinProblem,
    objective_F,
    objective_f,
)
from augustin_lab.errors import InvalidInput, Unsupported
from augustin_lab.linalg import (
    hermitize,
    matrix_power,
    random_density_ensemble,
    thompson_metric_psd,
    thompson_metric_vec,
)
from augustin_lab.oracles import grid_min_classical_augustin
from reference import (
    augustin_classical_baseline_step,
    cheng_dual_step,
    diagonal_embedding,
    dual_objective_H,
    make_dual_state,
)
from conftest import random_simplex, random_spd, raw_rows


def make_problem(seed, n, d, alpha):
    states = random_density_ensemble(seed, n, d)
    return AugustinProblem.create(states, np.full(n, 1.0 / n), alpha)


def make_classical(rng, n, d, alpha):
    return make_embedded(rng, n, d, alpha)[0]


def make_embedded(rng, n, d, alpha):
    """A classical problem and its diagonal embedding."""
    pts = np.stack([random_simplex(rng, d) for _ in range(n)])
    cp = ClassicalAugustinProblem.create(pts, np.full(n, 1.0 / n), alpha)
    return cp, diagonal_embedding(cp, pts)


class TestOperator:
    @pytest.mark.parametrize("alpha", [0.8, 1.5, 3.0])
    def test_single_state_fixed_point(self, rng, alpha):
        # well-conditioned state so the negative power stays accurate
        g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        a = hermitize(g @ g.conj().T + 4 * np.eye(4))
        a = a / np.trace(a).real
        p = AugustinProblem.create([a], [1.0], alpha)
        u = matrix_power(a, 1.0 - alpha)
        out = apply_T_F(p, u)
        assert thompson_metric_psd(out, u) <= 1e-10

    def test_diagonal_reduction(self, rng):
        alpha = 1.5
        cp, qp = make_embedded(rng, 3, 4, alpha)
        u = rng.uniform(0.2, 2.0, size=4)
        vec = apply_T_F(cp, u)
        mat = apply_T_F(qp, np.diag(u.astype(complex)))
        assert np.abs(np.diag(mat).real - vec).max() <= 1e-12 * (1 + vec.max())

    def test_counterexample_straddles_ratio(self):
        # printed 2x2 instance: the one-shot map expands past the sweep ratio
        alpha = 3.0
        raw = np.array([[19.5364, 4.42], [4.42, 1.1]])
        u_mat = np.array([[2 / 3, 1 / 3], [1 / 3, 1 / 3]])
        v_mat = np.array([[1 / 2.1, 1 / 2.1], [1 / 2.1, 1.1 / 2.1]])
        p = AugustinProblem.create([(raw / np.trace(raw)).astype(complex)], [1.0], alpha)

        def one_shot(q):
            powered = matrix_power(hermitize(q), 1.0 - alpha)
            return matrix_power(apply_T_F(p, powered), 1.0 / (1.0 - alpha))

        lhs = thompson_metric_psd(one_shot(v_mat), one_shot(u_mat))
        rhs = contraction_factor(alpha) * thompson_metric_psd(v_mat, u_mat)
        assert lhs == pytest.approx(1.4366, abs=1e-3)
        assert rhs == pytest.approx(1.3668, abs=1e-3)
        assert lhs > rhs

    @pytest.mark.parametrize("alpha", [0.6, 0.8, 1.5, 3.0, 5.0])
    def test_contraction(self, rng, alpha):
        p = make_problem(50, 4, 4, alpha)
        kappa = contraction_factor(alpha)
        for _ in range(25):
            u, v = random_spd(rng, 4), random_spd(rng, 4)
            lhs = thompson_metric_psd(apply_T_F(p, v), apply_T_F(p, u))
            assert lhs <= kappa * thompson_metric_psd(v, u) + 1e-9

    def test_classical_operator_positive_input_required(self, rng):
        cp = make_classical(rng, 2, 3, 1.5)
        with pytest.raises(InvalidInput):
            apply_T_F(cp, np.array([1.0, 0.0, 1.0]))

    @pytest.mark.parametrize("alpha", [0.8, 1.5, 3.0])
    def test_classical_single_point_fixed_point(self, rng, alpha):
        a = random_simplex(rng, 5) * 0.8 + 0.04  # bounded away from zero
        a = a / a.sum()
        cp = ClassicalAugustinProblem.create([a], [1.0], alpha)
        u = a ** (1.0 - alpha)
        out = apply_T_F(cp, u)
        assert thompson_metric_vec(out, u) <= 1e-12

    def test_collapsed_pairing_raises(self):
        from augustin_lab.errors import DegenerateTrace

        p = make_problem(51, 2, 3, 2.0)
        with pytest.raises(DegenerateTrace):
            apply_T_F(p, 1e-15 * np.eye(3, dtype=complex))


class TestCombination:
    """The combination sum_j c_j A_j^alpha, one GEMV on the flat stack."""

    @staticmethod
    def assert_matches_tensordot(problem, powers):
        c = np.random.default_rng(3).uniform(0.1, 2.0, problem.n)
        got = augustin._combination(problem, c)
        ref = np.tensordot(c, powers, axes=1)
        assert got.dtype == ref.dtype and got.shape == ref.shape
        assert np.abs(got - ref).max() <= 1e-15 * np.abs(ref).max()

    def test_complex_stack(self):
        p = make_problem(52, 6, 5, 1.5)
        assert np.iscomplexobj(p.state_powers)
        self.assert_matches_tensordot(p, p.state_powers)

    def test_real_stack(self, rng):
        states = [random_spd(rng, 5, complex_entries=False) for _ in range(6)]
        p = AugustinProblem.create([s / np.trace(s) for s in states], np.full(6, 1 / 6), 0.8)
        assert p.state_powers.dtype == np.float64
        self.assert_matches_tensordot(p, p.state_powers)

    def test_vector_problem(self, rng):
        p = make_classical(rng, 6, 5, 1.5)
        self.assert_matches_tensordot(p, p.point_powers)

    @pytest.mark.parametrize("alpha", [0.8, 1.5, 3.0])
    def test_operator_matches_the_matrix_power(self, rng, alpha):
        p = make_problem(53, 4, 5, alpha)
        u = random_spd(rng, 5)
        s = augustin._combination(p, augustin._coefficients(p, augustin._pairings(p, u)))
        ref = matrix_power(s, (1.0 - alpha) / alpha)
        assert np.abs(apply_T_F(p, u) - ref).max() <= 1e-12 * np.abs(ref).max()


class TestStep:
    @pytest.mark.parametrize("alpha", [0.8, 2.0])
    def test_single_state_one_step(self, alpha):
        a = random_density_ensemble(2, 1, 5)[0]
        p = AugustinProblem.create([a], [1.0], alpha)
        state = initial_state(p, np.eye(5, dtype=complex) / 5)
        new = petz_augustin_step(p, state)
        assert np.abs(new.normalized - a).max() <= 1e-10

    def test_all_equal_states(self):
        a = random_density_ensemble(3, 1, 4)[0]
        p = AugustinProblem.create([a, a, a], np.ones(3) / 3, 1.5)
        new = petz_augustin_step(p, initial_state(p, np.eye(4, dtype=complex) / 4))
        assert np.abs(new.normalized - a).max() <= 1e-10

    def test_contraction_ratio_against_long_run(self):
        alpha = 1.5
        p = make_problem(60, 8, 16, alpha)
        state = initial_state(p, np.eye(16, dtype=complex) / 16)
        states = [state]
        for _ in range(200):
            state = petz_augustin_step(p, state)
            states.append(state)
        ref_power = state.power * state.trace ** (alpha - 1.0)
        kappa = contraction_factor(alpha)
        checked = 0
        for t in range(len(states) - 1):
            d0 = thompson_metric_psd(ref_power, states[t].power)
            if d0 < 1e-6:
                break
            d1 = thompson_metric_psd(ref_power, states[t + 1].power)
            assert d1 / d0 <= kappa + 1e-8
            checked += 1
        assert checked >= 10

    def test_step_counts_and_f_value(self):
        p = make_problem(61, 3, 4, 2.0)
        s0 = initial_state(p, np.eye(4, dtype=complex) / 4)
        s1 = petz_augustin_step(p, s0)
        assert s1.step == s0.step + 1
        assert s1.f_value == pytest.approx(objective_F(p, s1.normalized), abs=1e-10)

    def test_scale_equivariance_of_normalized_output(self, rng):
        p = make_problem(62, 3, 4, 1.5)
        q = random_spd(rng, 4)
        out1 = petz_augustin_step(p, initial_state(p, q)).normalized
        out2 = petz_augustin_step(p, initial_state(p, 3.7 * q)).normalized
        assert np.abs(out1 - out2).max() <= 1e-10

    @pytest.mark.parametrize("complex_entries", [False, True], ids=["real", "complex"])
    def test_pairings_match_the_entrywise_sum(self, rng, complex_entries):
        # Tr[A P] = sum_ik A_ik conj(P_ik) for Hermitian P, summed entry by entry
        from augustin_lab.augustin import _pairings

        states = [random_spd(rng, 6, complex_entries=complex_entries) for _ in range(3)]
        p = AugustinProblem.create([a / np.trace(a).real for a in states], [0.2, 0.3, 0.5], 1.5)
        power = random_spd(rng, 6, complex_entries=complex_entries)
        expected = [
            np.real(sum(a[i, k] * np.conj(power[i, k]) for i in range(6) for k in range(6)))
            for a in p.state_powers
        ]
        assert _pairings(p, power) == pytest.approx(expected, rel=1e-12)


class TestSolver:
    def test_single_state_converges_immediately(self):
        a = random_density_ensemble(4, 1, 3)[0]
        p = AugustinProblem.create([a], [1.0], 1.5)
        report = solve_petz_augustin(p)
        assert report.stop_reason == STOP_RESIDUAL
        assert len(report.iterates) <= 4
        assert np.abs(report.final - a).max() <= 1e-8

    @pytest.mark.parametrize("alpha", [1.5, 3.0])
    def test_monotone_function_values(self, alpha):
        p = make_problem(70, 6, 8, alpha)
        report = solve_petz_augustin(p, max_iter=60)
        f = [r.f_value for r in report.iterates]
        assert all(f[t + 1] <= f[t] + 1e-10 for t in range(len(f) - 1))

    def test_trace_bound(self):
        p = make_problem(71, 6, 8, 3.0)
        report = solve_petz_augustin(p, max_iter=60)
        traces = [r.trace for r in report.iterates]
        assert all(tr <= 1 + 1e-10 for tr in traces)

    def test_trace_rows_count_executed_steps(self):
        p = make_problem(72, 4, 6, 1.5)
        report = solve_petz_augustin(p, max_iter=7, residual_tol=0.0)
        assert report.stop_reason == STOP_MAX_ITER
        assert len(report.iterates) == 8  # initial state + 7 sweeps

    @pytest.mark.parametrize("alpha", [0.2, 0.4])
    def test_small_order_is_unguaranteed_but_survives(self, alpha):
        # the hand-built instance that defeats the sweep at small orders
        pts = np.array(
            [[0.9, 0.09, 0.01], [0.009, 0.99, 0.001], [0.0001, 0.0009, 0.999]]
        )
        p = ClassicalAugustinProblem.create(pts, np.ones(3) / 3, alpha)
        report = solve_petz_augustin(p, max_iter=60, residual_tol=0.0)
        assert report.distance_bound is None  # no contraction to certify
        assert report.stop_reason == STOP_MAX_ITER  # normalized carry avoids overflow
        assert len(report.iterates) == 61
        assert all(np.isfinite(r.f_value) for r in report.iterates)
        # no contraction: the fixed-point residual never becomes small
        residuals = [r.residual_thompson for r in report.iterates.rows[1:]]
        assert min(residuals) > 1e-2

    def test_non_finite_stop_reason(self, monkeypatch):
        # a sweep that blows up must stop the run with the partial trace
        # preserved
        from dataclasses import replace

        from augustin_lab import augustin

        def blow_up_at_sweep_3(problem, state):
            new = petz_augustin_step(problem, state)
            return replace(new, f_value=math.inf) if new.step >= 3 else new

        monkeypatch.setattr(augustin, "petz_augustin_step", blow_up_at_sweep_3)
        p = make_problem(71, 3, 4, 1.5)
        report = solve_petz_augustin(p, max_iter=10, residual_tol=0.0)
        assert report.stop_reason == STOP_NON_FINITE
        assert len(report.iterates) == 3  # init + the two finite sweeps

        # a NaN combination reaches the unvalidated eigh of the sweep
        monkeypatch.setattr(augustin, "petz_augustin_step", petz_augustin_step)
        combination = augustin._combination
        calls = []

        def nan_at_sweep_3(problem, pairings):
            calls.append(1)
            s = combination(problem, pairings)
            return np.full_like(s, np.nan) if len(calls) == 3 else s

        monkeypatch.setattr(augustin, "_combination", nan_at_sweep_3)
        report = solve_petz_augustin(p, max_iter=10, residual_tol=0.0)
        assert report.stop_reason == STOP_NON_FINITE
        assert len(report.iterates) == 3
        assert np.all(np.isfinite(report.final))

        # a LAPACK that refuses the NaN matrix instead of returning NaN
        # eigenvalues stops the run the same way
        eigh = np.linalg.eigh

        def refusing_eigh(a, *args, **kwargs):
            if np.isnan(a).any():
                raise np.linalg.LinAlgError("Eigenvalues did not converge")
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", refusing_eigh)
        calls.clear()
        report = solve_petz_augustin(p, max_iter=10, residual_tol=0.0)
        assert report.stop_reason == STOP_NON_FINITE
        assert len(report.iterates) == 3
        assert np.all(np.isfinite(report.final))

    def test_caller_error_in_the_metric_is_raised(self, monkeypatch):
        # InvalidInput is the caller's error, never a numerical stop; at
        # orders at or below 1/2 every row's residual is the exact metric
        from augustin_lab import augustin

        def refusing_metric(u, v):
            raise InvalidInput("refused")

        monkeypatch.setattr(augustin, "thompson_metric_psd", refusing_metric)
        p = make_problem(70, 3, 4, 0.4)
        with pytest.raises(InvalidInput):
            solve_petz_augustin(p, np.eye(4, dtype=complex) / 4, max_iter=3)

    def test_non_positive_vector_power_stops_non_finite(self, monkeypatch):
        # an underflowed power entry is a numerical stop, not a metric error
        from dataclasses import replace

        from augustin_lab import augustin

        def underflow_at_sweep_2(problem, state):
            new = petz_augustin_step(problem, state)
            if new.step < 2:
                return new
            power = new.power.copy()
            power[0] = 0.0
            return replace(new, power=power)

        monkeypatch.setattr(augustin, "petz_augustin_step", underflow_at_sweep_2)
        p = make_classical(np.random.default_rng(70), 3, 4, 1.5)
        report = solve_petz_augustin(p, max_iter=10, residual_tol=0.0)
        assert report.stop_reason == STOP_NON_FINITE
        assert len(report.iterates) == 2  # init + the first sweep

    def test_reference_distance_not_timed(self, monkeypatch):
        # the reference distance is bookkeeping, not sweep work: at orders
        # above 1/2 no sweep's time holds a metric call
        import time

        from augustin_lab import augustin

        def slow_metric(u, v):
            time.sleep(0.05)
            return thompson_metric_psd(u, v)

        p = make_problem(72, 3, 4, 1.5)
        ref = solve_petz_augustin(p, max_iter=200, residual_tol=1e-12).final
        monkeypatch.setattr(augustin, "thompson_metric_psd", slow_metric)
        report = solve_petz_augustin(p, max_iter=5, residual_tol=0.0, reference=ref)
        assert len(report.iterates) == 6
        assert all(r.dist_to_reference is not None for r in report.iterates)
        assert all(r.wall_time_ms < 50.0 for r in report.iterates.rows[1:])

    def test_reference_distance_column(self):
        p = make_problem(73, 3, 4, 1.5)
        ref = solve_petz_augustin(p, max_iter=200, residual_tol=1e-12).final
        report = solve_petz_augustin(p, max_iter=20, residual_tol=0.0, reference=ref)
        dist = [r.dist_to_reference for r in report.iterates]
        assert all(d is not None for d in dist)
        assert dist[-1] <= dist[0]

    def test_invalid_max_iter(self):
        p = make_problem(74, 2, 3, 1.5)
        with pytest.raises(InvalidInput):
            solve_petz_augustin(p, max_iter=0)

    def test_non_positive_vector_start_rejected(self, rng):
        p = make_classical(rng, 2, 3, 1.5)
        with pytest.raises(InvalidInput):
            solve_petz_augustin(p, np.array([0.5, 0.5, 0.0]))

    def test_trace_persists_as_csv_and_json(self, tmp_path):
        import csv as csv_mod

        p = make_problem(75, 3, 4, 1.5)
        report = solve_petz_augustin(p, max_iter=5, residual_tol=0.0)
        report.iterates.to_csv(tmp_path / "trace.csv")
        rows = list(csv_mod.reader(open(tmp_path / "trace.csv")))
        assert rows[0] == ["step", "f_value", "trace", "residual_thompson", "dist_to_reference", "wall_time_ms"]
        assert len(rows) == len(report.iterates) + 1
        assert rows[1][3] == "" and rows[1][4] == ""  # no residual/reference at step 0


class TestClassicalSolver:
    def test_single_point_one_step(self, rng):
        a = random_simplex(rng, 4)
        p = ClassicalAugustinProblem.create([a], [1.0], 1.5)
        report = solve_petz_augustin(p)
        assert report.stop_reason == STOP_RESIDUAL
        assert np.abs(report.final - a).max() <= 1e-10

    @pytest.mark.parametrize("alpha", [0.8, 1.5, 3.0, 5.0])
    def test_matches_quantum_on_diagonal_data(self, alpha):
        # The raw scale of a row depends on which mixes the safeguard accepts,
        # and the two forms can decide those differently on rounding noise;
        # the normalized rows and F do not.
        for seed in [*range(60), 20240811]:
            cp, qp = make_embedded(np.random.default_rng(seed), 4, 5, alpha)
            with raw_rows(cp) as rows:
                crows = rows(solve_petz_augustin(cp, max_iter=30, residual_tol=0.0))
            with raw_rows(qp) as rows:
                qrows = rows(solve_petz_augustin(qp, max_iter=30, residual_tol=0.0))
            for cs, qs in zip(crows, qrows):
                assert np.abs(np.diag(qs.normalized).real - cs.normalized).max() <= 1e-10, seed
                assert abs(qs.f_value - cs.f_value) <= 1e-12, seed

    def test_contraction_against_long_run(self, rng):
        alpha = 0.8
        p = make_classical(rng, 5, 6, alpha)
        state = initial_state(p, np.full(6, 1 / 6))
        states = [state]
        for _ in range(200):
            state = petz_augustin_step(p, state)
            states.append(state)
        ref_power = state.power * state.trace ** (alpha - 1.0)
        kappa = contraction_factor(alpha)
        checked = 0
        for t in range(len(states) - 1):
            d0 = thompson_metric_vec(ref_power, states[t].power)
            if d0 < 1e-8:
                break
            d1 = thompson_metric_vec(ref_power, states[t + 1].power)
            assert d1 / d0 <= kappa + 1e-8
            checked += 1
        assert checked >= 10

    @pytest.mark.parametrize("p_norm", [1.0, 3.0])
    def test_reweighting_recursion_oracle(self, rng, p_norm):
        # order 2/p reproduces the diagonal reweighting recursion
        # u_{t+1}[i] = (a_i^alpha / sum_k a_k^alpha u_k^(1-alpha))^(1/alpha)
        alpha = 2.0 / p_norm
        m_vec = rng.standard_normal(5)
        a_raw = np.abs(m_vec) ** p_norm
        problem = ClassicalAugustinProblem.create(
            [a_raw / a_raw.sum()], [1.0], alpha
        )
        start = np.full(5, 0.2)
        with raw_rows(problem, start) as rows:
            report = solve_petz_augustin(problem, q1=start, max_iter=30, residual_tol=0.0)
        u = start.copy()
        for state in rows(report)[1:]:
            u = (a_raw**alpha / np.dot(a_raw**alpha, u ** (1 - alpha))) ** (1 / alpha)
            assert np.abs(state.matrix - u).max() <= 1e-10 * (1 + u.max())


class TestDualIteration:
    def test_single_state_stabilizes(self):
        a = random_density_ensemble(8, 1, 3)[0]
        p = AugustinProblem.create([a], [1.0], 2.0)
        state = make_dual_state(p, np.zeros(1))
        for _ in range(5):
            state = cheng_dual_step(p, state)
        ratio = state.mu / a
        assert np.abs(ratio - ratio[0, 0].real).max() <= 1e-8

    def test_matched_initialization_tracks_primal(self):
        alpha = 2.0
        p = make_problem(80, 4, 8, alpha)
        dual = make_dual_state(p, np.zeros(4))
        primal = initial_state(p, dual.mu)
        for _ in range(20):
            dual = cheng_dual_step(p, dual)
            primal = petz_augustin_step(p, primal)
            assert thompson_metric_psd(dual.mu, primal.matrix) <= 1e-8

    def test_dual_objective_nondecreasing(self):
        p = make_problem(81, 4, 6, 3.0)
        state = make_dual_state(p, np.zeros(4))
        values = [dual_objective_H(p, state.v)]
        for _ in range(15):
            state = cheng_dual_step(p, state)
            values.append(dual_objective_H(p, state.v))
        assert all(values[t + 1] >= values[t] - 1e-10 for t in range(len(values) - 1))

    def test_dual_objective_shift_invariant(self, rng):
        p = make_problem(82, 3, 4, 1.5)
        v = rng.standard_normal(3)
        for c in (-2.0, 0.5, 10.0):
            assert dual_objective_H(p, v + c) == pytest.approx(
                dual_objective_H(p, v), abs=1e-9
            )

    def test_dual_objective_at_zero(self):
        p = make_problem(83, 3, 4, 2.0)
        s = np.tensordot(p.weights, p.state_powers, axes=1)
        expected = -math.log(np.trace(matrix_power(s, 1 / 2.0)).real)
        assert dual_objective_H(p, np.zeros(3)) == pytest.approx(expected, abs=1e-12)
        # single state: H(0) = -log Tr[A] = 0
        a = random_density_ensemble(9, 1, 3)[0]
        single = AugustinProblem.create([a], [1.0], 2.0)
        assert dual_objective_H(single, np.zeros(1)) == pytest.approx(0.0, abs=1e-10)

    def test_dual_coordinates_match_the_states(self):
        p = make_problem(84, 3, 4, 2.0)
        with pytest.raises(InvalidInput):
            make_dual_state(p, np.zeros(2))


class TestClassicalBaseline:
    def test_single_point_symbolic_form(self, rng):
        alpha = 1.5
        a = random_simplex(rng, 4)
        p = ClassicalAugustinProblem.create([a], [1.0], alpha)
        q = random_simplex(rng, 4)
        expected = q ** (1 - alpha) * a**alpha / np.dot(a**alpha, q ** (1 - alpha))
        out = augustin_classical_baseline_step(p, q)
        assert np.abs(out - expected).max() <= 1e-12
        assert out.sum() == pytest.approx(1.0, abs=1e-12)

    def test_preserves_simplex(self, rng):
        p = make_classical(rng, 3, 5, 2.0)
        q = random_simplex(rng, 5)
        for _ in range(10):
            q = augustin_classical_baseline_step(p, q)
            assert q.sum() == pytest.approx(1.0, abs=1e-12)
            assert np.all(q > 0)

    def test_fixed_point_shared_with_sweep(self, rng):
        p = make_classical(rng, 4, 4, 1.5)
        q_star = solve_petz_augustin(p, max_iter=500, residual_tol=1e-14).final
        moved = augustin_classical_baseline_step(p, q_star)
        assert np.abs(moved - q_star).max() <= 1e-9

    def test_rejects_zero_coordinate(self, rng):
        p = make_classical(rng, 2, 3, 1.5)
        with pytest.raises(InvalidInput):
            augustin_classical_baseline_step(p, np.array([0.5, 0.5, 0.0]))
        with pytest.raises(InvalidInput):
            classical_gradient(p, np.array([0.5, 0.5, 0.0]))


class TestPolyakMirror:
    def test_unchanged_at_minimizer(self, rng):
        a = random_simplex(rng, 3)
        p = ClassicalAugustinProblem.create([a], [1.0], 0.4)
        out = emd_polyak_step(p, a, f_best=0.0)
        assert np.array_equal(out, a)

    def test_reaches_grid_minimum(self):
        # minimizer placed on the grid so the brute-force value is exact
        a = np.array([0.2, 0.3, 0.5])
        p = ClassicalAugustinProblem.create([a], [1.0], 0.4)
        _, f_grid = grid_min_classical_augustin(p, 20)
        assert f_grid == pytest.approx(0.0, abs=1e-12)
        run = emd_polyak_run(p, steps=400, f_best=f_grid - 1e-6)
        assert isinstance(run, PolyakRun)
        assert abs(run.best_value - f_grid) <= 1e-6

    @pytest.mark.parametrize("alpha", [3.0, 5.0])
    def test_target_far_below_optimum_keeps_point_positive(self, alpha):
        # f* is about 1.04 on the demo instance; a target of 0 asks for steps
        # long enough to underflow a coordinate unless the step is capped
        from augustin_lab.cli import DEMO_POINTS, DEMO_WEIGHTS

        p = ClassicalAugustinProblem.create(DEMO_POINTS, DEMO_WEIGHTS, alpha)
        q = emd_polyak_step(p, np.full(3, 1 / 3), f_best=0.0)
        assert q.min() > 0 and q.sum() == pytest.approx(1.0)
        run = emd_polyak_run(p, steps=200, f_best=0.0)
        values = []
        q = np.full(3, 1 / 3)
        for _ in range(200):
            values.append(objective_f(p, q))
            q = emd_polyak_step(p, q, f_best=0.0)
        assert all(np.isfinite(values))
        assert run.best_value == min(values) and run.best_point.min() > 0

    def test_commuting_quantum_problem_rejected(self, rng):
        # the reference takes probability vectors, even for diagonal states
        _, qp = make_embedded(rng, 3, 3, 0.4)
        with pytest.raises(Unsupported):
            emd_polyak_step(qp, np.eye(3, dtype=complex) / 3, f_best=0.0)
        with pytest.raises(Unsupported):
            emd_polyak_run(qp, steps=3, f_best=0.0)

    def test_non_commuting_rejected(self):
        states = random_density_ensemble(5, 2, 3)
        p = AugustinProblem.create(states, [0.5, 0.5], 0.4)
        with pytest.raises(Unsupported):
            emd_polyak_step(p, np.eye(3, dtype=complex) / 3, f_best=0.0)

    def test_gradient_matches_finite_difference(self, rng):
        p = make_classical(rng, 3, 4, 1.5)
        q = np.full(4, 0.25)
        g = classical_gradient(p, q)
        h = 1e-6
        for i in range(4):
            z = np.zeros(4)
            z[i] = 1.0
            fd = (objective_f(p, q + h * z) - objective_f(p, q - h * z)) / (2 * h)
            assert fd == pytest.approx(g[i], abs=1e-5)


class TestLemmas:
    @pytest.mark.parametrize("alpha", [0.8, 1.5, 3.0])
    def test_normalization_stability(self, rng, alpha):
        for _ in range(30):
            u = random_spd(rng, 4)
            v = random_spd(rng, 4)
            v = v / np.trace(v).real  # unit trace as the lemma requires
            lhs = thompson_metric_psd(
                matrix_power(v, 1 - alpha),
                matrix_power(u / np.trace(u).real, 1 - alpha),
            )
            rhs = thompson_metric_psd(matrix_power(v, 1 - alpha), matrix_power(u, 1 - alpha))
            assert lhs <= 2 * rhs + 1e-9

    @pytest.mark.parametrize("alpha", [0.8, 1.5, 3.0])
    def test_value_gap_bounded_by_metric(self, rng, alpha):
        p = make_problem(90, 4, 4, alpha)
        for _ in range(20):
            u = random_spd(rng, 4)
            v = random_spd(rng, 4)
            gap = objective_F(p, u) - objective_F(p, v)
            bound = abs(1 / (alpha - 1)) * thompson_metric_psd(
                matrix_power(v, 1 - alpha), matrix_power(u, 1 - alpha)
            )
            assert gap <= bound + 1e-9

    def test_long_run_beats_random_candidates(self, rng):
        p = make_problem(91, 4, 4, 1.5)
        report = solve_petz_augustin(p, max_iter=300, residual_tol=1e-14)
        f_star = objective_F(p, report.final)
        for seed in range(100):
            q = random_density_ensemble(seed + 3000, 1, 4)[0]
            assert f_star <= objective_F(p, q) + 1e-6

    def test_fixed_point_residual_of_long_run(self):
        alpha = 1.5
        p = make_problem(92, 4, 4, alpha)
        q_hat = solve_petz_augustin(p, max_iter=300, residual_tol=1e-14).final
        image = matrix_power(
            apply_T_F(p, matrix_power(q_hat, 1 - alpha)), 1 / (1 - alpha)
        )
        image = image / np.trace(image).real
        assert thompson_metric_psd(image, q_hat) <= 1e-7
