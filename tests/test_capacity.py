import math

import numpy as np
import pytest

from augustin_lab import augustin, capacity
from augustin_lab.augustin import _iterate, contraction_factor, petz_augustin_step
from augustin_lab.capacity import (
    CapacityProblem,
    approx_oracle,
    approx_oracle_detailed,
    mirror_update,
    solve_capacity,
)
from augustin_lab.divergences import ClassicalAugustinProblem
from augustin_lab.errors import InvalidInput, InvalidOrder, NonFinite, NotConverged
from augustin_lab.linalg import (
    random_density_ensemble,
    thompson_metric_psd,
)
from augustin_lab.oracles import grid_min_classical_augustin
from reference import finite_diff_curvature, finite_diff_gradient, grid_min_capacity_2


def symmetric_pair(alpha=0.75):
    a1 = np.diag([0.9, 0.1]).astype(complex)
    a2 = np.diag([0.1, 0.9]).astype(complex)
    return CapacityProblem.create([a1, a2], alpha)


def commuting_capacity(points, alpha):
    states = [np.diag(np.asarray(p, dtype=complex)) for p in points]
    return CapacityProblem.create(states, alpha)


def brute_g(points, w, alpha, resolution=4000):
    """-min_q of the weighted classical objective, by exhaustive grid."""
    cp = ClassicalAugustinProblem.create(points, w, alpha)
    _, f_min = grid_min_classical_augustin(cp, resolution)
    return -f_min


class TestProblem:
    def test_rejects_out_of_range_orders(self):
        states = random_density_ensemble(0, 2, 2)
        for alpha in (0.5, 0.3, 1.0, 1.5):
            with pytest.raises(InvalidOrder):
                CapacityProblem.create(states, alpha)

    def test_weighted_requires_simplex(self):
        p = symmetric_pair()
        with pytest.raises(InvalidInput):
            p.weighted(np.array([0.4, 0.4]))


class TestOracle:
    def test_single_state_is_zero(self):
        p = CapacityProblem.create([random_density_ensemble(1, 1, 3)[0]], 0.8)
        g, grad = approx_oracle(p, np.array([1.0]), 1e-10)
        assert abs(g) <= 1e-9
        assert abs(grad[0]) <= 1e-9

    def test_identical_states_zero_gradient(self):
        a = random_density_ensemble(2, 1, 2)[0]
        p = CapacityProblem.create([a, a, a], 0.75)
        g, grad = approx_oracle(p, np.ones(3) / 3, 1e-10)
        assert np.abs(grad).max() <= 1e-9
        assert abs(g) <= 1e-9

    def test_symmetric_commuting_pair(self):
        p = symmetric_pair()
        w = np.array([0.5, 0.5])
        g, grad = approx_oracle(p, w, 1e-10)
        assert abs(grad[0] - grad[1]) <= 1e-8
        g_brute = brute_g([[0.9, 0.1], [0.1, 0.9]], w, 0.75)
        assert g == pytest.approx(g_brute, abs=1e-6)

    def test_accuracy_against_tight_reference(self):
        p = commuting_capacity([[0.8, 0.2], [0.3, 0.7]], 0.8)
        w = np.array([0.3, 0.7])
        eps = 1e-6
        g, grad = approx_oracle(p, w, eps)
        g_ref, grad_ref = approx_oracle(p, w, 1e-13)
        assert abs(g - g_ref) <= eps
        assert np.abs(grad - grad_ref).max() <= eps

    def test_oracle_reports_inner_iterations(self):
        p = symmetric_pair()
        loose = approx_oracle_detailed(p, np.array([0.5, 0.5]), 1e-4)
        tight = approx_oracle_detailed(p, np.array([0.5, 0.5]), 1e-12)
        assert tight.inner_iters >= loose.inner_iters >= 1

    def test_rejects_bad_eps(self):
        p = symmetric_pair()
        with pytest.raises(InvalidInput):
            approx_oracle(p, np.array([0.5, 0.5]), 0.0)

    def test_rejects_infinite_eps(self):
        # an infinite accuracy would stop after one sweep and bound nothing
        p = symmetric_pair()
        with pytest.raises(InvalidInput, match="positive and finite"):
            approx_oracle(p, np.array([0.5, 0.5]), math.inf)


def a_priori_sweeps(problem, w, start, eps):
    """Sweeps a fixed-count run from ``start`` needs for eps-accurate
    divergences: 2 kappa^t / (1 - kappa) * first move <= eps * (1 - alpha)."""
    inner = problem.weighted(w)
    alpha = problem.order
    kappa = contraction_factor(alpha)
    first = petz_augustin_step(inner, _iterate(inner, 0, start.matrix, start.power, 1.0))
    move = thompson_metric_psd(first.power * first.trace ** (alpha - 1.0), start.power)
    target = eps * (1.0 - alpha) / 2.0
    if move / (1.0 - kappa) <= target:
        return 1
    return max(math.ceil(math.log(move / (1.0 - kappa) / target) / math.log(1.0 / kappa)), 1)


class TestWarmStart:
    @pytest.mark.parametrize("alpha", [0.6, 0.8])
    @pytest.mark.parametrize("eps", [1e-6, 1e-9])
    def test_eps_contract_along_warm_path(self, alpha, eps):
        p = CapacityProblem.create(random_density_ensemble(4100, 4, 2), alpha)
        w = np.full(4, 0.25)
        result = approx_oracle_detailed(p, w, eps)
        for _ in range(20):
            start = result.state
            w = mirror_update(w, result.grad_hat)
            result = approx_oracle_detailed(p, w, eps, start=start)
            g_ref, grad_ref = approx_oracle(p, w, 1e-13)
            assert abs(result.g_hat - g_ref) <= eps + 1e-13
            assert np.abs(result.grad_hat - grad_ref).max() <= eps + 1e-13
            assert 1 <= result.inner_iters <= a_priori_sweeps(p, w, start, eps)

    def test_warm_start_cuts_sweeps(self):
        p = CapacityProblem.create(random_density_ensemble(4101, 4, 2), 0.6)
        w = np.array([0.1, 0.2, 0.3, 0.4])
        cold = approx_oracle_detailed(p, w, 1e-9)
        nearby = mirror_update(w, np.array([1e-3, 0.0, -1e-3, 0.0]))
        warm = approx_oracle_detailed(p, nearby, 1e-9, start=cold.state)
        assert warm.inner_iters < approx_oracle_detailed(p, nearby, 1e-9).inner_iters
        assert np.trace(warm.state.matrix).real == pytest.approx(1.0, abs=1e-14)

    def test_only_a_cold_first_move_costs_a_metric_call(self, monkeypatch):
        calls = []

        def counting(u, v):
            calls.append(1)
            return thompson_metric_psd(u, v)

        # every row's residual is the O(n) certificate, cold or warm, so no
        # oracle call makes a metric call
        monkeypatch.setattr(augustin, "thompson_metric_psd", counting)
        p = CapacityProblem.create(random_density_ensemble(4102, 4, 2), 0.8)
        w = np.full(4, 0.25)
        result = approx_oracle_detailed(p, w, 1e-9)
        assert calls == []
        for _ in range(5):
            w = mirror_update(w, result.grad_hat)
            result = approx_oracle_detailed(p, w, 1e-9, start=result.state)
        solve_capacity(p, 10, 1e-9)
        assert calls == []

    def test_no_certificate_by_the_cap_raises(self, monkeypatch):
        monkeypatch.setattr(capacity, "MAX_INNER_ITERS", 3)
        p = CapacityProblem.create(random_density_ensemble(4103, 4, 2), 0.6)
        with pytest.raises(NotConverged, match=r"order 0\.6 .*eps=1e-14 .*within 3 inner"):
            approx_oracle(p, np.full(4, 0.25), 1e-14)
        # a loose eps is certified within the cap and still answers
        g, _ = approx_oracle(p, np.full(4, 0.25), 1.0)
        assert math.isfinite(g)

    def test_non_finite_divergences_raise_non_finite(self, monkeypatch):
        monkeypatch.setattr(capacity, "divergence_from_pairing", lambda pairing, alpha: math.inf)
        p = CapacityProblem.create(random_density_ensemble(4103, 4, 2), 0.6)
        with pytest.raises(NonFinite, match="non-finite divergences"):
            approx_oracle(p, np.full(4, 0.25))


class TestMirrorUpdate:
    def test_zero_gradient_fixed(self):
        w = np.array([0.2, 0.3, 0.5])
        assert np.abs(mirror_update(w, np.zeros(3)) - w).max() <= 1e-15

    def test_hand_example(self):
        w = np.array([0.5, 0.5])
        out = mirror_update(w, np.array([math.log(2.0), 0.0]))
        assert np.abs(out - [1 / 3, 2 / 3]).max() <= 1e-12

    def test_shift_invariance(self, rng):
        w = rng.dirichlet(np.ones(4))
        g = rng.standard_normal(4)
        for c in (-5.0, 0.3, 40.0):
            assert np.abs(mirror_update(w, g + c) - mirror_update(w, g)).max() <= 1e-12

    def test_symmetric_problem_keeps_uniform_weights(self):
        p = symmetric_pair()
        for state in solve_capacity(p, 5, 1e-10).states:
            assert np.abs(state.w - 0.5).max() <= 1e-9


class TestSolve:
    def test_single_state_capacity_zero(self):
        p = CapacityProblem.create([random_density_ensemble(3, 1, 2)[0]], 0.8)
        report = solve_capacity(p, 5)
        assert abs(report.c_hat) <= 1e-8

    @pytest.mark.parametrize("T", [5, 10, 50])
    def test_rate_certificate_on_symmetric_pair(self, T):
        p = symmetric_pair()
        eps = 1e-9
        report = solve_capacity(p, T, eps)
        g_ref = -brute_g([[0.9, 0.1], [0.1, 0.9]], np.array([0.5, 0.5]), 0.75)
        # grid reference is a min over weights too: w* = uniform by symmetry
        gap = report.g_final - g_ref
        assert gap <= math.log(2) / T + 2 * T * eps + 1e-6

    def test_outer_values_non_increasing(self):
        states = random_density_ensemble(11, 4, 2)
        p = CapacityProblem.create(states, 0.8)
        eps = 1e-9
        report = solve_capacity(p, 15, eps)
        g = [s.g_hat for s in report.states]
        assert all(g[t + 1] <= g[t] + 2 * eps for t in range(len(g) - 1))

    def test_certificate_and_budget_recorded(self):
        p = symmetric_pair()
        report = solve_capacity(p, 10, 1e-8)
        assert report.certificate == pytest.approx(math.log(2) / 10)
        assert report.eps_budget == pytest.approx(2 * 11 * 1e-8)

    def test_is_the_hand_driven_loop(self):
        # each step moves w on the last gradient, then queries the oracle,
        # warm-started from the last inner state
        p = CapacityProblem.create(random_density_ensemble(4104, 4, 2), 0.7)
        eps = 1e-9
        report = solve_capacity(p, 5, eps)
        w = np.full(4, 0.25)
        result = approx_oracle_detailed(p, w, eps)
        by_hand = [(1, w, result)]
        for step in range(2, 7):
            w = mirror_update(w, result.grad_hat)
            result = approx_oracle_detailed(p, w, eps, start=result.state)
            by_hand.append((step, w, result))
        assert len(report.states) == len(by_hand)
        for state, (step, w, result) in zip(report.states, by_hand):
            assert state.step == step
            assert np.array_equal(state.w, w)
            assert state.g_hat == result.g_hat
            assert np.array_equal(state.grad_hat, result.grad_hat)
            assert state.inner_iters == result.inner_iters
        assert report.w_final is report.states[-1].w
        assert report.c_hat == -report.states[-1].g_hat

    @pytest.mark.parametrize("bad", [-1.0, 0.0, math.inf, math.nan])
    def test_schedule_is_checked_before_any_oracle_call(self, monkeypatch, bad):
        calls = []
        oracle = capacity.approx_oracle_detailed

        def counting(*args, **kwargs):
            calls.append(1)
            return oracle(*args, **kwargs)

        monkeypatch.setattr(capacity, "approx_oracle_detailed", counting)
        p = symmetric_pair()
        with pytest.raises(InvalidInput, match="positive and finite"):
            solve_capacity(p, 3, bad)
        with pytest.raises(InvalidInput, match="outer iteration count"):
            solve_capacity(p, 0)
        assert calls == []
        solve_capacity(p, 3, 1e-9)
        assert len(calls) == 4

    def test_zero_dimensional_schedule_is_a_scalar(self):
        p = symmetric_pair()
        report = solve_capacity(p, 3, np.array(1e-8))
        scalar = solve_capacity(p, 3, 1e-8)
        assert report.eps_budget == scalar.eps_budget
        assert [s.g_hat for s in report.states] == [s.g_hat for s in scalar.states]

    def test_grid_oracle_matches_long_run(self):
        p = symmetric_pair()
        w_best, g_best = grid_min_capacity_2(p, resolution=400)
        long_run = solve_capacity(p, 200, 1e-10)
        assert abs(g_best - long_run.g_final) <= 1e-5
        assert np.abs(w_best - 0.5).max() <= 1.0 / 400 + 1e-12


class TestDerivativeChecks:
    def test_gradient_matches_finite_differences(self):
        p = commuting_capacity([[0.85, 0.15], [0.2, 0.8], [0.5, 0.5]], 0.75)
        w = np.array([0.3, 0.45, 0.25])
        eps = 1e-11

        def g_of(weights):
            return approx_oracle(p, weights / weights.sum(), eps)[0]

        fd = finite_diff_gradient(g_of, w, 1e-4)
        _, grad = approx_oracle(p, w, eps)
        centered = grad - grad.mean()
        assert np.abs(fd - centered).max() <= max(1e-4, 10 * eps)

    @pytest.mark.parametrize("alpha", [0.6, 0.75, 0.9])
    def test_relative_smoothness_curvature(self, rng, alpha):
        p = commuting_capacity([[0.85, 0.15], [0.2, 0.8], [0.5, 0.5]], alpha)
        eps = 1e-12

        def g_of(weights):
            return approx_oracle(p, weights / weights.sum(), eps)[0]

        for _ in range(40):
            w = rng.dirichlet(np.ones(3)) * 0.8 + 0.2 / 3  # keep away from the boundary
            z = rng.standard_normal(3)
            z -= z.mean()  # simplex-tangent direction
            z /= np.abs(z).max()
            h = 1e-3
            curv = finite_diff_curvature(g_of, w, z, h)
            assert curv <= np.sum(z**2 / w) + 1e-3
