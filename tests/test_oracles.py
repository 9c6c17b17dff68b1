import itertools

import numpy as np
import pytest

from augustin_lab.capacity import CapacityProblem
from augustin_lab.divergences import ClassicalAugustinProblem
from augustin_lab.errors import InvalidInput, Unsupported
from augustin_lab.fisher import FisherMarket
from augustin_lab.oracles import grid_min_classical_augustin, simplex_grid
from reference import (
    coordinate_descent_potential,
    finite_diff_curvature,
    finite_diff_gradient,
    grid_min_capacity_2,
)


class TestSimplexGrid:
    @pytest.mark.parametrize("dimension", [1, 2, 3, 4, 5])
    def test_matches_filtered_product(self, dimension):
        for resolution in range(3, 13):
            tuples = itertools.product(range(resolution + 1), repeat=dimension)
            ref = np.array([t for t in tuples if sum(t) == resolution]) / resolution
            assert np.array_equal(simplex_grid(resolution, dimension), ref)

    def test_counts_and_normalization(self):
        pts = simplex_grid(4, 3)
        assert pts.shape == (15, 3)  # compositions of 4 into 3 parts
        assert np.abs(pts.sum(axis=1) - 1.0).max() <= 1e-15

    def test_lexicographic_order(self):
        pts = simplex_grid(3, 2)
        assert np.array_equal(pts[:, 0], np.array([0, 1, 2, 3]) / 3)

    def test_resolution_floor(self):
        p = ClassicalAugustinProblem.create([[0.2, 0.3, 0.5]], [1.0], 1.5)
        with pytest.raises(InvalidInput):
            grid_min_classical_augustin(p, 2)


class TestGridMinClassical:
    def test_single_point_argmin_near_target(self, rng):
        a = np.array([0.25, 0.25, 0.5])
        p = ClassicalAugustinProblem.create([a], [1.0], 1.5)
        q_best, f_best = grid_min_classical_augustin(p, 20)
        assert np.abs(q_best - a).max() <= 1.0 / 20 + 1e-12
        assert f_best <= 1e-12  # the target is itself a grid point

    def test_symmetric_instance_symmetric_argmin(self):
        pts = [[0.8, 0.2, 0.0], [0.2, 0.8, 0.0]]
        # make third coordinate positive so the problem is valid
        pts = [[0.75, 0.2, 0.05], [0.2, 0.75, 0.05]]
        p = ClassicalAugustinProblem.create(pts, [0.5, 0.5], 2.0)
        q_best, _ = grid_min_classical_augustin(p, 60)
        assert abs(q_best[0] - q_best[1]) <= 1.0 / 60 + 1e-12

    def test_monotone_refinement(self, rng):
        pts = rng.dirichlet(np.ones(3), size=2)
        p = ClassicalAugustinProblem.create(pts, [0.5, 0.5], 0.8)
        _, f_coarse = grid_min_classical_augustin(p, 30)
        _, f_fine = grid_min_classical_augustin(p, 60)
        assert f_fine <= f_coarse + 1e-12

    def test_sweep_value_not_above_grid(self, rng):
        from augustin_lab.augustin import solve_petz_augustin
        from augustin_lab.divergences import objective_f

        pts = rng.dirichlet(np.ones(3), size=3)
        p = ClassicalAugustinProblem.create(pts, np.ones(3) / 3, 1.5)
        report = solve_petz_augustin(p, max_iter=300, residual_tol=1e-14)
        _, f_grid = grid_min_classical_augustin(p, 40)
        assert objective_f(p, report.final) <= f_grid + 1e-10

    def test_dimension_guard(self):
        pts = np.full((2, 6), 1 / 6)
        p = ClassicalAugustinProblem.create(pts, [0.5, 0.5], 1.5)
        with pytest.raises(Unsupported):
            grid_min_classical_augustin(p, 10)


class TestFiniteDifferences:
    def test_linear_function_exact(self):
        c = np.array([1.0, -2.0, 3.0])

        def fn(w):
            return float(np.dot(c, w))

        w = np.array([0.3, 0.3, 0.4])
        fd = finite_diff_gradient(fn, w, 1e-5)
        centered = c - c.mean()
        assert np.abs(fd - centered).max() <= 1e-10

    def test_quadratic_function(self):
        def fn(w):
            return float(np.dot(w, w))

        w = np.array([0.2, 0.3, 0.5])
        fd = finite_diff_gradient(fn, w, 1e-5)
        grad = 2 * w
        assert np.abs(fd - (grad - grad.mean())).max() <= 1e-8

    def test_step_size_range_enforced(self):
        with pytest.raises(InvalidInput):
            finite_diff_gradient(lambda w: 0.0, np.array([0.5, 0.5]), 1e-3)

    def test_boundary_guard(self):
        with pytest.raises(InvalidInput):
            finite_diff_gradient(lambda w: 0.0, np.array([1e-7, 1 - 1e-7]), 1e-4)

    def test_curvature_of_quadratic(self):
        def fn(w):
            return float(np.dot(w, w))

        w = np.array([0.3, 0.3, 0.4])
        z = np.array([1.0, -1.0, 0.0])
        curv = finite_diff_curvature(fn, w, z, 1e-4)
        assert curv == pytest.approx(2 * np.dot(z, z), abs=1e-6)

    def test_curvature_probe_guards(self):
        w = np.array([0.3, 0.3, 0.4])
        z = np.array([1.0, -1.0, 0.0])
        with pytest.raises(InvalidInput):
            finite_diff_curvature(lambda x: 0.0, w, z, 0.0)
        with pytest.raises(InvalidInput):
            finite_diff_curvature(lambda x: 0.0, w, z, 0.5)  # leaves the orthant


class TestCapacityGrid:
    def test_identical_states_flat(self):
        a = np.diag([0.6, 0.4]).astype(complex)
        p = CapacityProblem.create([a, a], 0.8)
        _, g_best = grid_min_capacity_2(p, resolution=20)
        assert abs(g_best) <= 1e-8

    def test_symmetric_pair_centered(self):
        a1 = np.diag([0.9, 0.1]).astype(complex)
        a2 = np.diag([0.1, 0.9]).astype(complex)
        p = CapacityProblem.create([a1, a2], 0.75)
        w_best, _ = grid_min_capacity_2(p, resolution=40)
        assert abs(w_best[0] - 0.5) <= 1.0 / 40 + 1e-12

    def test_requires_two_states(self):
        states = [np.diag([0.5, 0.5]).astype(complex)] * 3
        p = CapacityProblem.create(states, 0.8)
        with pytest.raises(Unsupported):
            grid_min_capacity_2(p, resolution=10)

    def test_resolution_floor(self):
        a = np.diag([0.6, 0.4]).astype(complex)
        p = CapacityProblem.create([a, np.diag([0.4, 0.6]).astype(complex)], 0.8)
        with pytest.raises(InvalidInput):
            grid_min_capacity_2(p, resolution=2)


class TestCoordinateDescentPotential:
    def test_goods_limit(self):
        market = FisherMarket.create(np.full((1, 5), 0.2), [1.0], [0.5], np.full(5, 0.6))
        with pytest.raises(Unsupported):
            coordinate_descent_potential(market, np.full(5, 0.2))
