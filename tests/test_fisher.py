import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from augustin_lab.augustin import (
    STOP_RESIDUAL,
    initial_state,
    petz_augustin_step,
    solve_petz_augustin,
)
from augustin_lab.divergences import ClassicalAugustinProblem
from augustin_lab.errors import InvalidInput
from augustin_lab.fisher import (
    FisherMarket,
    PriceState,
    UpdateSchedule,
    buyer_demand,
    epoch_boundaries,
    equilibrium_prices,
    potential,
    run_schedule,
    tatonnement_step,
    total_demand,
)
from augustin_lab.linalg import thompson_metric_vec
from reference import (
    augustin_classical_baseline_step,
    cheung_baseline_step,
    coordinate_descent_potential,
    metric_comparability_check,
)


def random_market(seed, n=4, d=5, rho_low=0.1, rho_high=0.7, rho_hat=0.75):
    rng = np.random.default_rng(seed)
    return FisherMarket.create(
        rng.dirichlet(np.ones(d), size=n),
        rng.dirichlet(np.ones(n)),
        rng.uniform(rho_low, rho_high, size=n),
        np.full(d, rho_hat),
    )


def common_rho_market(seed, rho, n=3, d=4):
    rng = np.random.default_rng(seed)
    return FisherMarket.create(
        rng.dirichlet(np.ones(d), size=n),
        rng.dirichlet(np.ones(n)),
        np.full(n, rho),
        np.full(d, rho),
    )


class TestMarketValidation:
    def test_seller_bound_below_elasticity_rejected(self):
        rng = np.random.default_rng(0)
        with pytest.raises(InvalidInput):
            FisherMarket.create(
                rng.dirichlet(np.ones(3), size=2),
                [0.5, 0.5],
                [0.4, 0.6],
                [0.5, 0.5, 0.5],  # below max elasticity
            )

    def test_nan_seller_bound_rejected(self):
        # NaN fails every comparison: it is refused here, not met as a
        # non-finite price update later
        rng = np.random.default_rng(0)
        with pytest.raises(InvalidInput, match="seller bounds"):
            FisherMarket.create(
                rng.dirichlet(np.ones(3), size=2), [0.5, 0.5], [0.3, 0.4], [0.5, math.nan, 0.5]
            )

    def test_elasticity_range_enforced(self):
        rng = np.random.default_rng(0)
        for bad in ([0.0, 0.5], [0.5, 1.0], [-0.2, 0.5]):
            with pytest.raises(InvalidInput):
                FisherMarket.create(
                    rng.dirichlet(np.ones(3), size=2), [0.5, 0.5], bad, [0.9] * 3
                )

    @pytest.mark.parametrize(
        "valuations, budgets, bounds",
        [
            ([0.2, 0.3, 0.5], [1.0], [0.9] * 3),  # 1-D valuations
            ([[1.2, -0.2, 0.0], [0.2, 0.3, 0.5]], [0.5, 0.5], [0.9] * 3),  # negative
            ([[0.2, 0.3, 0.4], [0.2, 0.3, 0.5]], [0.5, 0.5], [0.9] * 3),  # row sum 0.9
            ([[0.5, 0.5, 0.0], [0.4, 0.6, 0.0]], [0.5, 0.5], [0.9] * 3),  # good 2 unvalued
            ([[0.2, 0.3, 0.5], [0.2, 0.3, 0.5]], [0.5, 0.4], [0.9] * 3),  # budgets sum 0.9
            ([[0.2, 0.3, 0.5], [0.2, 0.3, 0.5]], [1.0], [0.9] * 3),  # one budget for two
            ([[0.2, 0.3, 0.5], [0.2, 0.3, 0.5]], [0.5, 0.5], [0.9] * 2),  # two bounds
        ],
    )
    def test_malformed_market_rejected(self, valuations, budgets, bounds):
        with pytest.raises(InvalidInput):
            FisherMarket.create(valuations, budgets, [0.4, 0.5], bounds)


class TestDemand:
    def test_single_good(self):
        m = FisherMarket.create([[1.0]], [1.0], [0.3], [0.5])
        assert buyer_demand(m, 0, np.array([0.25]))[0] == pytest.approx(4.0)

    def test_uniform_symmetry(self):
        d = 4
        m = FisherMarket.create(
            [np.full(d, 1 / d)], [1.0], [0.4], np.full(d, 0.6)
        )
        x = buyer_demand(m, 0, np.full(d, 2.0))
        assert np.abs(x - 1.0 / (d * 2.0)).max() <= 1e-12

    @given(st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_budget_exhaustion(self, seed):
        m = random_market(seed % 100)
        rng = np.random.default_rng(seed)
        p = rng.uniform(0.05, 3.0, size=m.d_goods)
        for j in range(len(m.budgets)):
            x = buyer_demand(m, j, p)
            assert np.dot(p, x) == pytest.approx(m.budgets[j], abs=1e-10)

    def test_rejects_zero_price(self):
        m = random_market(2)
        with pytest.raises(InvalidInput):
            buyer_demand(m, 0, np.zeros(m.d_goods))

    def test_matches_grid_utility_maximizer(self):
        # zoomed grid over spend shares: two-stage refinement to ~1e-4
        m = random_market(3, n=1, d=3)
        rng = np.random.default_rng(7)
        p = rng.uniform(0.3, 1.5, size=3)
        j = 0
        rho = m.elasticities[j]

        def utility(x):
            return float(np.dot(m.valuations[j], x**rho) ** (1 / rho))

        def best_on_grid(center, width, steps):
            best_x, best_u = None, -np.inf
            ss = np.linspace(max(center[0] - width, 0), min(center[0] + width, 1), steps)
            ts = np.linspace(max(center[1] - width, 0), min(center[1] + width, 1), steps)
            for s in ss:
                for t in ts:
                    third = 1.0 - s - t
                    if third < 0:
                        continue
                    shares = np.array([s, t, third])
                    x = shares * m.budgets[j] / p
                    u = utility(x)
                    if u > best_u:
                        best_u, best_x = u, x
            return best_x, best_u

        x_grid, u_grid = best_on_grid(np.array([1 / 3, 1 / 3]), 1.0, 101)
        for width in (0.02, 5e-4):
            shares = x_grid * p / m.budgets[j]
            x_grid, u_grid = best_on_grid(shares[:2], width, 161)
        x_closed = buyer_demand(m, j, p)
        assert utility(x_closed) >= u_grid - 1e-10
        assert np.abs(x_closed - x_grid).max() <= 1e-4 * max(1.0, np.abs(x_closed).max())


class TestTotalDemand:
    def test_single_buyer_at_valuation_prices(self, rng):
        a = rng.dirichlet(np.ones(4))
        m = FisherMarket.create([a], [1.0], [0.35], np.full(4, 0.5))
        assert np.abs(total_demand(m, a) - 1.0).max() <= 1e-12

    def test_uniform_market(self):
        d = 5
        m = FisherMarket.create(
            [np.full(d, 1 / d)] * 2, [0.5, 0.5], [0.3, 0.3], np.full(d, 0.5)
        )
        assert np.abs(total_demand(m, np.full(d, 1 / d)) - 1.0).max() <= 1e-12

    def test_value_of_demand_is_total_budget(self, rng):
        m = random_market(4)
        p = rng.uniform(0.1, 2.0, size=m.d_goods)
        assert np.dot(p, total_demand(m, p)) == pytest.approx(1.0, abs=1e-10)

    def test_equilibrium_residual(self):
        m = random_market(5)
        p_star = equilibrium_prices(m)
        assert np.abs(total_demand(m, p_star) - 1.0).max() <= 1e-10


class TestPotential:
    def test_one_dimensional_closed_form(self):
        m = FisherMarket.create([[1.0]], [1.0], [0.5], [0.5])
        for p in (0.5, 1.0, 2.0):
            assert potential(m, np.array([p])) == pytest.approx(p - math.log(p), abs=1e-12)
        assert potential(m, np.array([1.0])) <= potential(m, np.array([0.9]))
        assert potential(m, np.array([1.0])) <= potential(m, np.array([1.1]))

    def test_minimized_at_equilibrium(self, rng):
        m = random_market(6)
        p_star = equilibrium_prices(m)
        base = potential(m, p_star)
        for _ in range(100):
            perturbed = p_star * np.exp(rng.uniform(-0.5, 0.5, size=m.d_goods))
            assert base <= potential(m, perturbed) + 1e-12

    def test_gradient_is_excess_supply(self, rng):
        m = random_market(7)
        p = rng.uniform(0.2, 1.5, size=m.d_goods)
        x = total_demand(m, p)
        h = 1e-6
        for i in range(m.d_goods):
            e = np.zeros(m.d_goods)
            e[i] = h
            fd = (potential(m, p + e) - potential(m, p - e)) / (2 * h)
            assert fd == pytest.approx(1.0 - x[i], abs=1e-5)

    def test_cross_checked_by_coordinate_descent(self):
        m = random_market(8, n=3, d=3)
        p_star = equilibrium_prices(m)
        p_cd = coordinate_descent_potential(m, np.full(3, 1 / 3))
        assert np.abs(p_cd - p_star).max() <= 1e-6


class TestTatonnement:
    def test_fixed_at_equilibrium(self):
        m = random_market(9)
        p_star = equilibrium_prices(m)
        state = PriceState.start(p_star)
        out = tatonnement_step(m, state, range(m.d_goods))
        assert np.abs(out.p - p_star).max() <= 1e-9 * p_star.max()

    def test_single_buyer_converges_to_valuations(self, rng):
        a = rng.dirichlet(np.ones(4))
        m = FisherMarket.create([a], [1.0], [0.35], np.full(4, 0.5))
        state = PriceState.start(np.full(4, 0.25))
        for _ in range(200):
            state = tatonnement_step(m, state, range(4))
        assert np.abs(state.p - a).max() <= 1e-10

    def test_counts_and_partial_updates(self):
        m = random_market(10)
        state = PriceState.start(np.full(m.d_goods, 1 / m.d_goods))
        out = tatonnement_step(m, state, [0, 2])
        assert np.all(out.p[[0, 2]] != state.p[[0, 2]])
        assert np.array_equal(out.p[[1, 3, 4]], state.p[[1, 3, 4]])
        with pytest.raises(InvalidInput):
            tatonnement_step(m, state, [])
        for outside in ([0, m.d_goods], [-1]):
            with pytest.raises(InvalidInput):
                tatonnement_step(m, state, outside)

    def test_coordinate_contraction(self, rng):
        m = random_market(11)
        p_star = equilibrium_prices(m)
        rho_hat = m.rho_hat_max
        for trial in range(10):
            p = p_star * np.exp(rng.uniform(-1.0, 1.0, size=m.d_goods))
            dist = thompson_metric_vec(p_star, p)
            out = tatonnement_step(m, PriceState.start(p), range(m.d_goods))
            for i in range(m.d_goods):
                assert abs(math.log(out.p[i] / p_star[i])) <= rho_hat * dist + 1e-9

    def test_distance_monotone_any_subset(self, rng):
        m = random_market(12)
        p_star = equilibrium_prices(m)
        p = p_star * np.exp(rng.uniform(-0.8, 0.8, size=m.d_goods))
        state = PriceState.start(p)
        dist = thompson_metric_vec(p_star, state.p)
        for r in range(30):
            subset = rng.choice(m.d_goods, size=rng.integers(1, m.d_goods + 1), replace=False)
            state = tatonnement_step(m, state, subset)
            new_dist = thompson_metric_vec(p_star, state.p)
            assert new_dist <= dist + 1e-9
            dist = new_dist

    def test_homogeneous_reduction_matches_sweep(self, rng):
        # common elasticity + full updates = the fixed-point sweep under
        # alpha = 1/(1-rho), acting on the same raw sequence
        rho = 0.4
        m = common_rho_market(13, rho)
        alpha = 1.0 / (1.0 - rho)
        problem = ClassicalAugustinProblem.create(
            m.valuations, m.budgets, alpha
        )
        p0 = rng.uniform(0.2, 1.0, size=m.d_goods)
        state_m = PriceState.start(p0)
        state_c = initial_state(problem, p0)
        for _ in range(25):
            state_m = tatonnement_step(m, state_m, range(m.d_goods))
            state_c = petz_augustin_step(problem, state_c)
            assert np.abs(state_m.p - state_c.matrix).max() <= 1e-10 * max(1, state_c.matrix.max())

    def test_equilibrium_is_the_sweep_fixed_point(self):
        # at a common elasticity rho the equilibrium prices are the fixed
        # point of the vector sweep at order 1/(1-rho), both solved to their
        # default tolerances
        rng = np.random.default_rng(4400)
        worst = 0.0
        for _ in range(50):
            n, d, rho = rng.integers(1, 30), rng.integers(2, 20), rng.uniform(0.05, 0.95)
            m = common_rho_market(rng, rho, n, d)
            problem = ClassicalAugustinProblem.create(m.valuations, m.budgets, 1.0 / (1.0 - rho))
            report = solve_petz_augustin(problem)
            assert report.stop_reason == STOP_RESIDUAL
            worst = max(worst, np.abs(np.log(equilibrium_prices(m) / report.final)).max())
        assert worst <= 1e-8


class TestSchedules:
    def test_synchronous_epochs(self):
        sched = UpdateSchedule.synchronous(4, 6)
        assert epoch_boundaries(sched, 4) == [1, 2, 3, 4, 5, 6]

    def test_round_robin_epochs(self):
        d = 5
        sched = UpdateSchedule.round_robin(d, d * 3)
        assert epoch_boundaries(sched, d) == [d, 2 * d, 3 * d]

    def test_empty_round_rejected(self):
        with pytest.raises(InvalidInput):
            UpdateSchedule.create([[0], []])

    def test_uncovered_good_reports_no_epochs(self):
        sched = UpdateSchedule.create([[0], [0], [0]])
        assert epoch_boundaries(sched, 2) == []

    def test_random_coverage_completes_epochs(self):
        sched = UpdateSchedule.random_coverage(5, epochs=7, seed=3)
        assert len(epoch_boundaries(sched, 5)) >= 7

    @pytest.mark.parametrize("kind", ["synchronous", "round-robin", "random"])
    def test_epoch_contraction(self, kind):
        m = random_market(14, n=5, d=6)
        p_star = equilibrium_prices(m)
        rho_hat = m.rho_hat_max
        d = m.d_goods
        epochs = 12
        if kind == "synchronous":
            sched = UpdateSchedule.synchronous(d, epochs)
        elif kind == "round-robin":
            sched = UpdateSchedule.round_robin(d, epochs * d)
        else:
            sched = UpdateSchedule.random_coverage(d, epochs, seed=21)
        p1 = np.full(d, 1.0 / d)
        states, boundaries = run_schedule(m, p1, sched)
        d0 = thompson_metric_vec(p_star, p1)
        assert len(boundaries) >= epochs
        for t, b in enumerate(boundaries[:epochs], start=1):
            dist = thompson_metric_vec(p_star, states[b].p)
            assert dist <= rho_hat**t * d0 * (1 + 1e-8)


class TestCheungBaseline:
    def test_requires_common_elasticity(self):
        m = random_market(15)
        with pytest.raises(InvalidInput):
            cheung_baseline_step(m, np.full(m.d_goods, 0.5))

    def test_fixed_at_equilibrium(self):
        m = common_rho_market(16, 0.25)
        p_star = equilibrium_prices(m)
        out = cheung_baseline_step(m, p_star)
        assert np.abs(out - p_star).max() <= 1e-9

    def test_matches_classical_baseline_step(self, rng):
        # same update under the dictionary alpha = 1/(1-rho), prices = points
        rho = 0.25
        m = common_rho_market(17, rho)
        problem = ClassicalAugustinProblem.create(m.valuations, m.budgets, 1.0 / (1.0 - rho))
        p = rng.uniform(0.2, 1.2, size=m.d_goods)
        for _ in range(50):
            stepped = cheung_baseline_step(m, p)
            baseline = augustin_classical_baseline_step(problem, p)
            assert np.abs(stepped - baseline).max() <= 1e-12 * max(1.0, stepped.max())
            p = stepped

    def test_uniform_valuations_converge_to_uniform_prices(self):
        d = 4
        m = FisherMarket.create(
            [np.full(d, 1 / d)] * 3,
            np.ones(3) / 3,
            np.full(3, 0.25),
            np.full(d, 0.25),
        )
        p = np.array([0.4, 0.1, 0.3, 0.2])
        for _ in range(300):
            p = cheung_baseline_step(m, p)
        assert np.abs(p - 1.0 / d).max() <= 1e-10


class TestComparability:
    def test_equal_vectors(self):
        v = np.array([0.5, 1.5])
        d_t, ratio, holds = metric_comparability_check(v, v)
        assert d_t == 0.0 and ratio == 0.0 and holds

    def test_doubling(self):
        v = np.array([1.0, 2.0, 0.5])
        d_t, ratio, holds = metric_comparability_check(2 * v, v)
        assert d_t == pytest.approx(math.log(2))
        assert ratio == pytest.approx(1.0)
        assert holds

    def test_random_pairs_within_precondition(self, rng):
        count = 0
        while count < 300:
            u = rng.uniform(0.5, 2.0, size=4)
            v = rng.uniform(0.5, 2.0, size=4)
            d_t, _, holds = metric_comparability_check(u, v)
            if d_t < math.log(3):
                assert holds
                count += 1
