"""The vectorised log-domain demand kernel of the CES Fisher market.

Covers the large-market agreement between total demand, per-buyer demand and
the potential's gradient, the goods-major layout against the buyer-major
formula, elasticities next to 1 (where the direct form ``a^e * p^(-e)``
overflows), the demand evaluations of the equilibrium oracle, a schedule
checked once and then stepped like the public step, and the ``max rho_hat``
epoch contraction at a thousand buyers.
"""

import warnings

import numpy as np
import pytest

from augustin_lab import fisher
from augustin_lab.errors import InvalidInput, NonFinite, NotConverged
from augustin_lab.fisher import (
    FisherMarket,
    PriceState,
    UpdateSchedule,
    buyer_demand,
    equilibrium_prices,
    potential,
    run_schedule,
    tatonnement_step,
    total_demand,
)
from augustin_lab.linalg import thompson_metric_vec


def thousand_buyer_market(seed, d=50, rho_hat=0.75):
    rng = np.random.default_rng(seed)
    return FisherMarket.create(
        rng.dirichlet(np.ones(d), size=1000),
        rng.dirichlet(np.ones(1000)),
        rng.uniform(0.1, 0.7, size=1000),
        np.full(d, rho_hat),
    )


def near_unit_market():
    # buyer 0 has e = 1/(1-rho) = 1000: 3^1000 overflows and 0.2^1000 underflows
    return FisherMarket.create(
        [[0.5, 0.3, 0.2], [0.2, 0.2, 0.6]], [0.5, 0.5], [0.999, 0.5], np.full(3, 0.999)
    )


class TestThousandBuyers:
    def test_total_is_sum_of_buyer_demands(self):
        m = thousand_buyer_market(0)
        rng = np.random.default_rng(1)
        for _ in range(3):
            p = rng.uniform(0.2, 3.0, size=m.d_goods) / m.d_goods
            x = total_demand(m, p)
            summed = sum(buyer_demand(m, j, p) for j in range(len(m.budgets)))
            assert np.abs(x / summed - 1.0).max() <= 1e-13
            assert p @ x == pytest.approx(1.0, abs=1e-12)

    def test_potential_gradient_is_excess_supply(self):
        m = thousand_buyer_market(2)
        p = np.random.default_rng(3).uniform(0.5, 2.0, size=m.d_goods) / m.d_goods
        x = total_demand(m, p)
        h = 1e-7
        for i in range(m.d_goods):
            e = np.zeros(m.d_goods)
            e[i] = h
            fd = (potential(m, p + e) - potential(m, p - e)) / (2 * h)
            assert fd == pytest.approx(1.0 - x[i], abs=1e-5)

    def test_epoch_contraction_random_coverage(self):
        m = thousand_buyer_market(4, d=20)
        p_star = equilibrium_prices(m)
        assert np.abs(total_demand(m, p_star) - 1.0).max() <= 1e-10
        epochs = 20
        sched = UpdateSchedule.random_coverage(m.d_goods, epochs, seed=5)
        p1 = np.full(m.d_goods, 1.0 / m.d_goods)
        states, boundaries = run_schedule(m, p1, sched)
        d0 = thompson_metric_vec(p_star, p1)
        assert len(boundaries) >= epochs
        for t, b in enumerate(boundaries[:epochs], start=1):
            assert thompson_metric_vec(p_star, states[b].p) <= m.rho_hat_max**t * d0 * (1 + 1e-8)


class TestNumericalEdges:
    def test_elasticity_near_one_is_finite(self):
        m = near_unit_market()
        # at the second price vector even exp(e log a - rho e log p) overflows
        for p in (np.array([0.01, 0.01, 0.98]), np.full(3, 1.0 / 3.0)):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                x = total_demand(m, p)
                x0 = buyer_demand(m, 0, p)
                value = potential(m, p)
            assert np.all(np.isfinite(x)) and np.isfinite(value)
            assert p @ x == pytest.approx(1.0, abs=1e-12)
        # nearly linear utility: buyer 0 spends its budget on its best good
        assert np.abs(x0 - [1.5, 0.0, 0.0]).max() <= 1e-12
        # buyer 1 (e = 2) spends in proportion to a^2
        share = np.array([0.04, 0.04, 0.36]) / 0.44
        assert np.abs(x - x0 - 0.5 * share / p).max() <= 1e-12

    def test_elasticity_near_one_reaches_equilibrium(self):
        m = near_unit_market()
        # every seller bound is 0.999: the tatonnement removes about 1e-3 of
        # the log-distance per round, but Newton on the potential does not care
        p_star = equilibrium_prices(m)
        assert np.abs(total_demand(m, p_star) - 1.0).max() <= 1e-10
        p1 = np.full(3, 1.0 / 3.0)
        states, _ = run_schedule(m, p1, UpdateSchedule.synchronous(3, 200))
        d0 = thompson_metric_vec(p_star, p1)
        for t, state in enumerate(states):
            assert thompson_metric_vec(p_star, state.p) <= m.rho_hat_max**t * d0 * (1 + 1e-8)

    def test_price_leaving_the_orthant_is_non_finite(self):
        # the step cap is NotConverged; only a price outside (0, inf) is NonFinite
        assert not issubclass(NotConverged, NonFinite)
        m = near_unit_market()
        state = PriceState.start(np.full(3, 1.0 / 3.0))
        everyone = np.arange(3)
        with pytest.raises(NonFinite, match="overflowed"):
            fisher._reprice(m, state, everyone, np.array([np.inf, 1.0, 1.0]))
        with pytest.raises(NonFinite, match="underflowed"):
            fisher._reprice(m, state, everyone, np.array([0.0, 1.0, 1.0]))

    def test_zero_valuation_gets_zero_demand(self):
        m = FisherMarket.create(
            [[0.0, 0.4, 0.6], [0.5, 0.5, 0.0]], [0.3, 0.7], [0.2, 0.6], np.full(3, 0.6)
        )
        p = np.array([0.2, 0.5, 0.3])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            x0 = buyer_demand(m, 0, p)
            x1 = buyer_demand(m, 1, p)
            value = potential(m, p)
        assert x0[0] == 0.0 and x1[2] == 0.0
        assert np.isfinite(value)
        assert np.abs(total_demand(m, p) - (x0 + x1)).max() <= 1e-15

    def test_create_builds_no_kernel_terms(self):
        m = thousand_buyer_market(6)
        assert "_scaled_log_valuations" not in vars(m)
        assert "_price_exponents" not in vars(m)
        total_demand(m, np.full(m.d_goods, 1.0 / m.d_goods))
        assert "_scaled_log_valuations" in vars(m)


class TestGoodsMajorKernel:
    def test_layout_is_goods_major_and_contiguous(self):
        m = thousand_buyer_market(9)
        logs = m._scaled_log_valuations
        assert logs.shape == (m.d_goods, len(m.budgets)) and logs.flags.c_contiguous

    def test_demand_matches_the_buyer_major_formula(self):
        # the buyer-major form this kernel replaced, written out: the GEMV sums
        # in another order, so the two agree to a few ulps, not bit for bit
        m = thousand_buyer_market(10)
        rho, w = m.elasticities, m.budgets
        rng = np.random.default_rng(11)
        for _ in range(5):
            p = rng.uniform(0.2, 3.0, size=m.d_goods) / m.d_goods
            z = np.multiply.outer(rho / (1 - rho), -np.log(p))
            z += np.log(m.valuations) / (1 - rho)[:, None]
            s = np.exp(z - z.max(axis=1, keepdims=True))
            reference = ((w / s.sum(axis=1)) @ s) / p
            assert np.abs(total_demand(m, p) / reference - 1.0).max() <= 4e-15
            for j in (0, 517, 999):
                alone = w[j] * s[j] / s[j].sum() / p
                assert np.abs(buyer_demand(m, j, p) - alone).max() <= 4e-15 * alone.max()


class TestScheduleCheckedOnce:
    def test_states_are_those_of_the_public_step(self):
        m = thousand_buyer_market(12)
        sched = UpdateSchedule.random_coverage(m.d_goods, 20, seed=13)
        p1 = np.full(m.d_goods, 1.0 / m.d_goods)
        states, _ = run_schedule(m, p1, sched)
        state = PriceState.start(p1)
        assert np.array_equal(states[0].p, state.p)
        for subset, ran in zip(sched.rounds, states[1:], strict=True):
            state = tatonnement_step(m, state, subset)
            assert ran.step == state.step and np.array_equal(ran.p, state.p)

    def test_every_schedule_holds_sorted_nonempty_rounds(self):
        assert UpdateSchedule([[3, 1, 3], (2,)]).rounds == ((1, 3), (2,))
        with pytest.raises(InvalidInput, match="round 1 has an empty update set"):
            UpdateSchedule([[0], []])

    def test_non_integer_index_is_refused_not_truncated(self):
        for build in (UpdateSchedule.create, UpdateSchedule):
            with pytest.raises(InvalidInput, match="integers"):
                build([[0.7, 1.9]])
        with pytest.raises(InvalidInput, match="integers"):
            tatonnement_step(near_unit_market(), PriceState.start(np.full(3, 1 / 3)), [0, 1.0])
        # numpy integers are integers
        assert UpdateSchedule.create([np.array([2, 0, 2])]).rounds == ((0, 2),)

    @pytest.mark.parametrize(
        "bad", [[[0], [1, 50]], [[0], [-1, 2]], [[0], (50, 0)]], ids=["d", "negative", "unsorted"]
    )
    @pytest.mark.parametrize("build", [UpdateSchedule.create, UpdateSchedule])
    def test_out_of_range_index_raises_before_any_repricing(self, bad, build, monkeypatch):
        m = thousand_buyer_market(14)
        calls = []
        monkeypatch.setattr(fisher, "_reprice", lambda *args: calls.append(args))
        monkeypatch.setattr(fisher, "total_demand", lambda *args: calls.append(args))
        with pytest.raises(InvalidInput, match="out-of-range"):
            run_schedule(m, np.full(m.d_goods, 1.0 / m.d_goods), build(bad))
        assert calls == []


def tatonnement_fixed_point(market):
    """Synchronous tatonnement from 1/d until rho_hat^rounds is below 1e-17."""
    state = PriceState.start(np.full(market.d_goods, 1.0 / market.d_goods))
    for _ in range(int(np.ceil(np.log(1e-17) / np.log(market.rho_hat_max)))):
        state = tatonnement_step(market, state, range(market.d_goods))
    return state.p


class TestDemandPerRound:
    def _counted(self, monkeypatch):
        calls = {"spending": 0}
        spending = fisher._spending

        def counting_spending(*args):
            calls["spending"] += 1
            return spending(*args)

        monkeypatch.setattr(fisher, "_spending", counting_spending)
        return calls

    def test_one_evaluation_per_round(self, monkeypatch):
        # each trial point costs one spending evaluation, which serves its
        # potential, the stop test and the next Newton step
        m = thousand_buyer_market(7)
        calls = self._counted(monkeypatch)
        p_star = equilibrium_prices(m)
        assert 0 < calls["spending"] <= 10
        monkeypatch.undo()
        assert np.abs(p_star / tatonnement_fixed_point(m) - 1.0).max() <= 2e-10

    def test_round_cap_counts(self, monkeypatch):
        m = thousand_buyer_market(8)
        calls = self._counted(monkeypatch)
        monkeypatch.setattr(fisher, "MAX_NEWTON_STEPS", 1)
        with pytest.raises(NotConverged, match="within MAX_NEWTON_STEPS=1 "):
            equilibrium_prices(m)
        # the start and one accepted full step
        assert calls == {"spending": 2}
