"""The Newton equilibrium oracle of the CES Fisher market.

Covers the log-price Hessian against central differences, a seeded sweep of
stressed markets that every one reaches ``tol`` at the defaults, and agreement
with the fixed point of the paper's tatonnement.
"""

import warnings

import numpy as np
import pytest

from augustin_lab import fisher
from augustin_lab.errors import NonFinite
from augustin_lab.fisher import (
    FisherMarket,
    PriceState,
    equilibrium_prices,
    tatonnement_step,
    total_demand,
)
from test_fisher import common_rho_market, random_market
from test_market_kernel import tatonnement_fixed_point, thousand_buyer_market

# elasticity ranges of the sweep's four kinds; None draws each rho from
# {0.01, 0.999} and zeroes about 30% of the valuations
KINDS = ((0.1, 0.7), (0.9, 0.999), (0.001, 0.05), None)
SWEEP = 300
# a mixed market whose first synchronous tatonnement round drives a price to 0
UNDERFLOWING_SEED = 23


def stressed_market(seed):
    """Market ``seed`` of the sweep: n < 40 buyers, d < 30 goods, Dirichlet(0.3)
    valuations, kind ``seed % 4``, every seller bound ``max(rho.max(), 0.5)``."""
    rng = np.random.default_rng(seed)
    kind = KINDS[seed % 4]
    n, d = int(rng.integers(1, 40)), int(rng.integers(1, 30))
    a = rng.dirichlet(np.full(d, 0.3), size=n)
    if kind is None:
        rho = rng.choice([0.01, 0.999], size=n)
        a[rng.random((n, d)) < 0.3] = 0.0
        # every buyer values some good and every good has a buyer
        a[np.arange(n), rng.integers(0, d, size=n)] += 0.1
        a[rng.integers(0, n, size=d), np.arange(d)] += 0.1
        a /= a.sum(axis=1, keepdims=True)
    else:
        rho = rng.uniform(*kind, size=n)
    bound = max(rho.max(), 0.5)
    return FisherMarket.create(a, rng.dirichlet(np.ones(n)), rho, np.full(d, bound))


def test_hessian_matches_central_differences():
    m = thousand_buyer_market(15)
    u = np.log(np.random.default_rng(16).uniform(0.5, 2.0, size=m.d_goods) / m.d_goods)

    def gradient(u):
        p = np.exp(u)
        return p * (1.0 - total_demand(m, p))

    p = np.exp(u)
    s, total, _ = fisher._spending(m, np.log(p))
    hessian = fisher._log_price_hessian(m, p, s, total)
    h = 1e-6
    columns = []
    for k in range(m.d_goods):
        e = np.zeros(m.d_goods)
        e[k] = h
        columns.append((gradient(u + e) - gradient(u - e)) / (2 * h))
    central = np.array(columns).T
    assert np.abs(central - hessian).max() <= 1e-6 * np.abs(hessian).max()


def test_stressed_markets_reach_tol_at_the_defaults(monkeypatch):
    # A plain sufficient-decrease test stalls here: on many of these markets
    # the last steps predict a decrease below the potential's rounding.
    steps = []
    hessian = fisher._log_price_hessian

    def counting_hessian(*args):
        steps[-1] += 1
        return hessian(*args)

    monkeypatch.setattr(fisher, "_log_price_hessian", counting_hessian)
    for seed in range(SWEEP):
        m = stressed_market(seed)
        steps.append(0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            p_star = equilibrium_prices(m)
        assert np.abs(total_demand(m, p_star) - 1.0).max() <= 1e-10, seed
    # the default cap of 200 steps is at least twice the sweep's worst count
    assert max(steps) <= 100


def test_sweep_holds_a_market_the_tatonnement_cannot_price():
    m = stressed_market(UNDERFLOWING_SEED)
    assert KINDS[UNDERFLOWING_SEED % 4] is None
    state = PriceState.start(np.full(m.d_goods, 1.0 / m.d_goods))
    with pytest.raises(NonFinite, match="underflowed"):
        tatonnement_step(m, state, range(m.d_goods))
    p_star = equilibrium_prices(m)
    assert np.abs(total_demand(m, p_star) - 1.0).max() <= 1e-10


TATONNEMENT_MARKETS = {
    **{f"random-{seed}": (random_market, (seed,), {}) for seed in (5, 6, 8, 9, 11, 12)},
    "random-14": (random_market, (14,), {"n": 5, "d": 6}),
    "common-16": (common_rho_market, (16, 0.25), {}),
}


def c10_market(seed):
    rng = np.random.default_rng(5000 + seed)
    return FisherMarket.create(
        rng.dirichlet(np.ones(6), size=5),
        rng.dirichlet(np.ones(5)),
        rng.uniform(0.1, 0.7, size=5),
        np.full(6, 0.75),
    )


@pytest.mark.parametrize(
    "market",
    [build(*args, **kwargs) for build, args, kwargs in TATONNEMENT_MARKETS.values()]
    + [c10_market(seed) for seed in range(10)],
    ids=[*TATONNEMENT_MARKETS, *(f"c10-{seed}" for seed in range(10))],
)
def test_agrees_with_the_tatonnement_fixed_point(market):
    p_star = equilibrium_prices(market)
    assert np.abs(p_star / tatonnement_fixed_point(market) - 1.0).max() <= 2e-10
