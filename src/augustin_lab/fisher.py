"""CES Fisher markets: demand, potential, equilibrium prices and price updates.

Each buyer j has budget w_j and a CES utility <a_j, x^rho_j>^(1/rho_j) with
elasticity rho_j in (0, 1) (the gross-substitutes regime).  Each seller i
holds one unit of good i and knows only an upper bound rho_hat_i on the
buyers' elasticities.  Updated prices move by p_i <- p_i * x(p)_i^(1-rho_hat_i)
where x is total demand; sellers may update asynchronously, and the distance
to the equilibrium price vector contracts by max_i rho_hat_i per epoch (a
stretch of rounds in which every seller updates at least once).

Demand is one log-domain kernel over a goods-major (goods x buyers) array.
The equilibrium oracle does not run that dynamic: it minimises the market's
convex potential by damped Newton steps in log-prices, so seller bounds next
to 1, where the dynamic needs tens of thousands of rounds, cost it nothing.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InvalidInput, NonFinite, NotConverged


@dataclass(frozen=True)
class FisherMarket:
    """Market data: valuations (n, d), budgets (n,), elasticities, seller bounds."""

    valuations: np.ndarray
    budgets: np.ndarray
    elasticities: np.ndarray  # rho_j per buyer, in (0, 1)
    seller_bounds: np.ndarray  # rho_hat_i per good, in [max_j rho_j, 1)

    @classmethod
    def create(cls, valuations, budgets, elasticities, seller_bounds) -> "FisherMarket":
        a = np.asarray(valuations, dtype=float)
        if a.ndim != 2:
            raise InvalidInput("valuations must be a 2-D array (buyers x goods)")
        n, d = a.shape
        if np.any(a < 0):
            raise InvalidInput("valuations must be nonnegative")
        if np.abs(a.sum(axis=1) - 1.0).max() > 1e-12:
            raise InvalidInput("each valuation row must sum to 1 within 1e-12")
        if not np.all(a.sum(axis=0) > 0):
            raise InvalidInput("every good needs positive total valuation")
        w = np.asarray(budgets, dtype=float)
        if w.shape != (n,) or not np.all(w > 0) or abs(w.sum() - 1.0) > 1e-12:
            raise InvalidInput("budgets must be positive and sum to 1 within 1e-12")
        rho = np.asarray(elasticities, dtype=float)
        if rho.shape != (n,) or not np.all((rho > 0) & (rho < 1)):
            raise InvalidInput("elasticities must lie strictly inside (0, 1)")
        rho_hat = np.asarray(seller_bounds, dtype=float)
        if rho_hat.shape != (d,):
            raise InvalidInput(f"expected {d} seller bounds, got shape {rho_hat.shape}")
        if not np.all((rho_hat >= rho.max()) & (rho_hat < 1)):
            raise InvalidInput("seller bounds must lie in [max elasticity, 1)")
        return cls(valuations=a, budgets=w, elasticities=rho, seller_bounds=rho_hat)

    # Built on first use rather than in ``create``: construction stays as
    # cheap as validation, and a market that never prices pays nothing.
    @cached_property
    def _scaled_log_valuations(self) -> np.ndarray:
        """Goods-major (d, n): e_j * log a_jk at [k, j] with e_j = 1/(1-rho_j);
        -inf where a_jk = 0."""
        with np.errstate(divide="ignore"):
            logs = np.log(self.valuations.T, order="C")
        logs /= 1.0 - self.elasticities
        return logs

    @cached_property
    def _price_exponents(self) -> np.ndarray:
        """rho_j * e_j = rho_j / (1 - rho_j)."""
        return self.elasticities / (1.0 - self.elasticities)

    @cached_property
    def _potential_weights(self) -> np.ndarray:
        """w_j (1 - rho_j) / rho_j, the weight of buyer j's log-sum in the potential."""
        return self.budgets * (1.0 - self.elasticities) / self.elasticities

    @property
    def d_goods(self) -> int:
        return self.valuations.shape[1]

    @property
    def rho_hat_max(self) -> float:
        return float(self.seller_bounds.max())

    def to_json(self) -> dict:
        return {
            "valuations": self.valuations.tolist(),
            "budgets": self.budgets.tolist(),
            "rho": self.elasticities.tolist(),
            "rho_hat": self.seller_bounds.tolist(),
        }


def _check_prices(p) -> np.ndarray:
    p = np.asarray(p, dtype=float)
    if not np.all(p > 0) or not np.all(np.isfinite(p)):
        raise InvalidInput("prices must be strictly positive and finite")
    return p


def _spending(market: FisherMarket, log_p: np.ndarray, buyers=slice(None)):
    """Unnormalised spending shares of the ``buyers`` at log-prices ``log_p``.

    Goods-major: returns ``s = exp(z - m)`` with ``s[k, j]`` for good k and
    buyer j, its sum over goods and the per-buyer maximum ``m`` of
    ``z_kj = e_j log a_jk - rho_j e_j log p_k``.  Buyer j spends the share
    ``s_kj / sum_l s_lj`` of its budget on good k, and ``m + log(sum_k s_kj)``
    is ``log sum_k a_jk^e_j p_k^(-rho_j e_j)``.  Shifting by the maximum keeps
    every term finite for elasticities close to 1, where ``a^e * p^(-e)``
    overflows.  The sums over goods run down columns of a C-ordered array.
    """
    z = np.multiply.outer(-log_p, market._price_exponents[buyers])
    z += market._scaled_log_valuations[:, buyers]
    m = z.max(axis=0)
    z -= m
    s = np.exp(z, out=z)
    return s, s.sum(axis=0), m


def buyer_demand(market: FisherMarket, j: int, p) -> np.ndarray:
    """Utility-maximizing demand of buyer j at prices p (budget exhausted)."""
    p = _check_prices(p)
    s, total, _ = _spending(market, np.log(p), j)
    return market.budgets[j] / total * s / p


def total_demand(market: FisherMarket, p) -> np.ndarray:
    """Sum of buyer demands; satisfies <p, x(p)> = 1.

    Uses ``p^(-e) = p^(-rho e) / p``: buyer j demands
    ``w_j s_kj / (p_k sum_l s_lj)`` of good k, so the sum over buyers is one
    matrix-vector product divided by the prices.
    """
    p = _check_prices(p)
    s, total, _ = _spending(market, np.log(p))
    return (s @ (market.budgets / total)) / p


def _potential(market: FisherMarket, p: np.ndarray, total: np.ndarray, m: np.ndarray) -> float:
    """The potential at p from the spending sums ``total`` and maxima ``m`` at p."""
    return float(p.sum() + market._potential_weights @ (m + np.log(total)))


def potential(market: FisherMarket, p) -> float:
    """Convex potential whose minimizer is the equilibrium price vector.

    ``sum_k p_k + sum_j w_j (1-rho_j)/rho_j * log sum_k a_jk^e_j p_k^(-rho_j e_j)``;
    its gradient is exactly 1 - x(p) coordinatewise.
    """
    p = _check_prices(p)
    _, total, m = _spending(market, np.log(p))
    return _potential(market, p, total, m)


@dataclass(frozen=True)
class PriceState:
    """Prices after ``step`` rounds."""

    step: int
    p: np.ndarray

    @classmethod
    def start(cls, p) -> "PriceState":
        p = _check_prices(p)
        return cls(step=0, p=p)


def tatonnement_step(market: FisherMarket, state: PriceState, indices) -> PriceState:
    """One round: sellers in ``indices`` reprice by their own excess demand.

    With all goods selected and a common bound equal to the shared elasticity
    this reproduces the synchronous multiplicative rule.
    """
    idx = np.asarray(_good_indices(indices), dtype=int)
    if idx.size == 0:
        raise InvalidInput("update set must be non-empty")
    if idx.min() < 0 or idx.max() >= market.d_goods:
        raise InvalidInput("update set contains an out-of-range good index")
    return _reprice(market, state, idx, total_demand(market, state.p))


def _reprice(market: FisherMarket, state: PriceState, idx: np.ndarray, x: np.ndarray) -> PriceState:
    """Move the prices of the sorted, valid goods ``idx`` by the demand x at state.p."""
    p_new = state.p.copy()
    p_new[idx] = state.p[idx] * x[idx] ** (1.0 - market.seller_bounds[idx])
    # positivity is preserved analytically; leaving (0, inf) is a hard error
    if not np.all(np.isfinite(p_new)):
        raise NonFinite("price update overflowed to a non-finite value")
    if np.any(p_new <= 0):
        raise NonFinite("price update underflowed to a non-positive value")
    return PriceState(step=state.step + 1, p=p_new)


def _good_indices(subset) -> tuple:
    """A round's good indices, sorted and without repeats.  Each must be an
    integer (numpy integers included): a float is refused, not truncated."""
    try:
        return tuple(sorted(set(map(operator.index, subset))))
    except TypeError:
        raise InvalidInput(f"good indices must be integers, got {subset!r}") from None


@dataclass(frozen=True)
class UpdateSchedule:
    """Explicit per-round subsets of goods whose sellers update.

    However it is built, each round is stored sorted and without repeats, and
    an empty round is refused, so a round's first and last entries bound it.
    """

    rounds: tuple

    def __post_init__(self) -> None:
        cleaned = []
        for r, subset in enumerate(self.rounds):
            s = _good_indices(subset)
            if not s:
                raise InvalidInput(f"round {r} has an empty update set")
            cleaned.append(s)
        object.__setattr__(self, "rounds", tuple(cleaned))

    @classmethod
    def create(cls, rounds) -> "UpdateSchedule":
        return cls(rounds=rounds)

    @classmethod
    def synchronous(cls, d: int, rounds: int) -> "UpdateSchedule":
        return cls.create([tuple(range(d))] * rounds)

    @classmethod
    def round_robin(cls, d: int, rounds: int) -> "UpdateSchedule":
        return cls.create([(t % d,) for t in range(rounds)])

    @classmethod
    def random_coverage(cls, d: int, epochs: int, seed: int) -> "UpdateSchedule":
        """Random subsets arranged so every good updates at least once per
        epoch, followed by up to two extra random subsets."""
        rng = np.random.default_rng(seed)
        rounds = []
        for _ in range(epochs):
            perm = rng.permutation(d)
            cut = rng.integers(1, d + 1)
            rounds.append(tuple(perm[:cut]))
            leftover = [i for i in range(d) if i not in rounds[-1]]
            if leftover:
                rounds.append(tuple(leftover))
            for _ in range(int(rng.integers(0, 3))):
                size = int(rng.integers(1, d + 1))
                rounds.append(tuple(rng.choice(d, size=size, replace=False)))
        return cls.create(rounds)

    def to_json(self) -> dict:
        return {"rounds": [list(r) for r in self.rounds]}


def epoch_boundaries(schedule: UpdateSchedule, d: int) -> list[int]:
    """Rounds N(1), N(2), ... by which every good has updated at least t times.

    Only complete epochs are reported; a schedule that never covers some good
    yields an empty list (one unbounded epoch, no contraction claim).
    """
    counts = np.zeros(d, dtype=int)
    boundaries = []
    target = 1
    for r, subset in enumerate(schedule.rounds, start=1):
        counts[list(subset)] += 1
        while counts.min() >= target:
            boundaries.append(r)
            target += 1
    return boundaries


def run_schedule(
    market: FisherMarket, p1, schedule: UpdateSchedule
) -> tuple[list[PriceState], list[int]]:
    """Apply a schedule round by round; return all states and epoch boundaries.

    Every round of an :class:`UpdateSchedule` is sorted and deduplicated, so
    the indices are checked against the market once, before any repricing,
    and each round then reprices exactly as :func:`tatonnement_step` would.
    """
    d = market.d_goods
    if any(subset[0] < 0 or subset[-1] >= d for subset in schedule.rounds):
        raise InvalidInput("update schedule contains an out-of-range good index")
    state = PriceState.start(p1)
    states = [state]
    for subset in schedule.rounds:
        state = _reprice(market, state, np.asarray(subset), total_demand(market, state.p))
        states.append(state)
    return states, epoch_boundaries(schedule, d)


# Damped Newton on the potential: the fraction of the predicted decrease a
# step must achieve (Armijo), and the factor that shortens a refused step.
ARMIJO = 0.25
BACKTRACK = 0.5
# A predicted decrease at or below this share of the potential's magnitude
# is within its rounding, where a sufficient-decrease test is noise.
POTENTIAL_ROUNDING = 64 * np.finfo(float).eps
MAX_NEWTON_STEPS = 200
EQUILIBRIUM_TOL = 1e-10  # on max |x(p) - 1|


def _log_price_hessian(
    market: FisherMarket, p: np.ndarray, s: np.ndarray, total: np.ndarray
) -> np.ndarray:
    """Hessian of the potential in log-prices ``u = log p`` at p.

    With spending shares ``sigma = s / total`` (goods x buyers) and
    ``r_j = rho_j / (1 - rho_j)`` it is
    ``diag(p + sigma (w r)) - sigma diag(w r) sigma^T``.  Each buyer adds
    ``w_j r_j (diag(sigma_j) - sigma_j sigma_j^T)``, which is PSD, so the
    Hessian dominates ``diag(p)`` and is positive definite.  It is built
    from ``s`` with the buyers' factors ``1/total`` folded into the weights,
    so the one (d x n) temporary is the scaled copy of ``s`` in the GEMM.
    """
    weights = market.budgets * market._price_exponents / total
    hessian = -((s * (weights / total)) @ s.T)
    hessian[np.diag_indices_from(hessian)] += p + s @ weights
    return hessian


def equilibrium_prices(market: FisherMarket) -> np.ndarray:
    """Equilibrium prices by damped Newton on the potential in log-prices.

    Starts from ``p = 1/d``.  In ``u = log p`` the potential's gradient is
    ``p - sigma w`` (supply minus spending, per good) and its Hessian is
    :func:`_log_price_hessian`, so every Newton direction descends.  Each step
    backtracks from the full step until the potential falls by ``ARMIJO``
    times the predicted decrease, except that a predicted decrease within the
    potential's rounding takes the full step: there the test cannot tell a
    decrease from noise, and Newton converges quadratically.  Returns p once
    ``max |x(p) - 1| <= EQUILIBRIUM_TOL``, the residual :func:`total_demand`
    reports; :class:`NotConverged`, with the residual, when a line search
    cannot move or ``MAX_NEWTON_STEPS`` steps do not reach it.
    """
    w = market.budgets
    p = np.full(market.d_goods, 1.0 / market.d_goods)
    log_p = np.log(p)
    s, total, m = _spending(market, log_p)
    phi = _potential(market, p, total, m)
    for step in range(MAX_NEWTON_STEPS + 1):
        spent = s @ (w / total)
        residual = float(np.abs(spent / p - 1.0).max())
        if residual <= EQUILIBRIUM_TOL:
            return p
        if step == MAX_NEWTON_STEPS:
            break
        gradient = p - spent
        du = np.linalg.solve(_log_price_hessian(market, p, s, total), -gradient)
        decrease = -float(gradient @ du)
        # m + log(total) nearly cancels for small rho_j (each valuation row
        # sums to 1), so the potential's rounding scales with both parts
        magnitude = p.sum() + market._potential_weights @ (np.abs(m) + np.log(total))
        floor = POTENTIAL_ROUNDING * max(1.0, magnitude)
        t = 1.0
        while True:
            with np.errstate(over="ignore"):
                trial = np.exp(log_p + t * du)
            if np.all((trial > 0) & (trial < np.inf)):
                log_trial = np.log(trial)
                s_t, total_t, m_t = _spending(market, log_trial)
                phi_t = _potential(market, trial, total_t, m_t)
                if (t == 1.0 and decrease <= floor) or phi_t <= phi - ARMIJO * t * decrease:
                    break
            t *= BACKTRACK
            if t * decrease <= floor:
                raise NotConverged(
                    f"equilibrium line search cannot move at Newton step {step + 1} "
                    f"(residual {residual:.3e})"
                )
        p, log_p, s, total, m, phi = trial, log_trial, s_t, total_t, m_t, phi_t
    raise NotConverged(
        f"equilibrium not reached within MAX_NEWTON_STEPS={MAX_NEWTON_STEPS} "
        f"(residual {residual:.3e})"
    )
