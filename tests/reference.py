"""Reference methods and brute-force oracles that check the paper's claims.

None of this is part of the library: the CLI, the scripts and the benchmark
never run it.  Each piece is an independent route to a quantity the library
computes, kept here so the checks can compare against it:

- the dual-space iteration the matrix sweep coincides with (c06);
- the multiplicative baselines for the classical problem and the Fisher
  market (c11), and the metric comparability bound (c07);
- central-difference derivatives and a line scan of the capacity objective
  (c08, c09), and coordinatewise descent on the market potential;
- the diagonal embedding of a probability-vector problem.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from augustin_lab.augustin import _combination, classical_gradient, solve_petz_augustin
from augustin_lab.capacity import CapacityProblem
from augustin_lab.divergences import (
    AugustinProblem,
    ClassicalAugustinProblem,
    divergence_from_pairing,
    pairing_traces,
)
from augustin_lab.errors import DegenerateTrace, InvalidInput, Unsupported
from augustin_lab.fisher import FisherMarket, _check_prices, potential, total_demand
from augustin_lab.linalg import matrix_power, thompson_metric_vec


# ---------------------------------------------------------------------------
# dual-space iteration (equivalence baseline)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DualState:
    """Dual iterate v together with its primal image mu(v)."""

    v: np.ndarray
    mu: np.ndarray


def make_dual_state(problem: AugustinProblem, v: np.ndarray) -> DualState:
    """Assemble mu(v) = (sum_j w_j exp((1-alpha) v_j) A_j^alpha)^(1/alpha)."""
    alpha = problem.order
    v = np.asarray(v, dtype=float)
    if v.shape != (problem.n,):
        raise InvalidInput(f"expected {problem.n} dual coordinates, got {v.shape}")
    coeff = problem.weights * np.exp((1.0 - alpha) * v)
    return DualState(v=v, mu=matrix_power(_combination(problem, coeff), 1.0 / alpha))


def cheng_dual_step(problem: AugustinProblem, state: DualState) -> DualState:
    """Dual update v_j <- divergence of A_j from mu(v)."""
    alpha = problem.order
    pair = pairing_traces(problem.state_powers, alpha, state.mu)
    v_new = divergence_from_pairing(pair, alpha)
    if not np.all(np.isfinite(v_new)):
        raise DegenerateTrace("dual update produced non-finite divergences")
    return make_dual_state(problem, v_new)


def dual_objective_H(problem: AugustinProblem, v: np.ndarray) -> float:
    """Concave dual objective whose maximizer reproduces the minimizer."""
    alpha = problem.order
    state = make_dual_state(problem, v)
    mu_trace = float(np.trace(state.mu).real)
    return float(
        (1.0 - alpha) / alpha * np.dot(problem.weights, state.v) - math.log(mu_trace)
    )


# ---------------------------------------------------------------------------
# multiplicative baselines and the metric comparability bound
# ---------------------------------------------------------------------------


def augustin_classical_baseline_step(
    problem: ClassicalAugustinProblem, q: np.ndarray
) -> np.ndarray:
    """Multiplicative baseline update q <- q * (-grad f(q)).

    Preserves normalization exactly: the weighted pairing structure makes the
    coordinates of the update sum to one.
    """
    q = np.asarray(q, dtype=float)
    if not np.all(q > 0):
        raise InvalidInput("baseline update requires a strictly positive point")
    return q * (-classical_gradient(problem, q))


def cheung_baseline_step(market: FisherMarket, p) -> np.ndarray:
    """Proportional-response style update p <- p * x(p) for common-elasticity markets."""
    rho = market.elasticities
    if np.abs(rho - rho[0]).max() > 0:
        raise InvalidInput("baseline update requires a common elasticity across buyers")
    p = _check_prices(p)
    return p * total_demand(market, p)


def metric_comparability_check(u, v) -> tuple[float, float, bool]:
    """Thompson distance vs the relative sup deviation max_i |1 - u_i/v_i|.

    Whenever the distance is below log 3, each quantity bounds the other
    within a factor of three; ``holds`` reports that two-sided bound.
    """
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    d_t = thompson_metric_vec(u, v)
    ratio = float(np.abs(1.0 - u / v).max())
    slack = 1e-15 * (1.0 + ratio + d_t)
    holds = (ratio / 3.0 <= d_t + slack) and (d_t <= 3.0 * ratio + slack)
    return d_t, ratio, holds


# ---------------------------------------------------------------------------
# brute-force oracles
# ---------------------------------------------------------------------------


def diagonal_embedding(problem: ClassicalAugustinProblem) -> AugustinProblem:
    """The same problem with every point embedded as a diagonal matrix."""
    states = [np.diag(p.astype(complex)) for p in problem.points]
    return AugustinProblem.create(states, problem.weights, problem.order)


def finite_diff_gradient(fn, w, h: float) -> np.ndarray:
    """Central differences of ``fn`` along simplex-tangent directions.

    Direction i is e_i - 1/n, so the result is the gradient with its mean
    removed; compare against similarly centered analytic gradients.
    """
    w = np.asarray(w, dtype=float)
    if not (1e-6 <= h <= 1e-4):
        raise InvalidInput("step size must lie in [1e-6, 1e-4]")
    if w.min() < 10 * h:
        raise InvalidInput("point too close to the simplex boundary for this step size")
    n = w.shape[0]
    out = np.empty(n)
    for i in range(n):
        z = np.full(n, -1.0 / n)
        z[i] += 1.0
        out[i] = (fn(w + h * z) - fn(w - h * z)) / (2.0 * h)
    return out


def finite_diff_curvature(fn, w, z, h: float) -> float:
    """Second central difference of ``fn`` at w along direction z."""
    w = np.asarray(w, dtype=float)
    z = np.asarray(z, dtype=float)
    if h <= 0:
        raise InvalidInput("step size must be positive")
    if np.any(w + h * z <= 0) or np.any(w - h * z <= 0):
        raise InvalidInput("curvature probe leaves the positive orthant")
    return float((fn(w + h * z) - 2.0 * fn(w) + fn(w - h * z)) / h**2)


def _g_value(problem: CapacityProblem, w: np.ndarray) -> float:
    inner = problem.weighted(w)
    report = solve_petz_augustin(inner, max_iter=1000, residual_tol=1e-10)
    pair = pairing_traces(inner.state_powers, inner.order, report.final)
    divs = divergence_from_pairing(pair, inner.order)
    return -float(np.dot(inner.weights, divs))


def grid_min_capacity_2(problem: CapacityProblem, resolution: int) -> tuple[np.ndarray, float]:
    """Line scan over weight vectors (s, 1-s) for two-state capacity problems."""
    if problem.n != 2:
        raise Unsupported("the line-scan oracle only handles exactly two states")
    if resolution < 3:
        raise InvalidInput("resolution must be >= 3")
    best_w, best_g = None, math.inf
    for k in range(1, resolution):
        s = k / resolution
        w = np.array([s, 1.0 - s])
        g = _g_value(problem, w)
        if g < best_g:
            best_w, best_g = w, g
    return best_w, best_g


def coordinate_descent_potential(market: FisherMarket, p0) -> np.ndarray:
    """Coordinatewise golden-section descent on the market potential: 60
    sweeps, each coordinate searched within a factor 8 of its current value.

    An algorithm-independent cross-check of the equilibrium oracle for small
    markets (the potential is convex and smooth on the positive orthant).
    """
    from scipy.optimize import minimize_scalar  # scipy serves only this oracle

    if market.d_goods > 4:
        raise Unsupported("coordinate descent cross-check is limited to <= 4 goods")
    p = np.asarray(p0, dtype=float).copy()
    for _ in range(60):
        for i in range(market.d_goods):
            def along(x, i=i):
                trial = p.copy()
                trial[i] = x
                return potential(market, trial)

            res = minimize_scalar(
                along,
                bounds=(p[i] / 8.0, p[i] * 8.0),
                method="bounded",
                options={"xatol": 1e-14},
            )
            p[i] = res.x
    return p
