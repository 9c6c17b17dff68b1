"""Brute-force reference computations used by tests and derived values.

Everything here is deliberately independent of the fixed-point machinery:
simplex grids are enumerated exhaustively, derivatives come from central
differences, and the capacity line search calls the inner solver only through
its public interface.
"""

from __future__ import annotations

import math

import numpy as np

from .capacity import CapacityProblem
from .divergences import ClassicalAugustinProblem, divergence_from_pairing, pairing_traces
from .errors import InvalidInput, Unsupported
from .fisher import FisherMarket, potential
from .augustin import solve_petz_augustin


def simplex_grid(resolution: int, dimension: int) -> np.ndarray:
    """All points with coordinates k/resolution summing to 1, lexicographic order.

    A point is fixed by its cuts ``0 <= c_1 <= ... <= c_{dimension-1} <=
    resolution``, the partial sums of its integer coordinates, and points
    order lexicographically as their cuts do.  The cuts grow one level at a
    time: each row is followed by every admissible next cut, in increasing
    order.
    """
    cuts = np.zeros((1, 0), dtype=np.int64)
    last = np.zeros(1, dtype=np.int64)
    for _ in range(dimension - 1):
        counts = resolution + 1 - last
        rows = np.repeat(np.arange(last.size), counts)
        first = np.cumsum(counts) - counts  # index of each row's first child
        last = last[rows] + np.arange(rows.size) - first[rows]
        cuts = np.column_stack([cuts[rows], last])
    zeros = np.zeros((last.size, 1), dtype=np.int64)
    edges = np.hstack([zeros, cuts, zeros + resolution])
    # Divide the integer coordinates, not the cuts, so each entry is the
    # correctly rounded k/resolution.
    return np.diff(edges, axis=1) / resolution


def grid_min_classical_augustin(
    problem: ClassicalAugustinProblem, resolution: int
) -> tuple[np.ndarray, float]:
    """Exhaustive minimum of the classical objective over a simplex grid with
    ``resolution`` subdivisions per edge.

    Ties break to the lexicographically smallest grid point.  Limited to
    dimension <= 4; the point count explodes combinatorially beyond that.
    """
    if resolution < 3:
        raise InvalidInput("grid resolution must be >= 3")
    if problem.dim > 4:
        raise Unsupported("grid search is limited to dimension <= 4")
    pts = simplex_grid(resolution, problem.dim)
    alpha = problem.order
    with np.errstate(divide="ignore", over="ignore"):
        powered = pts ** (1.0 - alpha)
        pair = powered @ problem.point_powers.T  # (m, n)
        values = (np.log(pair) @ problem.weights) / (alpha - 1.0)
    values = np.where(np.isnan(values), np.inf, values)
    best = int(np.argmin(values))  # first occurrence = lexicographically smallest
    return pts[best], float(values[best])


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
