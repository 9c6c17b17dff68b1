"""Brute-force reference computations used by tests and derived values.

Everything here is deliberately independent of the fixed-point machinery:
simplex grids are enumerated exhaustively, derivatives come from central
differences, and the capacity line search calls the inner solver only through
its public interface.  Results can be cached in a small JSON store keyed by a
content hash of the inputs.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .capacity import CapacityProblem
from .divergences import ClassicalAugustinProblem, divergence_from_pairing, pairing_traces
from .errors import InvalidInput, Unsupported
from .fisher import FisherMarket, potential
from .augustin import solve_petz_augustin


@dataclass(frozen=True)
class GridSpec:
    """Simplex grid: ``resolution`` subdivisions per edge in ``dimension`` coordinates."""

    resolution: int
    dimension: int

    def __post_init__(self):
        if self.resolution < 3:
            raise InvalidInput("grid resolution must be >= 3")
        if self.dimension < 1:
            raise InvalidInput("grid dimension must be >= 1")


def simplex_grid(resolution: int, dimension: int) -> np.ndarray:
    """All points with coordinates k/resolution summing to 1, lexicographic order."""
    points = []

    def fill(prefix, remaining, slots):
        if slots == 1:
            points.append(prefix + [remaining])
            return
        for k in range(remaining + 1):
            fill(prefix + [k], remaining - k, slots - 1)

    fill([], resolution, dimension)
    return np.asarray(points, dtype=float) / resolution


class OracleCache:
    """JSON-backed store mapping content hashes to oracle outputs."""

    def __init__(self, path):
        self.path = Path(path)
        self._data: dict = {}
        if self.path.exists():
            self._data = json.loads(self.path.read_text())

    def get(self, key: str):
        return self._data.get(key)

    def put(self, key: str, value: dict) -> None:
        self._data[key] = value
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.path.write_text(json.dumps(self._data, indent=1, sort_keys=True))

    def clear(self) -> None:
        self._data = {}
        if self.path.exists():
            self.path.unlink()

    def __len__(self) -> int:
        return len(self._data)


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            h.update(np.ascontiguousarray(part).tobytes())
        else:
            h.update(repr(part).encode())
    return h.hexdigest()


def grid_min_classical_augustin(
    problem: ClassicalAugustinProblem, grid: GridSpec, cache: OracleCache | None = None
) -> tuple[np.ndarray, float]:
    """Exhaustive minimum of the classical objective over a simplex grid.

    Ties break to the lexicographically smallest grid point.  Limited to
    dimension <= 4; the point count explodes combinatorially beyond that.
    """
    if problem.dim > 4:
        raise Unsupported("grid search is limited to dimension <= 4")
    if grid.dimension != problem.dim:
        raise InvalidInput("grid dimension does not match the problem")
    key = _digest(
        "classical-grid", problem.order, problem.weights, problem.points, grid.resolution
    )
    if cache is not None and (hit := cache.get(key)) is not None:
        return np.asarray(hit["argmin"], dtype=float), float(hit["value"])
    pts = simplex_grid(grid.resolution, grid.dimension)
    alpha = problem.order
    with np.errstate(divide="ignore", over="ignore"):
        powered = pts ** (1.0 - alpha)
        pair = powered @ problem.point_powers.T  # (m, n)
        values = (np.log(pair) @ problem.weights) / (alpha - 1.0)
    values = np.where(np.isnan(values), np.inf, values)
    best = int(np.argmin(values))  # first occurrence = lexicographically smallest
    q_best, f_best = pts[best], float(values[best])
    if cache is not None:
        cache.put(key, {"value": f_best, "argmin": q_best.tolist(), "resolution": grid.resolution})
    return q_best, f_best


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
    divs = [divergence_from_pairing(float(p), inner.order) for p in pair]
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
