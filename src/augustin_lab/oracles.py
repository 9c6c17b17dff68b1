"""Brute-force reference for the divergence demo: the simplex grid.

``divergence-demo`` sets the target value of entropic mirror descent's
adaptive step from the exhaustive minimum of the classical objective over a
simplex grid.  The grid is independent of the fixed-point machinery: its
points are enumerated exhaustively and the objective is evaluated on all of
them at once.
"""

from __future__ import annotations

import numpy as np

from .divergences import ClassicalAugustinProblem
from .errors import InvalidInput, Unsupported


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
