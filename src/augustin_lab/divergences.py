"""Petz-Renyi divergence and the weighted divergence objectives.

The divergence of order ``alpha`` between a state A and a positive
semi-definite Q is ``log(Tr[A^alpha Q^(1-alpha)]) / (alpha - 1)``, extended by
``+inf`` whenever the kernel of Q makes the trace pairing undefined.  The
weighted objectives sum divergences from a fixed family of states; problems
cache the ``alpha`` powers of their states once at construction.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateTraceWarning, InvalidInput, InvalidOrder
from .linalg import (
    EIG_FLOOR,
    Spectrum,
    hermitian_eig,
    hermitize,
)

INF = math.inf
DENSITY_ATOL = 1e-10  # tolerance of the PSD and unit-trace checks on states


def _check_order(alpha: float) -> float:
    alpha = float(alpha)
    if not math.isfinite(alpha) or alpha <= 0 or alpha == 1:
        raise InvalidOrder(f"order must lie in (0,1) or (1,inf), got {alpha!r}")
    return alpha


def _check_weights(weights, n: int) -> np.ndarray:
    w = np.asarray(weights, dtype=float)
    if w.shape != (n,):
        raise InvalidInput(f"expected {n} weights, got shape {w.shape}")
    if not np.all(w > 0):
        raise InvalidInput("weights must be strictly positive")
    if abs(w.sum() - 1.0) > 1e-12:
        raise InvalidInput(f"weights must sum to 1 within 1e-12, got {w.sum()!r}")
    return w


def _psd_power(m: np.ndarray, r: float) -> np.ndarray:
    # r > 0 power of a PSD matrix; clipped negatives are rounding noise.
    spec = hermitian_eig(m)
    return spec.apply(np.clip(spec.eigenvalues, 0.0, None) ** r)


@dataclass(frozen=True)
class AugustinProblem:
    """Weighted divergence objective over density matrices.

    ``states`` is an (n, d, d) stack of density matrices, ``weights`` a
    positive probability vector, ``order`` the divergence order, and
    ``state_powers`` the cached stack of states raised to ``order``.
    """

    states: np.ndarray
    weights: np.ndarray
    order: float
    state_powers: np.ndarray = field(repr=False)

    @classmethod
    def create(cls, states, weights, order: float) -> "AugustinProblem":
        order = _check_order(order)
        mats = np.stack([hermitize(s) for s in states])
        # One decomposition per state serves the checks and the power;
        # eigh returns eigenvalues in increasing order.
        lam, vecs = np.linalg.eigh(mats)
        for j in range(mats.shape[0]):
            if lam[j, 0] < -DENSITY_ATOL:
                raise InvalidInput(f"matrix is not PSD: min eigenvalue {lam[j, 0]:.3e}")
            tr = float(np.trace(mats[j]).real)
            if abs(tr - 1.0) > DENSITY_ATOL:
                raise InvalidInput(f"matrix trace {tr!r} is not 1 within {DENSITY_ATOL}")
        w = _check_weights(weights, mats.shape[0])
        lam_total = np.linalg.eigvalsh(mats.sum(axis=0))
        if lam_total[0] <= EIG_FLOOR * lam_total[-1]:
            raise InvalidInput(
                f"sum of states must be full-rank; min eigenvalue {lam_total[0]:.3e}"
            )
        # Each power overwrites the eigenvectors it was built from, so the
        # construction holds no third (n, d, d) stack.
        for j in range(mats.shape[0]):
            spec = Spectrum(lam[j, ::-1], vecs[j, :, ::-1])
            vecs[j] = spec.apply(np.clip(spec.eigenvalues, 0.0, None) ** order)
        return cls(states=mats, weights=w, order=order, state_powers=vecs)

    @property
    def n(self) -> int:
        return self.states.shape[0]

    @property
    def dim(self) -> int:
        return self.states.shape[1]


@dataclass(frozen=True)
class ClassicalAugustinProblem:
    """Commuting specialization: probability vectors instead of matrices."""

    points: np.ndarray  # (n, d), rows on the simplex
    weights: np.ndarray
    order: float
    point_powers: np.ndarray = field(repr=False)

    @classmethod
    def create(cls, points, weights, order: float) -> "ClassicalAugustinProblem":
        order = _check_order(order)
        pts = np.asarray(points, dtype=float)
        if pts.ndim != 2:
            raise InvalidInput("points must be a 2-D array of probability vectors")
        if np.any(pts < 0):
            raise InvalidInput("points must be nonnegative")
        if np.abs(pts.sum(axis=1) - 1.0).max() > 1e-12:
            raise InvalidInput("each point must sum to 1 within 1e-12")
        if not np.all(pts.sum(axis=0) > 0):
            raise InvalidInput("sum of points must be strictly positive coordinatewise")
        w = _check_weights(weights, pts.shape[0])
        return cls(points=pts, weights=w, order=order, point_powers=pts**order)

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    def diagonal_embedding(self) -> AugustinProblem:
        """The same problem with every point embedded as a diagonal matrix."""
        states = [np.diag(p.astype(complex)) for p in self.points]
        return AugustinProblem.create(states, self.weights, self.order)


def pairing_traces(state_powers: np.ndarray, alpha: float, q: np.ndarray) -> np.ndarray:
    """Vector of Tr[A_j^alpha Q^(1-alpha)] with explicit kernel handling.

    Eigenvalues of Q below the relative floor count as exact zeros: for
    alpha > 1 any overlap of A_j^alpha with the kernel of Q makes the pairing
    infinite, while for alpha < 1 the kernel simply does not contribute.
    """
    spectrum = hermitian_eig(q)
    lam = spectrum.eigenvalues
    v = spectrum.eigenvectors
    floor = EIG_FLOOR * max(float(lam.max()), 0.0)
    zero = lam <= floor
    # overlaps[j, i] = (V^H A_j^alpha V)_{ii}
    overlaps = np.real(np.einsum("ji,njk,ki->ni", v.conj(), state_powers, v))
    overlaps = np.clip(overlaps, 0.0, None)
    support = ~zero
    pair = overlaps[:, support] @ lam[support] ** (1.0 - alpha)
    if alpha > 1 and zero.any():
        scale = EIG_FLOOR * np.maximum(overlaps.sum(axis=1), 1.0)
        pair = np.where(overlaps[:, zero].sum(axis=1) > scale, INF, pair)
    return pair


def divergence_from_pairing(tr: float, alpha: float) -> float:
    """Map a trace pairing value to the divergence, with the degenerate guard."""
    if tr == INF:
        return INF
    if tr <= 0.0:
        if alpha < 1:
            # Orthogonal supports: the pairing is genuinely zero.
            return INF
        warnings.warn(
            f"trace pairing {tr!r} clamped to {EIG_FLOOR}", DegenerateTraceWarning
        )
        tr = EIG_FLOOR
    return math.log(tr) / (alpha - 1.0)


def weighted_divergence(weights: np.ndarray, pairings: np.ndarray, alpha: float) -> float:
    """sum_j w_j D_j from the pairings, summed in index order; +inf is absorbing."""
    total = 0.0
    for wj, pj in zip(weights, pairings):
        d = divergence_from_pairing(float(pj), alpha)
        if d == INF:
            return INF
        total += wj * d
    return total


def petz_renyi_divergence(a: np.ndarray, q: np.ndarray, alpha: float) -> float:
    """Divergence of order alpha between a state ``a`` and PSD ``q``; may be +inf."""
    alpha = _check_order(alpha)
    a_power = _psd_power(hermitize(a), alpha)
    tr = pairing_traces(a_power[None, :, :], alpha, q)[0]
    return divergence_from_pairing(float(tr), alpha)


def objective_F(problem: AugustinProblem, q: np.ndarray) -> float:
    """Weighted divergence sum F(Q); +inf propagates absorbingly."""
    pair = pairing_traces(problem.state_powers, problem.order, q)
    return weighted_divergence(problem.weights, pair, problem.order)


def classical_pairings(problem: ClassicalAugustinProblem, q: np.ndarray) -> np.ndarray:
    """Vector of pairings <a_j^alpha, q^(1-alpha)>; entries may be +inf."""
    q = np.asarray(q, dtype=float)
    alpha = problem.order
    if np.any(q < 0):
        raise InvalidInput("argument must be nonnegative")
    zero = q == 0
    if alpha > 1 and zero.any():
        on_support = problem.point_powers[:, ~zero] @ q[~zero] ** (1.0 - alpha)
        hits_kernel = (problem.point_powers[:, zero] > 0).any(axis=1)
        return np.where(hits_kernel, INF, on_support)
    return problem.point_powers @ q ** (1.0 - alpha)


def objective_f(problem: ClassicalAugustinProblem, q: np.ndarray) -> float:
    """Scalar analogue of :func:`objective_F` on probability vectors."""
    pair = classical_pairings(problem, q)
    return weighted_divergence(problem.weights, pair, problem.order)
