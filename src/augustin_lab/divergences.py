"""Petz-Renyi divergence and the weighted divergence objectives.

The divergence of order ``alpha`` between a state A and a positive
semi-definite Q is ``log(Tr[A^alpha Q^(1-alpha)]) / (alpha - 1)``, extended by
``+inf`` whenever the kernel of Q makes the trace pairing undefined.  The
weighted objectives sum divergences from a fixed family of states; problems
cache the ``alpha`` powers of their states once at construction.
"""

from __future__ import annotations

import math
import os
import threading
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateTraceWarning, InvalidInput, InvalidOrder
from .linalg import (
    EIG_FLOOR,
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


def _idle_core(environ, cores: int) -> bool:
    """Whether BLAS leaves a second worker a core of its own: it is pinned to
    k threads by ``OPENBLAS_NUM_THREADS`` (else ``OMP_NUM_THREADS``) and
    ``cores >= 2k``.  Neither set means no, since BLAS then starts a thread on
    every core."""
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        try:
            threads = int(environ.get(name, ""))
        except ValueError:
            continue
        if threads >= 1:
            return cores >= 2 * threads
    return False


def _usable_cores() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


# Read once: BLAS reads its thread count when numpy loads it.
SPLIT = _idle_core(os.environ, _usable_cores())
POWER_BLOCK = 4  # states per LAPACK call; a small problem makes one call
# Integer orders up to 7 take at most 4 products, under half an eigh at d=128.
MAX_PRODUCT_ORDER = 7


def _fill_powers(stack: np.ndarray, order: float) -> None:
    """Overwrite a block of Hermitian states with their ``order`` powers.

    An integer order from 2 to ``MAX_PRODUCT_ORDER`` takes binary powering by
    stacked products, with a stacked Cholesky factor of A + DENSITY_ATOL * I
    as its PSD check; eigenvalues in [-DENSITY_ATOL, 0) are not clipped, which
    moves a power by at most DENSITY_ATOL**2.  Any other order takes a stacked
    ``eigh``, each power reassembled from its clipped spectrum.  Raises
    InvalidInput at the first state that is not PSD.  Calls numpy alone, never
    a library function, so it may run on a helper thread unseen by anything
    that wraps the library's functions.
    """
    if order == int(order) and 2 <= order <= MAX_PRODUCT_ORDER:
        try:
            np.linalg.cholesky(stack + DENSITY_ATOL * np.eye(stack.shape[-1]))
        except np.linalg.LinAlgError:
            _check_psd(np.linalg.eigvalsh(stack))
        stack[...] = np.linalg.matrix_power(stack, int(order))
        return
    lam, vecs = np.linalg.eigh(stack)  # eigenvalues in increasing order
    _check_psd(lam)
    for j in range(stack.shape[0]):
        v = vecs[j, :, ::-1]
        stack[j] = (v * np.clip(lam[j, ::-1], 0.0, None) ** order) @ v.conj().T


def _check_psd(lam: np.ndarray) -> None:
    for low in lam[:, 0]:
        if low < -DENSITY_ATOL:
            raise InvalidInput(f"matrix is not PSD: min eigenvalue {low:.3e}")


def _fill_range(stack: np.ndarray, order: float) -> None:
    for start in range(0, stack.shape[0], POWER_BLOCK):
        _fill_powers(stack[start : start + POWER_BLOCK], order)


def _fill_all(stack: np.ndarray, order: float) -> None:
    """Fill the stack with powers, split in two halves over two threads when
    BLAS leaves a core idle and the stack holds more than one block.

    The caller's thread takes the first half, so the first bad state raises
    the same error as in a serial fill; the helper's error is re-raised here.
    """
    n = stack.shape[0]
    if not SPLIT or n <= POWER_BLOCK:
        _fill_range(stack, order)
        return
    half = -(-n // (2 * POWER_BLOCK)) * POWER_BLOCK
    failure = []

    def helper() -> None:
        try:
            _fill_range(stack[half:], order)
        except Exception as exc:  # re-raised on the caller's thread
            failure.append(exc)

    thread = threading.Thread(target=helper, name="augustin-powers")
    thread.start()
    try:
        _fill_range(stack[:half], order)
    finally:
        thread.join()
    if failure:
        raise failure[0]


@dataclass(frozen=True)
class AugustinProblem:
    """Weighted divergence objective over density matrices.

    ``weights`` is a positive probability vector, ``order`` the divergence
    order, and ``state_powers`` the (n, d, d) stack of the states raised to
    ``order``; the states themselves are not kept.
    """

    weights: np.ndarray
    order: float
    state_powers: np.ndarray = field(repr=False)

    @classmethod
    def create(cls, states, weights, order: float) -> "AugustinProblem":
        """Check the states and build their powers in one (n, d, d) stack.

        Each hermitized state is copied into the stack; the unit-trace check,
        the full-rank check of their sum and the weights check run on it
        before the powers overwrite it block by block (see ``_fill_powers``).
        Powers taken by ``eigh`` (non-integer orders, and integer orders above
        ``MAX_PRODUCT_ORDER``) are identical to the last bit whether or not
        the fill is split; integer orders from 2 to ``MAX_PRODUCT_ORDER`` are
        products, within 4e-15 of the stack's norm of the ``eigh`` powers.
        """
        order = _check_order(order)
        states = list(states)
        if not states:
            raise InvalidInput("expected at least one state")
        # at least double precision: the sweep reads the stack as float64 pairs
        dtype = np.result_type(*(np.asarray(s).dtype for s in states), np.float64)
        for j, s in enumerate(states):
            a = hermitize(s)
            if j == 0:
                stack = np.empty((len(states), *a.shape), dtype=dtype)
            elif a.shape != stack.shape[1:]:
                raise InvalidInput(f"state {j} has shape {a.shape}, expected {stack.shape[1:]}")
            stack[j] = a
        traces = np.trace(stack, axis1=1, axis2=2).real
        bad = np.flatnonzero(np.abs(traces - 1.0) > DENSITY_ATOL)
        if bad.size:
            tr = float(traces[bad[0]])
            raise InvalidInput(f"matrix trace {tr!r} is not 1 within {DENSITY_ATOL}")
        w = _check_weights(weights, stack.shape[0])
        lam_total = np.linalg.eigvalsh(stack.sum(axis=0))
        if lam_total[0] <= EIG_FLOOR * lam_total[-1]:
            raise InvalidInput(
                f"sum of states must be full-rank; min eigenvalue {lam_total[0]:.3e}"
            )
        _fill_all(stack, order)
        return cls(weights=w, order=order, state_powers=stack)

    @property
    def n(self) -> int:
        return self.state_powers.shape[0]

    @property
    def dim(self) -> int:
        return self.state_powers.shape[1]


@dataclass(frozen=True)
class ClassicalAugustinProblem:
    """Commuting specialization: probability vectors instead of matrices.

    ``point_powers`` holds the (n, d) points raised to ``order``; the points
    themselves are not kept.
    """

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
        return cls(weights=w, order=order, point_powers=pts**order)

    @property
    def n(self) -> int:
        return self.point_powers.shape[0]

    @property
    def dim(self) -> int:
        return self.point_powers.shape[1]


def pairing_traces(state_powers: np.ndarray, alpha: float, q: np.ndarray) -> np.ndarray:
    """Vector of Tr[A_j^alpha Q^(1-alpha)] with explicit kernel handling.

    Eigenvalues of Q below the relative floor count as exact zeros: for
    alpha > 1 any overlap of A_j^alpha with the kernel of Q makes the pairing
    infinite, while for alpha < 1 the kernel simply does not contribute.  A
    ``q`` that is not PSD raises :class:`InvalidInput`, as a state does.
    """
    spectrum = hermitian_eig(q)
    lam = spectrum.eigenvalues
    _check_psd(lam[None, ::-1])  # one row, increasing
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


def divergence_from_pairing(pairings: np.ndarray, alpha: float) -> np.ndarray:
    """Map an array of trace pairings to the divergences log(p) / (alpha - 1).

    +inf stays +inf.  A non-positive entry is +inf below order 1, where it
    means orthogonal supports; above order 1 it is clamped to ``EIG_FLOOR``,
    with one :class:`DegenerateTraceWarning` per call.
    """
    p = np.asarray(pairings, dtype=float)
    if p.min() <= 0.0:
        low = p <= 0.0
        if alpha < 1:
            p = np.where(low, INF, p)
        else:
            warnings.warn(
                f"trace pairings {p[low]} clamped to {EIG_FLOOR}", DegenerateTraceWarning
            )
            p = np.where(low, EIG_FLOOR, p)
    d = np.log(p) / (alpha - 1.0)
    if alpha < 1 and p.max() == INF:
        d = np.where(p == INF, INF, d)  # log(+inf) / (alpha - 1) reads -inf
    return d


def weighted_divergence(weights: np.ndarray, pairings: np.ndarray, alpha: float) -> float:
    """sum_j w_j D_j from the pairings; +inf is absorbing."""
    d = divergence_from_pairing(pairings, alpha)
    return INF if (d == INF).any() else float(weights @ d)


def petz_renyi_divergence(a: np.ndarray, q: np.ndarray, alpha: float) -> float:
    """Divergence of order alpha between a state ``a`` and PSD ``q``; may be +inf.

    ``a`` is powered as the states of a problem are (see ``_fill_powers``), so
    one that is not PSD raises :class:`InvalidInput`.
    """
    alpha = _check_order(alpha)
    a_power = hermitize(a)[None]
    _fill_powers(a_power, alpha)
    return float(divergence_from_pairing(pairing_traces(a_power, alpha, q), alpha)[0])


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
