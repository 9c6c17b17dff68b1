"""Capacity of a family of states via entropic mirror descent.

The outer problem minimizes g(w) = -sum_j w_j D(A_j || Q*(w)) over weight
vectors on the simplex, where Q*(w) is the weighted divergence minimizer; the
reported capacity is -min g.  Gradients of g are the negated divergences at
Q*(w) and are produced by running the inner fixed-point sweep to a prescribed
accuracy, so the outer loop is plain entropic mirror descent with inexact
first-order information.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from time import perf_counter
from typing import NamedTuple

import numpy as np

from .augustin import (
    IterateState,
    contraction_factor,
    initial_state,
    petz_augustin_step,
    _renormalized,
)
from .divergences import AugustinProblem, _check_weights, divergence_from_pairing
from .errors import InvalidInput, InvalidOrder
from .trace import write_csv

DEFAULT_EPS = 1e-9
MAX_INNER_ITERS = 100_000


@dataclass(frozen=True)
class CapacityProblem:
    """States plus an order strictly inside (1/2, 1)."""

    inner: AugustinProblem = field(repr=False)

    @classmethod
    def create(cls, states, order: float) -> "CapacityProblem":
        order = float(order)
        if not (0.5 < order < 1.0):
            raise InvalidOrder(
                f"capacity is only computed for orders strictly inside (1/2, 1); got {order!r}"
            )
        n = len(states)
        template = AugustinProblem.create(states, np.full(n, 1.0 / n), order)
        return cls(inner=template)

    @property
    def n(self) -> int:
        return self.inner.n

    @property
    def dim(self) -> int:
        return self.inner.dim

    @property
    def order(self) -> float:
        return self.inner.order

    def weighted(self, w: np.ndarray) -> AugustinProblem:
        """The inner problem with weights w; cached state powers are reused."""
        w = _check_weights(w, self.n)
        return replace(self.inner, weights=w)


class OracleResult(NamedTuple):
    g_hat: float
    grad_hat: np.ndarray
    inner_iters: int
    eps: float


def _inner_solve(problem: AugustinProblem, eps: float) -> tuple[IterateState, int]:
    """Run the fixed-point sweep long enough for eps-accurate divergences.

    The sweep count comes from the contraction ratio: the Thompson distance to
    the fixed point shrinks by kappa per sweep, trace-normalization costs a
    factor two, and the divergence error is the distance over (1 - alpha).
    """
    alpha = problem.order
    kappa = contraction_factor(alpha)
    d = problem.dim
    state = petz_augustin_step(problem, initial_state(problem, np.eye(d, dtype=complex) / d))
    # The start I/d has the power d^(alpha-1) I, so the first move
    # d_T(P_1, d^(alpha-1) I) needs only the eigenvalues of P_1.
    mu = np.linalg.eigvalsh(state.power)
    first_move = float(np.abs(np.log(mu * d ** (1.0 - alpha))).max())
    iters = 1
    # Banach bound on the distance to the fixed point, then the sweep count
    # needed to push it below the effective tolerance.
    eps_eff = eps * (1.0 - alpha) / 2.0
    bound = first_move / (1.0 - kappa)
    if first_move == 0.0 or bound <= eps_eff:
        total = 1
    else:
        extra = math.ceil((math.log(bound) - math.log(eps_eff)) / math.log(1.0 / kappa))
        total = min(max(extra, 1), MAX_INNER_ITERS)
    while iters < total:
        state = petz_augustin_step(problem, state)
        iters += 1
    return _renormalized(state, alpha), iters


def approx_oracle(
    problem: CapacityProblem, w: np.ndarray, eps: float = DEFAULT_EPS
) -> tuple[float, np.ndarray]:
    """Approximate value and gradient of g at w, each eps-accurate."""
    result = approx_oracle_detailed(problem, w, eps)
    return result.g_hat, result.grad_hat


def approx_oracle_detailed(
    problem: CapacityProblem, w: np.ndarray, eps: float = DEFAULT_EPS
) -> OracleResult:
    if not eps > 0:
        raise InvalidInput("oracle accuracy must be positive")
    inner = problem.weighted(w)
    state, iters = _inner_solve(inner, eps)
    alpha = problem.order
    divs = np.array(
        [divergence_from_pairing(float(p), alpha) for p in state.pairings]
    )
    if not np.all(np.isfinite(divs)):
        raise InvalidInput("inner solve produced non-finite divergences")
    grad_hat = -divs
    g_hat = float(np.dot(inner.weights, grad_hat))
    return OracleResult(g_hat=g_hat, grad_hat=grad_hat, inner_iters=iters, eps=eps)


@dataclass(frozen=True)
class CapacityState:
    """Outer iterate: weights plus the oracle values evaluated at them."""

    step: int
    w: np.ndarray
    g_hat: float
    grad_hat: np.ndarray
    inner_eps: float
    inner_iters: int = 0
    wall_time_ms: float = 0.0


def mirror_update(w: np.ndarray, grad: np.ndarray) -> np.ndarray:
    """Multiplicative simplex update w * exp(-grad) / <w, exp(-grad)>.

    The exponent is shifted by its maximum before exponentiating; the update
    is invariant to constant shifts of the gradient, so this only prevents
    overflow.
    """
    shifted = np.asarray(grad, dtype=float)
    shifted = shifted - shifted.min()
    scaled = np.asarray(w, dtype=float) * np.exp(-shifted)
    return scaled / scaled.sum()


def initial_capacity_state(
    problem: CapacityProblem, eps: float = DEFAULT_EPS
) -> CapacityState:
    w1 = np.full(problem.n, 1.0 / problem.n)
    began = perf_counter()
    result = approx_oracle_detailed(problem, w1, eps)
    return CapacityState(
        step=1,
        w=w1,
        g_hat=result.g_hat,
        grad_hat=result.grad_hat,
        inner_eps=eps,
        inner_iters=result.inner_iters,
        wall_time_ms=(perf_counter() - began) * 1e3,
    )


def emd_capacity_step(
    problem: CapacityProblem, state: CapacityState, eps: float | None = None
) -> CapacityState:
    """Advance the outer loop one mirror-descent step and re-query the oracle."""
    eps = state.inner_eps if eps is None else eps
    w_new = mirror_update(state.w, state.grad_hat)
    began = perf_counter()
    result = approx_oracle_detailed(problem, w_new, eps)
    return CapacityState(
        step=state.step + 1,
        w=w_new,
        g_hat=result.g_hat,
        grad_hat=result.grad_hat,
        inner_eps=eps,
        inner_iters=result.inner_iters,
        wall_time_ms=(perf_counter() - began) * 1e3,
    )


@dataclass
class CapacityReport:
    c_hat: float
    g_final: float
    w_final: np.ndarray
    states: list[CapacityState]
    certificate: float  # log(n)/T rate bound assuming exact gradients
    eps_budget: float  # accumulated inexactness allowance 2 * sum(eps_t)

    def write_csv(self, path) -> None:
        n = self.w_final.shape[0]
        write_csv(
            path,
            ["step", "g_hat", "gap_certificate", "inner_iters", "wall_time_ms"],
            (
                [s.step, s.g_hat, math.log(n) / s.step, s.inner_iters, s.wall_time_ms]
                for s in self.states
            ),
        )


def solve_capacity(
    problem: CapacityProblem, T: int, eps_schedule=DEFAULT_EPS
) -> CapacityReport:
    """Run T mirror-descent steps from uniform weights; report -g at the last iterate.

    ``eps_schedule`` is either a constant oracle accuracy or a per-step
    sequence of length T + 1 (the final entry covers the closing evaluation at
    w_{T+1}).  The log(n)/T certificate assumes exact gradients; the report
    carries the inexactness budget 2 * sum(eps) separately.
    """
    if T < 1:
        raise InvalidInput("outer iteration count must be >= 1")
    if np.isscalar(eps_schedule):
        eps_list = [float(eps_schedule)] * (T + 1)
    else:
        eps_list = [float(e) for e in eps_schedule]
        if len(eps_list) != T + 1:
            raise InvalidInput(f"eps schedule must have length T+1 = {T + 1}")
    state = initial_capacity_state(problem, eps_list[0])
    states = [state]
    for t in range(1, T + 1):
        state = emd_capacity_step(problem, state, eps_list[t])
        states.append(state)
    return CapacityReport(
        c_hat=-state.g_hat,
        g_final=state.g_hat,
        w_final=state.w,
        states=states,
        certificate=math.log(problem.n) / T,
        eps_budget=2.0 * float(sum(eps_list)),
    )
