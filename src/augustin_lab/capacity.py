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
    STOP_NON_FINITE,
    STOP_RESIDUAL,
    STOP_SINGULAR,
    IterateState,
    contraction_factor,
    solve_petz_augustin,
    _renormalized,
)
from .divergences import AugustinProblem, _check_weights, divergence_from_pairing
from .errors import InvalidInput, InvalidOrder, NonFinite, NotConverged, SingularMatrix
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
    state: IterateState  # unit-trace inner iterate, a warm start for the next call


def _checked_eps(eps) -> float:
    """An oracle accuracy as a float; only 0 < eps < inf bounds anything."""
    eps = float(eps)
    if not 0.0 < eps < math.inf:
        raise InvalidInput(f"oracle accuracy must be positive and finite; got {eps!r}")
    return eps


def approx_oracle(
    problem: CapacityProblem, w: np.ndarray, eps: float = DEFAULT_EPS
) -> tuple[float, np.ndarray]:
    """Approximate value and gradient of g at w, each eps-accurate."""
    result = approx_oracle_detailed(problem, w, eps)
    return result.g_hat, result.grad_hat


def approx_oracle_detailed(
    problem: CapacityProblem,
    w: np.ndarray,
    eps: float = DEFAULT_EPS,
    *,
    start: IterateState | None = None,
) -> OracleResult:
    """:func:`approx_oracle` plus the sweep count and the inner state.

    The inner sweep is one :func:`solve_petz_augustin` run.  ``start``
    warm-starts it from a unit-trace state of the same problem, such as
    ``OracleResult.state`` of an earlier call, whose carried coefficients
    give even its first row the O(n) certificate; the default is I/d.  The
    eps contract does not depend on the start.  Let P_t be the raw (1-alpha)
    powers of the iterates Q_t, N_t = P_t * (Tr Q_t)^(alpha-1) the powers of
    the unit-trace iterates and N* the fixed point's.  The error argument has
    two steps.

    * Divergences from the distance.  If d_T(N_t, N*) <= delta then
      e^(-delta) N* <= N_t <= e^delta N*, so each pairing Tr[A_j^alpha N_t]
      is within a factor e^(+-delta) of its limit, and each divergence
      log(pairing) / (alpha - 1), hence g, their weighted mean, is off by at
      most delta / (1 - alpha).  It suffices that delta <= eps * (1 - alpha).
    * Certificate.  The solver's certificate r of an iterate, osc(log(w / pi)
      - log c) over its pairings pi and the coefficients c it was swept from,
      bounds d_T(N_t, N*) <= kappa / (1 - kappa) * r, with kappa =
      |1 - 1/alpha| (see :func:`solve_petz_augustin`).  It costs O(n), holds
      for the warm start's coefficients under the new weights and for mixed
      rows alike.

    So the run stops at the first row with kappa / (1 - kappa) * r <=
    eps * (1 - alpha), i.e. at the solver's residual_tol = eps * (1 - alpha)
    * (1 - kappa) / (2 kappa).  If that does not happen within
    MAX_INNER_ITERS sweeps the oracle cannot meet its contract and raises
    :class:`NotConverged`; a run that stops on non-finite values raises
    :class:`NonFinite`, as do non-finite divergences, and one whose
    combination is numerically singular raises :class:`SingularMatrix` with
    the eigenvalue ratio.  Only an eps outside (0, inf) raises
    :class:`InvalidInput`.
    """
    eps = _checked_eps(eps)
    inner = problem.weighted(w)
    alpha = problem.order
    kappa = contraction_factor(alpha)
    report = solve_petz_augustin(
        inner,
        start,
        max_iter=MAX_INNER_ITERS,
        residual_tol=eps * (1.0 - alpha) * (1.0 - kappa) / (2.0 * kappa),
    )
    if report.stop_reason == STOP_NON_FINITE:
        raise NonFinite(f"capacity oracle at order {alpha!r}: inner sweep went non-finite")
    if report.stop_reason == STOP_SINGULAR:
        raise SingularMatrix(f"capacity oracle at order {alpha!r}: {report.detail}")
    if report.stop_reason != STOP_RESIDUAL:
        raise NotConverged(
            f"capacity oracle at order {alpha!r} found no eps={eps!r} certificate "
            f"within {MAX_INNER_ITERS} inner sweeps"
        )
    state = _renormalized(report.state, alpha)
    divs = divergence_from_pairing(state.pairings, alpha)
    if not np.all(np.isfinite(divs)):
        raise NonFinite("inner solve produced non-finite divergences")
    grad_hat = -divs
    g_hat = float(np.dot(inner.weights, grad_hat))
    return OracleResult(g_hat, grad_hat, state.step, state)


@dataclass(frozen=True)
class CapacityState:
    """Outer iterate: weights plus the oracle values evaluated at them."""

    step: int
    w: np.ndarray
    g_hat: float
    grad_hat: np.ndarray
    inner_iters: int
    wall_time_ms: float


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


@dataclass
class CapacityReport:
    c_hat: float
    g_final: float
    w_final: np.ndarray
    states: list[CapacityState]
    certificate: float  # log(n)/T rate bound assuming exact gradients
    eps_budget: float  # inexactness allowance 2 * (T + 1) * eps over the T + 1 oracle calls

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


def solve_capacity(problem: CapacityProblem, T: int, eps: float = DEFAULT_EPS) -> CapacityReport:
    """Run T mirror-descent steps from uniform weights; report -g at the last iterate.

    Every oracle call, the closing evaluation at w_{T+1} included, is
    ``eps``-accurate.  Step t moves w by :func:`mirror_update` on the last
    gradient (from t = 2 on) and calls :func:`approx_oracle_detailed` at the
    new w, warm-started from the last call's inner state, which only the loop
    holds.  The log(n)/T certificate assumes exact gradients; the report
    carries the inexactness budget 2 * (T + 1) * eps separately.
    """
    if T < 1:
        raise InvalidInput("outer iteration count must be >= 1")
    eps = _checked_eps(eps)
    w = np.full(problem.n, 1.0 / problem.n)
    start = None
    states = []
    for step in range(1, T + 2):
        if step > 1:
            w = mirror_update(w, result.grad_hat)
        began = perf_counter()
        result = approx_oracle_detailed(problem, w, eps, start=start)
        wall_time_ms = (perf_counter() - began) * 1e3
        states.append(
            CapacityState(step, w, result.g_hat, result.grad_hat, result.inner_iters, wall_time_ms)
        )
        start = result.state
    last = states[-1]
    return CapacityReport(
        c_hat=-last.g_hat,
        g_final=last.g_hat,
        w_final=last.w,
        states=states,
        certificate=math.log(problem.n) / T,
        eps_budget=2.0 * (T + 1) * eps,
    )
