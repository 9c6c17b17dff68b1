"""Fixed-point computation of weighted divergence minimizers.

The central object is the operator

    T_F(U) = (sum_j w_j A_j^alpha / Tr[A_j^alpha U])^((1-alpha)/alpha),

which is a Thompson-metric contraction with ratio |1 - 1/alpha| for orders in
(1/2, 1) or (1, inf).  Iterating Q_{t+1} = T_F(Q_t^(1-alpha))^(1/(1-alpha))
drives Q_t to the minimizer of the weighted divergence objective; each sweep
costs one eigendecomposition plus n trace pairings.  At orders above 1/2 the
solver stops on an O(n) certificate read off those pairings and the
coefficients that built the iterate, so measuring convergence adds no second
O(d^3) decomposition, and it accelerates the sweep by safeguarded Anderson
mixing of the n log-pairings, which costs O(n m) per row.

The commuting (vector) specialization runs through the same sweep as its
diagonal case.  On probability vectors the module also provides entropic
mirror descent with an adaptive step size, the reference method of the
divergence demo for orders without a contraction guarantee.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, replace
from time import perf_counter

import numpy as np

from .divergences import (
    INF,
    AugustinProblem,
    ClassicalAugustinProblem,
    classical_pairings,
    objective_f,
    weighted_divergence,
)
from .errors import DegenerateTrace, InvalidInput, SingularMatrix, Unsupported
from .linalg import (
    EIG_FLOOR,
    Spectrum,
    hermitize,
    matrix_power,
    thompson_metric_psd,
    thompson_metric_vec,
)
from .trace import IterationTrace, TraceRow

STOP_MAX_ITER = "MaxIter"
STOP_RESIDUAL = "FixedPointResidual"
STOP_NON_FINITE = "NonFinite"
STOP_SINGULAR = "SingularCombination"

DEFAULT_MAX_ITER = 200
DEFAULT_RESIDUAL_TOL = 1e-10
MIX_DEPTH = 5  # Anderson memory: the last m row-to-row differences
MIX_START = 3  # mixing starts once the memory holds this many differences
# A mixed row's F may exceed the previous row's by this much relative to
# max(1, |F|): the rounding of F itself, far below every monotonicity check.
F_ROUNDING = 64 * np.finfo(float).eps
MAX_LOG_SHRINK = -math.log(np.finfo(float).eps)  # Polyak step cap, about 36

Problem = AugustinProblem | ClassicalAugustinProblem


def contraction_factor(alpha: float) -> float:
    """The per-sweep Thompson contraction ratio |1 - 1/alpha|."""
    return abs(1.0 - 1.0 / alpha)


# ---------------------------------------------------------------------------
# operator application
# ---------------------------------------------------------------------------

# One sweep kernel serves both forms.  A vector S is the diagonal case: it is
# its own spectrum and its powers are element-wise (see _spectral_split).


def _coefficients(problem: Problem, pairings: np.ndarray) -> np.ndarray:
    """The sweep's coefficients c_j = w_j / pairing_j."""
    if np.any(pairings <= EIG_FLOOR):
        raise DegenerateTrace(
            f"trace pairing collapsed (min {pairings.min():.3e}); operator undefined"
        )
    return problem.weights / pairings


def _powers(problem: Problem) -> np.ndarray:
    """The (n, d, d) stack of state powers, or the (n, d) rows of point powers."""
    if isinstance(problem, ClassicalAugustinProblem):
        return problem.point_powers
    return problem.state_powers


def _combination(problem: Problem, coeff: np.ndarray) -> np.ndarray:
    """sum_j c_j A_j^alpha as one real GEMV on the flat stack: real
    coefficients scale the real and imaginary parts alike."""
    powers = _powers(problem)
    flat = coeff @ powers.view(float).reshape(len(powers), -1)
    return flat.view(powers.dtype).reshape(powers.shape[1:])


def _pairings(problem: Problem, power: np.ndarray) -> np.ndarray:
    """Tr[A_j^alpha P] for every j (for vectors, <a_j^alpha, p>) as one real
    GEMV: for Hermitian P, Re Tr[A P] = sum_ik Re A_ik Re P_ik + Im A_ik Im P_ik,
    so P is not conjugated."""
    powers = _powers(problem)
    if power.dtype != powers.dtype:
        # a real start of complex states, or a complex start of real ones
        power = power.astype(powers.dtype) if np.iscomplexobj(powers) else power.real
    return powers.view(float).reshape(len(powers), -1) @ power.view(float).ravel()


def _spectral_split(problem: Problem, s: np.ndarray):
    """Eigenvalues of S and the map back from values on them.  A vector is its
    own spectrum; a matrix with an eigenvalue below the relative floor is refused.

    S is a positive combination of powers checked at construction and eigh
    reads one triangle, so S is neither validated nor symmetrized here.  A
    non-finite S gives NaN eigenvalues, which the solver's finite guard stops.
    """
    if isinstance(problem, ClassicalAugustinProblem):
        return s, lambda values: values
    lam, vecs = np.linalg.eigh(s)  # increasing
    top = max(float(lam[-1]), 0.0)
    if lam[0] <= EIG_FLOOR * top:
        ratio = float(lam[0]) / top if top > 0 else -math.inf
        raise SingularMatrix(
            f"update combination is numerically singular: eigenvalue ratio {ratio:.3e} "
            f"is at or below EIG_FLOOR = {EIG_FLOOR:g}"
        )
    return lam, Spectrum(lam, vecs).apply


def _check_shape(problem: Problem, q) -> None:
    """Refuse a matrix or vector that does not fit the problem's form and
    dimension with :class:`InvalidInput`."""
    shape = (problem.dim,) if isinstance(problem, ClassicalAugustinProblem) else (problem.dim,) * 2
    if np.shape(q) != shape:
        raise InvalidInput(f"argument of shape {np.shape(q)} does not fit a {shape} problem")


def apply_T_F(problem: Problem, u: np.ndarray) -> np.ndarray:
    """Apply the contraction operator to a positive definite matrix U, or
    coordinatewise to a strictly positive vector for a
    :class:`ClassicalAugustinProblem`.  A combination with an eigenvalue at
    or below the relative floor raises :class:`SingularMatrix`."""
    _check_shape(problem, u)
    if isinstance(problem, ClassicalAugustinProblem):
        u = np.asarray(u, dtype=float)
        if not np.all(u > 0):
            raise InvalidInput("operator argument must be strictly positive")
    else:
        u = hermitize(u)
    s = _combination(problem, _coefficients(problem, _pairings(problem, u)))
    lam, rebuild = _spectral_split(problem, s)
    alpha = problem.order
    return rebuild(lam ** ((1.0 - alpha) / alpha))


# ---------------------------------------------------------------------------
# iterate states
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IterateState:
    """One iterate of the fixed-point sweep, in either problem form.

    ``matrix`` is the raw (possibly non-unit-trace) iterate Q_t (a positive
    vector in the commuting form), ``power`` its cached (1-alpha) power,
    ``pairings`` the vector Tr[A_j^alpha Q_t^(1-alpha)], ``f_value`` the
    objective at the trace-normalized iterate, and ``coefficients`` the c_j
    with Q_t = (sum_j c_j A_j^alpha)^(1/alpha) that it was swept from
    (``None`` for a start given as a matrix or vector).
    """

    step: int
    matrix: np.ndarray
    power: np.ndarray
    pairings: np.ndarray
    trace: float
    f_value: float
    coefficients: np.ndarray | None

    @property
    def normalized(self) -> np.ndarray:
        return self.matrix / self.trace


def _f_value(problem: Problem, pairings: np.ndarray, trace: float) -> float:
    # F(Q/trace) = sum_j w_j log(pairing_j) / (alpha-1) + log(trace)
    f_value = weighted_divergence(problem.weights, pairings, problem.order)
    return f_value if f_value == INF else f_value + math.log(trace)


def _iterate(
    problem: Problem, step: int, q: np.ndarray, power: np.ndarray, trace: float, coeff=None
) -> IterateState:
    pair = _pairings(problem, power)
    return IterateState(step, q, power, pair, trace, _f_value(problem, pair, trace), coeff)


def initial_state(problem: Problem, q1: np.ndarray | IterateState) -> IterateState:
    """Wrap a positive definite starting matrix (a strictly positive vector
    for a :class:`ClassicalAugustinProblem`) as a step-0 iterate.

    An :class:`IterateState` of a problem with the same states and order
    (the weights may differ) keeps its iterate, power, pairings, trace and
    coefficients, and only its objective value is recomputed, since the
    pairings do not depend on the weights; so a run resumes where it left
    off with no eigendecomposition and no pairing pass.  A start of another
    shape, or an iterate built from another number of states, raises
    :class:`InvalidInput`.
    """
    alpha = problem.order
    resumed = isinstance(q1, IterateState)
    _check_shape(problem, q1.matrix if resumed else q1)
    if resumed:
        if q1.coefficients is not None and q1.coefficients.shape != (problem.n,):
            raise InvalidInput(
                f"iterate built from {q1.coefficients.size} states cannot start a problem "
                f"with {problem.n}"
            )
        f_value = _f_value(problem, q1.pairings, q1.trace)
        return replace(q1, step=0, f_value=f_value)
    if isinstance(problem, ClassicalAugustinProblem):
        q1 = np.asarray(q1, dtype=float)
        if not np.all(q1 > 0):
            raise InvalidInput("starting vector must be strictly positive")
        return _iterate(problem, 0, q1, q1 ** (1.0 - alpha), float(q1.sum()))
    q1 = hermitize(q1)
    power = matrix_power(q1, 1.0 - alpha)
    return _iterate(problem, 0, q1, power, float(np.trace(q1).real))


def _renormalized(state: IterateState, alpha: float) -> IterateState:
    """Rescale the iterate to unit trace; the normalized sequence is unchanged."""
    if state.trace == 1.0:
        return state
    g = state.trace ** (alpha - 1.0)
    c = state.coefficients
    return replace(
        state,
        matrix=state.matrix / state.trace,
        power=state.power * g,
        pairings=state.pairings * g,
        trace=1.0,
        coefficients=None if c is None else c * state.trace**-alpha,
    )


def petz_augustin_step(problem: Problem, state: IterateState) -> IterateState:
    """One fixed-point sweep Q -> T_F(Q^(1-alpha))^(1/(1-alpha)).

    Costs one eigendecomposition plus n trace pairings (element-wise powers in
    the commuting form); the new iterate's (1-alpha) power and pairings are
    produced as by-products.
    """
    alpha = problem.order
    coeff = _coefficients(problem, state.pairings)
    lam, rebuild = _spectral_split(problem, _combination(problem, coeff))
    # T_F output is s^((1-alpha)/alpha); the iterate is its 1/(1-alpha) power.
    q_vals = lam ** (1.0 / alpha)
    p_new = rebuild(lam ** ((1.0 - alpha) / alpha))
    return _iterate(problem, state.step + 1, rebuild(q_vals), p_new, float(q_vals.sum()), coeff)


# ---------------------------------------------------------------------------
# solvers
# ---------------------------------------------------------------------------


@dataclass
class SolveReport:
    """Outcome of a fixed-point run: trace, last raw iterate, status.

    ``distance_bound`` is kappa / (1 - kappa) * r, with r the certificate of
    ``state`` (see :func:`solve_petz_augustin`): it bounds the Thompson
    distance from ``final``'s (1-alpha) power to the fixed point's (both at
    unit trace).  It is ``None`` for orders at or below 1/2 and for a start
    given as a matrix or vector that no sweep completed.  ``rejected_mixes``
    counts the mixed points the safeguard refused (at most one a run), and
    ``detail`` says why a ``SingularCombination`` run stopped.
    """

    iterates: IterationTrace
    state: IterateState
    stop_reason: str
    raw_iterates: list | None = None
    distance_bound: float | None = None
    rejected_mixes: int = 0
    detail: str = ""

    @property
    def final(self) -> np.ndarray:
        """The last iterate at unit trace."""
        return self.state.normalized


def _uniform_start(problem: Problem) -> np.ndarray:
    d = problem.dim
    if isinstance(problem, ClassicalAugustinProblem):
        return np.full(d, 1.0 / d)
    return np.eye(d, dtype=complex) / d


def _sweep_residual(problem: Problem, state: IterateState) -> np.ndarray:
    """v = log(pi) - u, with u = log(w / c) the input the state was swept from."""
    return np.log(state.pairings * state.coefficients / problem.weights)


def _oscillation(v: np.ndarray) -> float:
    return float(v.max() - v.min())


def certificate(problem: Problem, state: IterateState) -> float | None:
    """The O(n) certificate r = osc(log(w / pi) - log c) of an iterate that
    carries its coefficients (``None`` otherwise): at orders above 1/2 its
    unit-trace powered iterate is within kappa / (1 - kappa) * r of the fixed
    point's in the Thompson metric (see :func:`solve_petz_augustin`)."""
    if state.coefficients is None:
        return None
    return _oscillation(_sweep_residual(problem, state))


def _guarded_sweep(problem: Problem, state: IterateState, v, memory, kappa: float):
    """One solver row at an order above 1/2: the Anderson-mixed point when
    the safeguard accepts it, else the plain sweep.  ``v`` is the state's
    sweep residual (``None`` for a start without coefficients) and
    ``memory`` the run's two deques of u- and v-differences, oldest first,
    or ``None`` once a mix was rejected.  Returns the row, its sweep
    residual and the memory, ``None`` from a rejected mix on."""
    if memory is not None and len(memory[0]) >= MIX_START:
        inputs, residuals = np.array(memory[0]), np.array(memory[1])
        centered = residuals - residuals.mean(axis=1, keepdims=True)
        gamma = np.linalg.lstsq(centered.T, v - v.mean(), rcond=None)[0]
        mixed = state.pairings * np.exp(-(inputs + residuals).T @ gamma)
        try:
            trial = petz_augustin_step(problem, replace(state, pairings=mixed))
        except (DegenerateTrace, SingularMatrix):
            trial = None  # a floor refused the mixed point, not the sweep
        if trial is not None:
            trial_v = _sweep_residual(problem, trial)
            if not (math.isfinite(trial.f_value) and math.isfinite(trial.trace)):
                return trial, trial_v, memory  # the solver stops it as non-finite
            if (
                _oscillation(trial_v) <= kappa * _oscillation(v)
                and trial.f_value <= state.f_value + F_ROUNDING * max(1.0, abs(state.f_value))
                and (problem.order < 1.0 or trial.trace <= 1.0)
            ):
                return trial, trial_v, memory
        memory = None  # rejected: mixing stays off for the rest of the run
    new = petz_augustin_step(problem, state)
    return new, _sweep_residual(problem, new), memory


def solve_petz_augustin(
    problem: Problem,
    q1: np.ndarray | IterateState | None = None,
    max_iter: int = DEFAULT_MAX_ITER,
    residual_tol: float = DEFAULT_RESIDUAL_TOL,
    *,
    reference: np.ndarray | None = None,
    keep_iterates: bool = False,
) -> SolveReport:
    """Run the fixed-point sweep from a full-rank start until it is certified
    within ``2 * kappa / (1 - kappa) * residual_tol`` of the fixed point (for
    orders at or below 1/2: until the Thompson residual between consecutive
    rows drops below ``residual_tol``) or ``max_iter`` rows have been swept.

    Accepts an :class:`AugustinProblem` (density matrices) or a
    :class:`ClassicalAugustinProblem` (probability vectors); the default start
    is the maximally mixed state of either form.  ``q1`` may also be an
    :class:`IterateState`, such as ``raw_iterates[k]`` of an earlier run, which
    the run continues from without an eigendecomposition (see
    :func:`initial_state`); under the same weights it repeats the rest of
    that run bit for bit, except that at orders above 1/2 its Anderson memory
    starts empty, so its first MIX_START rows are plain sweeps.

    *The sweep as a map on n numbers.*  A sweep from the pairings pi of an
    iterate sets c = w / pi, S = sum_j c_j A_j^alpha, Q = S^(1/alpha), and
    returns Q's pairings.  In u = log(w / c) (the log-pairings swept from)
    this is a map G(u) = log pi(Q(u)), and every iterate that carries the
    coefficients c it was swept from is one evaluation of it.  Its sweep
    residual is v = log(pi) - u = log(pi * c / w) and its certificate
    r = osc(v), where osc(x) = max x - min x, the same on both forms.

    *Certificate.*  Coefficient ratios within [e^a, e^b] give
    e^a S' <= S <= e^b S' (Thompson 1963), and since kappa = |1-alpha|/alpha
    <= 1 for alpha > 1/2, Loewner-Heinz carries the order through the power
    (reversing it for alpha > 1), so every pairing ratio of Q^(1-alpha) and
    Q'^(1-alpha) lies in an interval of log-width kappa * osc(u - u'): G
    contracts osc by kappa.  With G(u*) - u* constant at the fixed point,
    osc(u - u*) <= r + kappa * osc(u - u*), so osc(u - u*) <= r / (1 - kappa).
    The same sandwich gives d_T(N, N*) <= d_H(N, N*) <= kappa * osc(u - u*)
    for the unit-trace powered iterates N (d_T <= d_H at unit trace: no
    unit-trace N lies strictly below another), hence

        d_T(N, N*) <= kappa / (1 - kappa) * r,

    the report's ``distance_bound``.  It costs O(n), holds for any iterate
    with coefficients (a mixed, warm or resumed one included), and the run
    stops once r <= 2 * residual_tol.  Each row's ``residual_thompson`` is
    its r.  It assumes exact eigendecompositions.

    *Safeguarded mixing.*  The run keeps a memory, empty at every start, of
    the last MIX_DEPTH differences dU, dV of u and v between consecutive
    rows.  Once it holds MIX_START of them, each row applies type-II
    Anderson mixing (Walker & Ni 2011) to the carried log-pairings: gamma
    minimizes the 2-norm of the centered v - dV gamma (osc ignores
    constants) and the mixed input is log(pi) - (dU + dV) gamma.  The mixed
    point is swept by the unchanged :func:`petz_augustin_step` and kept only
    if its r is at most kappa times the previous row's, F does not rise by
    more than its own rounding, F_ROUNDING * max(1, |F|), the trace stays
    <= 1 for alpha > 1, and every value is finite (a non-finite one ends the
    run ``NonFinite``), after Zhang, O'Donoghue & Boyd (2020).  Otherwise,
    and when a floor refuses the mixed point (a collapsed pairing or a
    singular combination, which noise differences at the rounding floor can
    produce), the row is the plain sweep and the memory is dropped for the
    rest of the run.  So every row keeps the plain sweep's invariants, and a
    run makes at most one eigendecomposition more than it has rows.

    A combination S with an eigenvalue ratio at or below ``EIG_FLOOR`` stops
    the run ``SingularCombination``, with the ratio in ``detail``.  For
    orders at or below 1/2 there is no contraction guarantee and no mixing;
    the carried iterate is re-normalized every sweep to postpone overflow,
    the residual is the exact Thompson distance between consecutive rows,
    and non-finite values stop the run early with the partial trace
    preserved.
    """
    if max_iter < 1:
        raise InvalidInput("max_iter must be >= 1")
    alpha = problem.order
    if q1 is None:
        q1 = _uniform_start(problem)
    guaranteed = alpha > 0.5
    vector = isinstance(problem, ClassicalAugustinProblem)
    if vector:
        metric = thompson_metric_vec
        ref_power = None if reference is None else np.asarray(reference, float) ** (1.0 - alpha)
    else:
        metric = thompson_metric_psd
        ref_power = None if reference is None else matrix_power(hermitize(reference), 1.0 - alpha)
    kappa = contraction_factor(alpha)
    tol = 2.0 * residual_tol if guaranteed else residual_tol

    state = initial_state(problem, q1)
    v = memory = None
    if guaranteed:
        memory = deque(maxlen=MIX_DEPTH), deque(maxlen=MIX_DEPTH)
        if state.coefficients is not None:
            v = _sweep_residual(problem, state)
    rows = IterationTrace()
    raw = [state] if keep_iterates else None
    distance = None
    if ref_power is not None:
        distance = metric(ref_power, state.power * state.trace ** (alpha - 1.0))
    rows.append(TraceRow(0, state.f_value, state.trace, None, distance, 0.0))
    reason = STOP_MAX_ITER
    detail = ""
    for _ in range(max_iter):
        carried = state if guaranteed else _renormalized(state, alpha)
        began = perf_counter()
        try:
            if guaranteed:
                new, new_v, memory = _guarded_sweep(problem, carried, v, memory, kappa)
                residual = _oscillation(new_v)
            else:
                new = petz_augustin_step(problem, carried)
            # Guard before the residual: the metric below then sees only a
            # finite, positive row, so an error it raises is the caller's.
            if not (
                math.isfinite(new.f_value)
                and math.isfinite(new.trace)
                and new.trace > 0
                and (not vector or np.all(new.power > 0))
            ):
                reason = STOP_NON_FINITE
                break
            if not guaranteed:
                residual = metric(
                    new.power * new.trace ** (alpha - 1.0),
                    carried.power * carried.trace ** (alpha - 1.0),
                )
        except SingularMatrix as exc:
            reason, detail = STOP_SINGULAR, str(exc)
            break
        except (DegenerateTrace, FloatingPointError, np.linalg.LinAlgError):
            reason = STOP_NON_FINITE
            break
        wall_time_ms = (perf_counter() - began) * 1e3
        if not math.isfinite(residual):
            reason = STOP_NON_FINITE
            break
        state = new
        if ref_power is not None:
            distance = metric(ref_power, state.power * state.trace ** (alpha - 1.0))
        rows.append(
            TraceRow(state.step, state.f_value, state.trace, residual, distance, wall_time_ms)
        )
        if keep_iterates:
            raw.append(state)
        if guaranteed:
            if memory is not None and v is not None:
                memory[0].append(np.log(carried.coefficients / state.coefficients))
                memory[1].append(new_v - v)
            v = new_v
        if residual <= tol:
            reason = STOP_RESIDUAL
            break

    return SolveReport(
        iterates=rows,
        state=state,
        stop_reason=reason,
        raw_iterates=raw,
        distance_bound=None if v is None else kappa / (1.0 - kappa) * _oscillation(v),
        rejected_mixes=int(guaranteed and memory is None),
        detail=detail,
    )


# ---------------------------------------------------------------------------
# entropic mirror descent on probability vectors
# ---------------------------------------------------------------------------


def classical_gradient(problem: ClassicalAugustinProblem, q: np.ndarray) -> np.ndarray:
    """Gradient of the classical objective at a strictly positive point."""
    q = np.asarray(q, dtype=float)
    if not np.all(q > 0):
        raise InvalidInput("gradient requires a strictly positive point")
    pair = classical_pairings(problem, q)
    neg = ((problem.weights / pair) @ problem.point_powers) * q ** (-problem.order)
    return -neg


def emd_polyak_step(problem: ClassicalAugustinProblem, q, f_best: float):
    """Entropic mirror-descent step with an adaptive (target-gap) step size.

    The step size is (f(q) - f_best) / ||g~||_inf^2 where g~ is the gradient
    reduced by its q-weighted mean; the reduction leaves the multiplicative
    update invariant and vanishes at the minimizer, which keeps the step size
    from collapsing near the solution.  Only probability-vector problems are
    accepted; any other raises :class:`Unsupported`.
    """
    _require_vectors(problem)
    q = np.asarray(q, dtype=float)
    f_value = objective_f(problem, q)
    g = classical_gradient(problem, q)
    if not np.all(np.isfinite(g)):
        raise InvalidInput("gradient is non-finite at the given point")
    reduced = g - np.dot(q, g)
    norm = float(np.abs(reduced).max())
    gap = f_value - f_best
    # Both the gap and the reduced gradient vanish at the minimizer; treat
    # float-noise remnants as zero so the step size cannot blow up there.
    if norm <= 1e-12 * float(np.abs(g).max()) or gap <= 1e-12 * (1.0 + abs(f_value)):
        return q.copy()
    eta = gap / norm**2
    # A target far below the optimum makes the step so long that a coordinate
    # underflows to 0 and the point leaves the orthant; cap the step so that
    # no coordinate shrinks by more than a factor of machine epsilon.
    spread = float(g.max() - g.min())
    if eta * spread > MAX_LOG_SHRINK:
        eta = MAX_LOG_SHRINK / spread
    scaled = np.exp(-eta * (g - g.min()))
    out = q * scaled
    return out / out.sum()


def _require_vectors(problem) -> None:
    if not isinstance(problem, ClassicalAugustinProblem):
        raise Unsupported("the adaptive-step reference takes probability-vector problems only")


@dataclass
class PolyakRun:
    best_value: float
    best_point: np.ndarray


def emd_polyak_run(problem: ClassicalAugustinProblem, steps: int, f_best: float) -> PolyakRun:
    """Iterate :func:`emd_polyak_step` from the uniform vector, tracking the
    best objective value."""
    _require_vectors(problem)
    q = _uniform_start(problem)
    best_value = INF
    best_point = q
    for _ in range(steps):
        value = objective_f(problem, q)
        if value < best_value:
            best_value = value
            best_point = np.array(q, copy=True)
        q = emd_polyak_step(problem, q, f_best)
    return PolyakRun(best_value=best_value, best_point=best_point)
