"""Inputs, timed tasks and output checks of the three benchmark workloads.

Every input is drawn here from the workload seed with numpy's PCG64, so the
library only ever receives plain arrays.  A task is timed from its first
``*.create`` call to the end of its last library call; its output check runs
afterwards, outside the timed region.  Library functions are looked up on
their modules at call time, so the tracer's patches are seen.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from augustin_lab import augustin, capacity, divergences, fisher, linalg

# Capacity and market runs have no typed stop reason: returning is success.
COMPLETED = "Completed"
CONVERGED = {
    "solve-d128": {augustin.STOP_RESIDUAL},
    "capacity-d2": {COMPLETED},
    "market-1000": {COMPLETED},
}


@dataclass
class Outcome:
    """What one task did: its times, stop reason, check verdict and the
    floats that must repeat bit for bit between traced and untraced runs."""

    name: str
    wall_s: float
    create_s: float
    stop: str
    check_failures: list[str] = field(default_factory=list)
    fingerprint: tuple = ()
    counts: dict = field(default_factory=dict)

    def succeeded(self, workload: str) -> bool:
        return self.stop in CONVERGED[workload] and not self.check_failures


@dataclass(frozen=True)
class Task:
    name: str
    run: Callable[[], Outcome]

    def __call__(self) -> Outcome:
        return self.run()


# ---------------------------------------------------------------------------
# shared helpers
# ---------------------------------------------------------------------------


def _ginibre(rng: np.random.Generator, d: int, rank: int) -> np.ndarray:
    g = (rng.standard_normal((d, rank)) + 1j * rng.standard_normal((d, rank))) / math.sqrt(2)
    m = g @ g.conj().T
    m = (m + m.conj().T) / 2
    return m / np.trace(m).real


def _mixed(rho: np.ndarray, eps: float) -> np.ndarray:
    d = rho.shape[0]
    return (1.0 - eps) * rho + eps * np.eye(d) / d


def _psd_power(m: np.ndarray, r: float) -> np.ndarray:
    w, v = np.linalg.eigh((m + m.conj().T) / 2)
    return (v * np.clip(w, 0.0, None) ** r) @ v.conj().T


def _thompson(u: np.ndarray, v: np.ndarray) -> float:
    """Thompson distance of positive definite u and v, via a Cholesky factor of v."""
    c = np.linalg.cholesky((v + v.conj().T) / 2)
    ci = np.linalg.inv(c)
    lam = np.linalg.eigvalsh(ci @ u @ ci.conj().T)
    return float(max(math.log(lam.max()), -math.log(lam.min())))


# ---------------------------------------------------------------------------
# solve-d128: matrix fixed-point solves at paper size
# ---------------------------------------------------------------------------

SOLVE_N = 32
SOLVE_D = 128
SOLVE_ORDERS = (0.8, 1.5, 3.0, 5.0)
SOLVE_FAMILIES = ("ginibre", "lowrank", "nearpure")
MIX = 1e-3
STATIONARITY_TOL = 1e-7
FP_SLACK = 1e-12


def _family_states(family: str, rng: np.random.Generator) -> list[np.ndarray]:
    if family == "ginibre":
        return [_ginibre(rng, SOLVE_D, SOLVE_D) for _ in range(SOLVE_N)]
    rank = 4 if family == "lowrank" else 1
    return [_mixed(_ginibre(rng, SOLVE_D, rank), MIX) for _ in range(SOLVE_N)]


def _check_solve(state_powers, weights, alpha, report) -> list[str]:
    bad = []
    q = report.final
    herm = (q + q.conj().T) / 2
    if np.abs(q - herm).max() > FP_SLACK:
        bad.append("final iterate not Hermitian")
    lam = np.linalg.eigvalsh(herm)
    if lam.min() < -FP_SLACK:
        bad.append(f"final iterate not PSD (min eigenvalue {lam.min():.3e})")
    if abs(np.trace(q).real - 1.0) > 1e-9:
        bad.append(f"final trace {np.trace(q).real!r} is not 1")
    rows = report.iterates.rows
    if alpha > 1:
        f = [r.f_value for r in rows]
        if any(b > a + FP_SLACK * max(1.0, abs(a)) for a, b in zip(f, f[1:])):
            bad.append("F increased along the run")
        if any(r.trace > 1.0 + FP_SLACK for r in rows):
            bad.append("iterate trace exceeded 1")
    if report.stop_reason == augustin.STOP_RESIDUAL:
        residual = _stationarity_residual(state_powers, weights, alpha, herm)
        if not residual <= STATIONARITY_TOL:
            bad.append(f"stationarity residual {residual:.3e} above {STATIONARITY_TOL}")
    return bad


def _stationarity_residual(state_powers, weights, alpha: float, q: np.ndarray) -> float:
    """Thompson distance from Q to (sum_j w_j A_j^a / Tr[A_j^a Q^(1-a)])^(1/a),
    both at unit trace: zero exactly at the minimizer."""
    q_pow = _psd_power(q, 1.0 - alpha)
    s = np.zeros_like(q)
    for a_pow, w in zip(state_powers, weights):
        s += w * a_pow / np.real(np.vdot(a_pow, q_pow))
    image = _psd_power(s, 1.0 / alpha)
    image /= np.trace(image).real
    return _thompson(image, q)


def _solve_task(name: str, states: list[np.ndarray], alpha: float) -> Task:
    weights = np.full(len(states), 1.0 / len(states))
    powers = []  # the check's own A_j^alpha, computed on first use

    def run() -> Outcome:
        t0 = perf_counter()
        problem = divergences.AugustinProblem.create(states, weights, alpha)
        t1 = perf_counter()
        report = augustin.solve_petz_augustin(problem)
        t2 = perf_counter()
        residuals = [r.residual_thompson for r in report.iterates.rows[1:]]
        stalled = sum(1 for a, b in zip(residuals, residuals[1:]) if b >= a)
        if not powers:
            powers.extend(_psd_power(a, alpha) for a in states)
        return Outcome(
            name=name,
            wall_s=t2 - t0,
            create_s=t1 - t0,
            stop=report.stop_reason,
            check_failures=_check_solve(powers, weights, alpha, report),
            fingerprint=tuple(r.f_value for r in report.iterates.rows)
            + (report.final.tobytes(),),
            counts={"sweeps": len(residuals), "stalled": stalled, "solves": 1},
        )

    return Task(name, run)


def solve_d128(seed: int) -> list[Task]:
    rng = np.random.default_rng([seed, 128])
    tasks = []
    for family in SOLVE_FAMILIES:
        for alpha in SOLVE_ORDERS:
            tasks.append(_solve_task(f"{family}-a{alpha}", _family_states(family, rng), alpha))
    return tasks


# ---------------------------------------------------------------------------
# capacity-d2: many tiny inner sweeps (the shape of acceptance check c08)
# ---------------------------------------------------------------------------

CAPACITY_N = 4
CAPACITY_D = 2
CAPACITY_ORDERS = (0.6, 0.8)
CAPACITY_T = 500
CAPACITY_EPS = 1e-9


def _check_capacity(report) -> list[str]:
    bad = []
    if any(np.any(s.w < 0) or abs(s.w.sum() - 1.0) > 1e-12 for s in report.states):
        bad.append("weights left the simplex")
    g_best = min(s.g_hat for s in report.states)
    allowance = math.log(CAPACITY_N) / CAPACITY_T + 2 * (CAPACITY_T + 1) * CAPACITY_EPS
    if not report.g_final - g_best <= allowance:
        bad.append(f"gap {report.g_final - g_best:.3e} above {allowance:.3e}")
    return bad


def _capacity_task(name: str, states: list[np.ndarray]) -> Task:
    """The capacity of one ensemble at every order in CAPACITY_ORDERS."""

    def run() -> Outcome:
        create_s = 0.0
        reports = []
        t0 = perf_counter()
        for alpha in CAPACITY_ORDERS:
            began = perf_counter()
            problem = capacity.CapacityProblem.create(states, alpha)
            create_s += perf_counter() - began
            reports.append(capacity.solve_capacity(problem, CAPACITY_T, CAPACITY_EPS))
        wall_s = perf_counter() - t0
        return Outcome(
            name=name,
            wall_s=wall_s,
            create_s=create_s,
            stop=COMPLETED,
            check_failures=[
                f"alpha={alpha}: {failure}"
                for alpha, report in zip(CAPACITY_ORDERS, reports)
                for failure in _check_capacity(report)
            ],
            fingerprint=tuple((r.c_hat, r.w_final.tobytes()) for r in reports),
            counts={
                "inner_sweeps": sum(s.inner_iters for r in reports for s in r.states),
                "oracle_calls": sum(len(r.states) for r in reports),
            },
        )

    return Task(name, run)


def capacity_d2(seed: int) -> list[Task]:
    # Inner-sweep counts barely depend on the states (about 35k per task on
    # every seed tried), so one ensemble per pass is enough.
    rng = np.random.default_rng([seed, 2])
    states = [_ginibre(rng, CAPACITY_D, CAPACITY_D) for _ in range(CAPACITY_N)]
    return [_capacity_task("capacity", states)]


# ---------------------------------------------------------------------------
# market-1000: the `augustin-lab fisher` task with 1000 buyers
# ---------------------------------------------------------------------------

BUYERS = 1000
GOODS = 50
EPOCHS = 20
RHO_RANGE = (0.1, 0.7)
RHO_HAT = 0.75
BUDGET_TOL = 1e-10
EQUILIBRIUM_TOL = 1e-9


def _coverage_rounds(rng: np.random.Generator, d: int, epochs: int) -> list[list[int]]:
    # Each epoch: a random prefix of a permutation, the goods it missed, and
    # up to two extra random subsets; every good updates once per epoch.
    rounds = []
    for _ in range(epochs):
        perm = rng.permutation(d)
        cut = int(rng.integers(1, d + 1))
        rounds.append(sorted(perm[:cut].tolist()))
        if cut < d:
            rounds.append(sorted(perm[cut:].tolist()))
        for _ in range(int(rng.integers(0, 3))):
            rounds.append(sorted(rng.choice(d, size=int(rng.integers(1, d + 1)), replace=False).tolist()))
    return rounds


def _demand(arrays: dict, p: np.ndarray) -> np.ndarray:
    """Total CES demand at prices p, computed apart from the library."""
    rho = arrays["rho"][:, None]
    e = 1.0 / (1.0 - rho)
    av = arrays["valuations"] ** e
    share = av * p ** (-rho * e)
    return (arrays["budgets"][:, None] * share / share.sum(axis=1, keepdims=True)).sum(axis=0) / p


def _check_market(arrays, p_star, states, boundaries) -> list[str]:
    bad = []
    for label, p in (("equilibrium", p_star), ("final", states[-1].p)):
        spent = float(p @ _demand(arrays, p))
        if abs(spent - 1.0) > BUDGET_TOL:
            bad.append(f"<p, x(p)> = {spent!r} at the {label} prices")
    excess = float(np.abs(_demand(arrays, p_star) - 1.0).max())
    if excess > EQUILIBRIUM_TOL:
        bad.append(f"excess demand {excess:.3e} at the equilibrium prices")
    if len(boundaries) < EPOCHS:
        bad.append(f"only {len(boundaries)} of {EPOCHS} epochs completed")
    # d_T after the t-th epoch is at most rho_hat_max^t times the start distance.
    rate = float(arrays["rho_hat"].max())
    d_t = [float(np.abs(np.log(s.p / p_star)).max()) for s in states]
    for t, b in enumerate(boundaries[:EPOCHS], start=1):
        if d_t[b] > rate**t * d_t[0] * (1 + 1e-8):
            bad.append(f"epoch {t} ends at distance {d_t[b]:.3e} > {rate}^{t} * {d_t[0]:.3e}")
            break
    return bad


def _market_task(name: str, arrays: dict) -> Task:
    def run() -> Outcome:
        t0 = perf_counter()
        market = fisher.FisherMarket.create(
            arrays["valuations"], arrays["budgets"], arrays["rho"], arrays["rho_hat"]
        )
        schedule = fisher.UpdateSchedule.create(arrays["rounds"])
        t1 = perf_counter()
        p_star = fisher.equilibrium_prices(market)
        p1 = np.full(GOODS, 1.0 / GOODS)
        states, boundaries = fisher.run_schedule(market, p1, schedule)
        d_t = [linalg.thompson_metric_vec(p_star, s.p) for s in states]
        excess = [float(np.abs(fisher.total_demand(market, s.p) - 1.0).max()) for s in states]
        t2 = perf_counter()
        return Outcome(
            name=name,
            wall_s=t2 - t0,
            create_s=t1 - t0,
            stop=COMPLETED,
            check_failures=_check_market(arrays, p_star, states, boundaries),
            fingerprint=(p_star.tobytes(), states[-1].p.tobytes(), tuple(d_t), tuple(excess)),
            counts={"rounds": len(states) - 1},
        )

    return Task(name, run)


def market_1000(seed: int) -> list[Task]:
    rng = np.random.default_rng([seed, 1000])
    arrays = {
        "valuations": rng.dirichlet(np.ones(GOODS), size=BUYERS),
        "budgets": rng.dirichlet(np.ones(BUYERS)),
        "rho": rng.uniform(*RHO_RANGE, size=BUYERS),
        "rho_hat": np.full(GOODS, RHO_HAT),
        "rounds": _coverage_rounds(rng, GOODS, EPOCHS),
    }
    return [_market_task("market", arrays)]


WORKLOADS = {
    "solve-d128": solve_d128,
    "capacity-d2": capacity_d2,
    "market-1000": market_1000,
}
