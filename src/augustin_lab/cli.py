"""Experiment runner.

Subcommands build a problem instance from a config (JSON file plus flag
overrides), run the relevant solver, and persist trace CSVs next to a
manifest that echoes the config and content-hashes every output file.
Figures are not rendered; the CSVs are tidy input for any plotting tool.
Every subcommand is a row of the table ``TASKS``, which names the config
fields each task reads; those fields alone make up its flags, its
``--config`` keys and its manifest's config.

Exit codes: 0 success, 2 config error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import NamedTuple

import numpy as np

from . import augustin, capacity, fisher, oracles
from .divergences import AugustinProblem, ClassicalAugustinProblem, objective_f
from .errors import AugustinLabError, InvalidInput
from .linalg import (
    hermitize,
    matrix_power,
    random_density_ensemble,
    thompson_metric_psd,
    thompson_metric_vec,
)
from .trace import write_csv

SCHEDULES = ("synchronous", "round-robin", "random")
OUT_ENV = "AUGUSTIN_LAB_OUT"

# Printed 2x2 instance for which the one-shot operator fails to contract at
# ratio |1 - 1/alpha| (order 3).
COUNTEREXAMPLE_STATE = np.array([[19.5364, 4.42], [4.42, 1.1]])
COUNTEREXAMPLE_U = np.array([[2 / 3, 1 / 3], [1 / 3, 1 / 3]])
COUNTEREXAMPLE_V = np.array([[1 / 2.1, 1 / 2.1], [1 / 2.1, 1.1 / 2.1]])
COUNTEREXAMPLE_ORDER = 3.0
COUNTEREXAMPLE_EXPECTED = (1.4366, 1.3668)

# Hand-built 3x3 instance on which the sweep fails to converge for small orders.
DEMO_POINTS = np.array(
    [
        [0.9, 0.09, 0.01],
        [0.009, 0.99, 0.001],
        [0.0001, 0.0009, 0.999],
    ]
)
DEMO_WEIGHTS = np.array([1 / 3, 1 / 3, 1 / 3])
DEMO_ORDERS = (0.2, 0.4)


@dataclass
class ExperimentConfig:
    task: str = "augustin"
    seed: int = 0
    n: int = 8
    d: int = 16
    alpha: float | None = None  # resolved per task in __post_init__
    iters: int = 60
    out: str | None = None
    # capacity
    outer_steps: int = 50
    inner_eps: float = 1e-9
    # fisher
    buyers: int = 5
    goods: int = 6
    rho_min: float = 0.1
    rho_max: float = 0.7
    rho_hat: float = 0.75
    epochs: int = 20
    schedule: str = "synchronous"
    # divergence demo
    polyak_steps: int = 1000
    grid_resolution: int = 1000

    def __post_init__(self) -> None:
        if self.alpha is None:
            # capacity is only defined for orders in (1/2, 1)
            self.alpha = 0.8 if self.task == "capacity" else 1.5


def validate_config(cfg: ExperimentConfig) -> list[str]:
    """Return a list of violations; empty means the config is runnable."""
    if cfg.task not in TASKS:
        return [f"unknown task {cfg.task!r}"]
    reads = TASKS[cfg.task].reads
    bad = []
    if "seed" in reads and cfg.seed < 0:
        bad.append("seed must be >= 0")
    if "n" in reads and (cfg.n < 1 or cfg.d < 1):
        bad.append("n and d must be >= 1")
    if "iters" in reads and cfg.iters < 1:
        bad.append("iteration budget must be >= 1")
    if cfg.task in ("augustin", "classical"):
        if not (math.isfinite(cfg.alpha) and cfg.alpha > 0 and cfg.alpha != 1):
            bad.append(f"order {cfg.alpha} outside (0,1)u(1,inf)")
    if cfg.task == "capacity":
        if not (0.5 < cfg.alpha < 1.0):
            bad.append(f"capacity requires order in (1/2,1); got {cfg.alpha}")
        if cfg.outer_steps < 1:
            bad.append("outer_steps must be >= 1")
        if not 0 < cfg.inner_eps < math.inf:
            bad.append("inner_eps must be positive and finite")
    if cfg.task == "fisher":
        if not (0 < cfg.rho_min <= cfg.rho_max < 1):
            bad.append("need 0 < rho_min <= rho_max < 1")
        if not (cfg.rho_max <= cfg.rho_hat < 1):
            bad.append(f"seller bound {cfg.rho_hat} must lie in [max elasticity, 1)")
        if cfg.schedule not in SCHEDULES:
            bad.append(f"unknown schedule {cfg.schedule!r}")
        if cfg.epochs < 1:
            bad.append("epochs must be >= 1")
        if cfg.buyers < 1 or cfg.goods < 1:
            bad.append("buyers and goods must be >= 1")
    if cfg.task == "divergence_demo":
        if cfg.polyak_steps < 1:
            bad.append("polyak_steps must be >= 1")
        # the grid's (r+1)(r+2)/2 points are held at once: a run peaks near 325 MB at 2000
        if not 3 <= cfg.grid_resolution <= 2000:
            bad.append("grid_resolution must lie in [3, 2000]")
    return bad


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class Workspace:
    """Output directory plus the manifest accumulated while a task runs."""

    def __init__(self, cfg: ExperimentConfig):
        self.dir = _resolve_out_dir(cfg)
        self.dir.mkdir(parents=True, exist_ok=True)
        self.cfg = cfg
        self.results: dict = {}
        self.began = perf_counter()

    def path(self, name: str) -> Path:
        return self.dir / name

    def finalize(self) -> Path:
        files = {}
        for p in sorted(self.dir.iterdir()):
            if p.name == "manifest.json" or p.is_dir():
                continue
            files[p.name] = {"sha256": _sha256(p), "bytes": p.stat().st_size}
        echoed = ("task", "out") + TASKS[self.cfg.task].reads
        manifest = {
            "config": {name: getattr(self.cfg, name) for name in echoed},
            "files": files,
            "wall_time_ms": (perf_counter() - self.began) * 1e3,
            "results": self.results,
        }
        out = self.path("manifest.json")
        out.write_text(json.dumps(manifest, indent=1, sort_keys=True))
        return out


def _resolve_out_dir(cfg: ExperimentConfig) -> Path:
    if cfg.out:
        return Path(cfg.out)
    env = os.environ.get(OUT_ENV)
    if env:
        return Path(env) / cfg.task
    return Path("runs") / cfg.task


# ---------------------------------------------------------------------------
# tasks
# ---------------------------------------------------------------------------


def run_counterexample(cfg: ExperimentConfig) -> int:
    ws = Workspace(cfg)
    alpha = COUNTEREXAMPLE_ORDER
    state = COUNTEREXAMPLE_STATE / np.trace(COUNTEREXAMPLE_STATE)
    problem = AugustinProblem.create([state.astype(complex)], [1.0], alpha)

    def one_shot(q):
        powered = matrix_power(hermitize(q), 1.0 - alpha)
        return matrix_power(augustin.apply_T_F(problem, powered), 1.0 / (1.0 - alpha))

    lhs = thompson_metric_psd(one_shot(COUNTEREXAMPLE_V), one_shot(COUNTEREXAMPLE_U))
    rhs = augustin.contraction_factor(alpha) * thompson_metric_psd(
        COUNTEREXAMPLE_V, COUNTEREXAMPLE_U
    )
    expected_lhs, expected_rhs = COUNTEREXAMPLE_EXPECTED
    ok = (
        abs(lhs - expected_lhs) <= 1e-3
        and abs(rhs - expected_rhs) <= 1e-3
        and lhs > rhs
    )
    print(f"one-shot image distance : {lhs:.6f} (expected {expected_lhs} +/- 1e-3)")
    print(f"contraction-ratio bound : {rhs:.6f} (expected {expected_rhs} +/- 1e-3)")
    print("PASS" if ok else "FAIL")
    ws.results = {"image_distance": lhs, "ratio_bound": rhs, "pass": ok}
    write_csv(
        ws.path("counterexample.csv"),
        ["quantity", "value"],
        [["image_distance", lhs], ["ratio_bound", rhs], ["exceeds", int(lhs > rhs)]],
    )
    ws.finalize()
    return 0 if ok else 3


def run_divergence_demo(cfg: ExperimentConfig) -> int:
    ws = Workspace(cfg)
    summary = {}
    for alpha in DEMO_ORDERS:
        problem = ClassicalAugustinProblem.create(DEMO_POINTS, DEMO_WEIGHTS, alpha)
        _, f_grid = oracles.grid_min_classical_augustin(problem, cfg.grid_resolution)
        polyak = augustin.emd_polyak_run(
            problem, steps=cfg.polyak_steps, f_best=f_grid - 1e-4
        )
        reference = polyak.best_point / polyak.best_point.sum()
        report = augustin.solve_petz_augustin(
            problem,
            max_iter=cfg.iters,
            residual_tol=0.0,
            reference=reference,
        )
        tag = f"alpha{alpha:g}".replace(".", "p")
        report.iterates.to_csv(ws.path(f"demo_{tag}_trace.csv"))
        f_ref = objective_f(problem, reference)
        write_csv(
            ws.path(f"demo_{tag}_errors.csv"),
            ["step", "opt_error", "iterate_error"],
            [
                [row.step, row.f_value - f_ref, row.dist_to_reference]
                for row in report.iterates
            ],
        )
        # The separation compares the returned points; the sweep's best-ever
        # value can be a transient it passes on the way into oscillation.
        best_proposed = min(row.f_value for row in report.iterates)
        final_proposed = objective_f(problem, report.final)
        separation = final_proposed - polyak.best_value
        summary[str(alpha)] = {
            "grid_min": f_grid,
            "polyak_best": polyak.best_value,
            "proposed_best": best_proposed,
            "proposed_final": final_proposed,
            "separation": separation,
            "stop_reason": report.stop_reason,
            "steps_recorded": len(report.iterates) - 1,
        }
        print(
            f"alpha={alpha}: sweep final {final_proposed:.8f} (best-ever {best_proposed:.8f}), "
            f"adaptive-step reference best {polyak.best_value:.8f}, separation {separation:.3e}"
        )
    ws.results = summary
    ws.finalize()
    return 0


def run_fixed_point(cfg: ExperimentConfig) -> int:
    ws = Workspace(cfg)
    weights = np.full(cfg.n, 1.0 / cfg.n)
    if cfg.task == "augustin":
        states = random_density_ensemble(cfg.seed, cfg.n, cfg.d)
        problem = AugustinProblem.create(states, weights, cfg.alpha)
    else:
        points = np.random.default_rng(cfg.seed).dirichlet(np.ones(cfg.d), size=cfg.n)
        problem = ClassicalAugustinProblem.create(points, weights, cfg.alpha)
    reference_report = augustin.solve_petz_augustin(problem, max_iter=200, residual_tol=1e-12)
    began = perf_counter()
    report = augustin.solve_petz_augustin(
        problem,
        max_iter=cfg.iters,
        residual_tol=0.0,
        reference=reference_report.final,
    )
    elapsed = (perf_counter() - began) * 1e3
    tag = f"{cfg.task}_alpha{cfg.alpha:g}".replace(".", "p")
    report.iterates.to_csv(ws.path(f"{tag}_trace.csv"))
    f_ref = reference_report.iterates.rows[-1].f_value
    write_csv(
        ws.path(f"{tag}_errors.csv"),
        ["step", "opt_error", "iterate_error"],
        [[r.step, r.f_value - f_ref, r.dist_to_reference] for r in report.iterates],
    )
    ws.results = {
        "stop_reason": report.stop_reason,
        "reference_stop_reason": reference_report.stop_reason,
        "distance_bound": report.distance_bound,
        "rejected_mixes": report.rejected_mixes,
        "final_f": report.iterates.rows[-1].f_value,
        "reference_f": f_ref,
        "wall_time_ms": elapsed,
    }
    ws.finalize()
    return 0


def run_capacity(cfg: ExperimentConfig) -> int:
    ws = Workspace(cfg)
    states = random_density_ensemble(cfg.seed, cfg.n, cfg.d)
    problem = capacity.CapacityProblem.create(states, cfg.alpha)
    report = capacity.solve_capacity(problem, cfg.outer_steps, cfg.inner_eps)
    report.write_csv(ws.path("capacity_trace.csv"))
    ws.results = {
        "c_hat": report.c_hat,
        "certificate": report.certificate,
        "eps_budget": report.eps_budget,
        "w_final": report.w_final.tolist(),
        "inner_sweeps": sum(s.inner_iters for s in report.states),
    }
    print(f"capacity estimate {report.c_hat:.10f} (rate certificate {report.certificate:.3e})")
    ws.finalize()
    return 0


def _build_market(cfg: ExperimentConfig) -> fisher.FisherMarket:
    rng = np.random.default_rng(cfg.seed)
    valuations = rng.dirichlet(np.ones(cfg.goods), size=cfg.buyers)
    budgets = rng.dirichlet(np.ones(cfg.buyers))
    rho = rng.uniform(cfg.rho_min, cfg.rho_max, size=cfg.buyers)
    rho_hat = np.full(cfg.goods, cfg.rho_hat)
    return fisher.FisherMarket.create(valuations, budgets, rho, rho_hat)


def _build_schedule(cfg: ExperimentConfig, d: int) -> fisher.UpdateSchedule:
    if cfg.schedule == "synchronous":
        return fisher.UpdateSchedule.synchronous(d, cfg.epochs)
    if cfg.schedule == "round-robin":
        return fisher.UpdateSchedule.round_robin(d, cfg.epochs * d)
    return fisher.UpdateSchedule.random_coverage(d, cfg.epochs, cfg.seed)


def run_fisher(cfg: ExperimentConfig) -> int:
    ws = Workspace(cfg)
    market = _build_market(cfg)
    (ws.path("market.json")).write_text(json.dumps(market.to_json(), indent=1))
    p_star = fisher.equilibrium_prices(market)
    schedule = _build_schedule(cfg, market.d_goods)
    (ws.path("schedule.json")).write_text(json.dumps(schedule.to_json()))
    p1 = np.full(market.d_goods, 1.0 / market.d_goods)
    states, boundaries = fisher.run_schedule(market, p1, schedule)
    rows = []
    for state in states:
        epoch_index = sum(1 for b in boundaries if b <= state.step)
        rows.append(
            [
                state.step,
                thompson_metric_vec(p_star, state.p),
                float(np.abs(fisher.total_demand(market, state.p) - 1.0).max()),
                epoch_index,
            ]
        )
    write_csv(
        ws.path("fisher_trace.csv"),
        ["round", "d_T_to_eq", "max_excess_demand", "epoch_index"],
        rows,
    )
    contraction = market.rho_hat_max
    d1 = thompson_metric_vec(p_star, p1)
    ws.results = {
        "epochs_completed": len(boundaries),
        "rounds": len(schedule.rounds),
        "d_T_start": d1,
        "d_T_final": rows[-1][1],
        "per_epoch_bound": contraction,
        "equilibrium_residual": float(
            np.abs(fisher.total_demand(market, p_star) - 1.0).max()
        ),
    }
    print(
        f"{len(schedule.rounds)} rounds, {len(boundaries)} epochs; distance "
        f"{d1:.4f} -> {rows[-1][1]:.3e} (bound factor {contraction}/epoch)"
    )
    ws.finalize()
    return 0


# ---------------------------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------------------------


class Task(NamedTuple):
    run: Callable[[ExperimentConfig], int]
    help: str
    reads: tuple[str, ...]  # the ExperimentConfig fields the runner reads


FIXED_POINT = ("seed", "n", "d", "alpha", "iters")
TASKS = {
    "augustin": Task(run_fixed_point, "fixed-point run on random density matrices", FIXED_POINT),
    "classical": Task(
        run_fixed_point, "fixed-point run on random probability vectors", FIXED_POINT
    ),
    "capacity": Task(
        run_capacity, "entropic mirror descent over input weights",
        ("seed", "n", "d", "alpha", "outer_steps", "inner_eps"),
    ),
    "fisher": Task(
        run_fisher, "asynchronous price updates in a CES market",
        ("seed", "buyers", "goods", "rho_min", "rho_max", "rho_hat", "epochs", "schedule"),
    ),
    "counterexample": Task(run_counterexample, "reproduce the 2x2 non-contraction instance", ()),
    "divergence_demo": Task(
        run_divergence_demo, "3x3 instance where small orders fail to converge",
        ("iters", "polyak_steps", "grid_resolution"),
    ),
}


def _load_config(task: str, args: argparse.Namespace) -> ExperimentConfig:
    reads = TASKS[task].reads
    payload = {}
    if args.config:
        payload = json.loads(Path(args.config).read_text())
        if not isinstance(payload, dict):
            raise InvalidInput("the config file must hold one JSON object")
        payload.pop("task", None)
    unknown = set(payload) - set(reads) - {"out"}
    if unknown:
        raise InvalidInput(f"config keys {task} does not read: {sorted(unknown)}")
    for name, value in payload.items():
        # A file value must have the type its flag parses to; an integer
        # stands for a float, as it does on the command line.
        want = str if name == "out" else _flag_type(name)
        if want is float and type(value) is int:
            payload[name] = float(value)
        elif type(value) is not want:
            raise InvalidInput(f"config key {name!r} must be {want.__name__}, got {value!r}")
    cfg = ExperimentConfig(task=task, **payload)
    for name in reads + ("out",):
        value = getattr(args, name)
        if value is not None:
            setattr(cfg, name, value)
    return cfg


def _flag_type(name: str) -> type:
    """The type a task's flag for config field ``name`` parses to."""
    return type(getattr(ExperimentConfig(), name))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="augustin-lab",
        description="Fixed-point and mirror-descent experiments on divergence means, "
        "capacities, and market equilibria.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for task, spec in TASKS.items():
        p = sub.add_parser(task.replace("_", "-"), help=spec.help)
        p.add_argument("--config", help="JSON file of this task's keys; flags override it")
        for name in spec.reads:
            p.add_argument(
                "--" + name.replace("_", "-"),
                dest=name,
                type=_flag_type(name),
                choices=SCHEDULES if name == "schedule" else None,
            )
        p.add_argument("--out", help=f"output directory (or set ${OUT_ENV})")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    task = args.command.replace("-", "_")
    try:
        cfg = _load_config(task, args)
    except (InvalidInput, json.JSONDecodeError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    violations = validate_config(cfg)
    if violations:
        for v in violations:
            print(f"config error: {v}", file=sys.stderr)
        return 2
    try:
        return TASKS[task].run(cfg)
    except AugustinLabError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
