"""Benchmark of augustin-lab: one workload, end to end or traced per layer.

    python3 perfbench/run.py --workload solve-d128 --seed 0 --seconds 30 --trace 0

Run it from the repository root.  The library is imported from the ``src/``
directory beside this one, never from an installed copy.  The workload's task
set is generated from ``--seed`` and repeated in whole passes until
``--seconds`` have elapsed.  ``--trace 0`` prints the end-to-end metrics.
``--trace 1`` follows every untraced pass with a traced one, then prints the
per-layer metrics and the tracing overhead.
The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; the line before it records the environment.
"""

from __future__ import annotations

import os
import sys

# numpy and scipy each bring their own OpenBLAS build, and each starts a
# thread pool; on a small machine the two pools thrash each other.  Pin every
# pool to one thread before numpy is imported, and keep the inherited values.
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
INHERITED_THREADS = {name: os.environ.get(name) for name in THREAD_VARS}
PINNED_BEFORE_NUMPY = "numpy" not in sys.modules
for _name in THREAD_VARS:
    os.environ[_name] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _import_library():
    if not (SRC / "augustin_lab" / "__init__.py").is_file():
        sys.exit(f"error: no library source at {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import augustin_lab

    if Path(augustin_lab.__file__).resolve().parent != SRC / "augustin_lab":
        sys.exit(f"error: augustin_lab was imported from {augustin_lab.__file__}, not {SRC}")
    import tracer
    import workloads

    return workloads, tracer


# ---------------------------------------------------------------------------
# environment record
# ---------------------------------------------------------------------------


def _blas(show_config) -> dict:
    deps = show_config(mode="dicts").get("Build Dependencies", {})
    blas = deps.get("blas", {})
    return {
        "name": blas.get("name"),
        "version": blas.get("version"),
        "configuration": blas.get("openblas configuration"),
    }


def _git_revision() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "augustin_lab").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _cpu_model() -> str | None:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def environment(args) -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": _blas(numpy.show_config),
        "scipy_blas": _blas(scipy.show_config),
        "threads_inherited": INHERITED_THREADS,
        "threads_in_effect": {name: os.environ.get(name) for name in THREAD_VARS},
        "threads_pinned_before_numpy": PINNED_BEFORE_NUMPY,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "platform": platform.platform(),
        "git_revision": _git_revision(),
        "source_sha256": _source_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


# ---------------------------------------------------------------------------
# running passes
# ---------------------------------------------------------------------------


def run_pass(workloads, tasks) -> list:
    outcomes = []
    for task in tasks:
        t0 = perf_counter()
        try:
            outcome = task()
        except Exception as exc:  # a raising task is a failed task
            outcome = workloads.Outcome(
                name=task.name,
                wall_s=perf_counter() - t0,
                create_s=0.0,
                stop=f"raised {type(exc).__name__}: {exc}",
            )
        outcomes.append(outcome)
    return outcomes


def measure(workloads, tasks, seconds: float, recorder=None):
    """Repeat whole passes of the task set until ``seconds`` have passed.

    With a recorder, every untraced pass is followed by a traced one, so the
    two kinds of pass see the same machine conditions.  Returns the untraced
    passes, the traced passes and the names the recorder failed to restore.
    """
    plain, traced, lost = [], [], []
    began = perf_counter()
    while not plain or perf_counter() - began < seconds:
        plain.append(run_pass(workloads, tasks))
        if recorder is not None:
            recorder.install()
            try:
                traced.append(run_pass(workloads, tasks))
            finally:
                lost += recorder.uninstall()
    return plain, traced, lost


def end_to_end(workload: str, passes: list[list]) -> tuple[dict, list[float]]:
    """The end-to-end metrics and the task times they came from.

    Per-pass figures are medians over passes; a failed task's time is +inf.
    """
    walls = [
        o.wall_s if o.succeeded(workload) else math.inf for outcomes in passes for o in outcomes
    ]
    return {
        "setup_s": statistics.median(sum(o.create_s for o in p) for p in passes),
        "solves_per_s": statistics.median(
            sum(o.succeeded(workload) for o in p) / sum(o.wall_s for o in p) for p in passes
        ),
        "task_p50_s": statistics.median(walls),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }, walls


def report_counts(passes: list[list]) -> dict:
    """Work counts read from the returned reports, per pass."""
    total: dict[str, float] = {}
    for outcomes in passes:
        for o in outcomes:
            for key, value in o.counts.items():
                total[key] = total.get(key, 0) + value
    per = {k: v / len(passes) for k, v in total.items()}
    sweeps = per.get("sweeps", 0)
    inner = per.get("inner_sweeps", 0)
    return {
        "augustin.sweeps": sweeps,
        "augustin.sweeps_per_solve": sweeps / per["solves"] if per.get("solves") else 0.0,
        "augustin.stalled_sweep_ratio": per.get("stalled", 0) / sweeps if sweeps else 0.0,
        "capacity.inner_sweeps": inner,
        "capacity.inner_sweeps_per_call": inner / per["oracle_calls"] if inner else 0.0,
        "fisher.rounds": per.get("rounds", 0),
    }


PER_LAYER_UNITS = {"calls": "count", "busy_ms": "ms", "self_ms": "ms", "p50_us": "us", "tail_us": "us"}
COUNT_UNITS = {
    "augustin.sweeps": "count",
    "augustin.sweeps_per_solve": "count",
    "augustin.stalled_sweep_ratio": "ratio",
    "capacity.inner_sweeps": "count",
    "capacity.inner_sweeps_per_call": "count",
    "fisher.rounds": "count",
}
END_TO_END_UNITS = {"setup_s": "s", "solves_per_s": "1/s", "task_p50_s": "s", "peak_rss_mb": "MB"}


def main(argv=None) -> int:
    workloads, tracer = _import_library()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")

    tasks = workloads.WORKLOADS[args.workload](args.seed)
    recorder = tracer.Tracer() if args.trace else None
    passes, traced, lost = measure(workloads, tasks, args.seconds, recorder)
    everything = [o for p in passes + traced for o in p]
    problems = [f"{o.name}: {failure}" for o in everything for failure in o.check_failures]
    problems += [f"original not restored: {name}" for name in lost]
    attempted = len(everything)
    failed = sum(not o.succeeded(args.workload) for o in everything)
    metrics, walls = end_to_end(args.workload, passes)

    ordered = sorted(walls)
    tail = tracer.tail_index(len(ordered))
    print(
        f"{args.workload} seed {args.seed}: {len(passes)} passes of {len(tasks)} tasks, "
        f"fail_ratio {failed / attempted:.4f} ({failed}/{attempted})"
    )
    for name, value in metrics.items():
        print(f"  {name:<14} {value:.6g} {END_TO_END_UNITS[name]}")
    print(
        f"  task_p{100 * (tail + 1) / len(ordered):.0f}_s  {ordered[tail]:.6g} s "
        f"over {len(ordered)} tasks"
    )
    for o in passes[0]:
        if not o.succeeded(args.workload):
            print(f"  failed in the first pass: {o.name} {o.stop}")
    print("  pass seconds " + " ".join(f"{sum(o.wall_s for o in p):.3f}" for p in passes))

    if args.trace:
        reference = [o.fingerprint for o in passes[0]]
        if any([o.fingerprint for o in p] != reference for p in traced):
            problems.append("traced outputs differ from untraced outputs")
        traced_metrics, _ = end_to_end(args.workload, traced)
        layer = {}
        for key, stats in recorder.stats.items():
            for stat, value in stats.summary(len(traced)).items():
                layer[f"{key}.{stat}"] = (value, PER_LAYER_UNITS[stat])
        for key, value in report_counts(traced).items():
            layer[key] = (value, COUNT_UNITS[key])
        lost_rate = metrics["solves_per_s"] - traced_metrics["solves_per_s"]
        layer["tracing.solves_per_s_lost"] = (lost_rate, "1/s")
        print(
            f"  traced: {len(traced)} passes, solves_per_s {traced_metrics['solves_per_s']:.6g} 1/s, "
            f"{lost_rate:.6g} 1/s below the untraced passes"
        )
        result = {name: {"value": v, "unit": u} for name, (v, u) in layer.items()}
    else:
        result = {name: {"value": v, "unit": END_TO_END_UNITS[name]} for name, v in metrics.items()}

    for problem in problems:
        print(f"  CHECK FAILED {problem}")
    print(json.dumps({"env": environment(args)}))
    print(
        json.dumps(
            {"correct": not problems, "attempted": attempted, "failed": failed, "metrics": result}
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
