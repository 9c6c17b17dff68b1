"""Span recorder that wraps library functions at their module boundaries.

Modules of the library import names directly (``from .linalg import
hermitian_eig``), so a function is patched under every module attribute that
holds it, in the name the caller looks up.  Methods and classmethods are
patched on their class.  Each call records its duration and its self time:
the duration minus the part covered by wrapped calls made inside it.
Nothing inside the library changes; ``uninstall`` puts every original back.
"""

from __future__ import annotations

import functools
import importlib
import sys
from array import array
from time import perf_counter_ns

# (layer, qualified name) of every wrapped function; the layer is the module
# that defines it.
TARGETS = (
    ("divergences", "AugustinProblem.create"),
    ("divergences", "divergence_from_pairing"),
    ("linalg", "hermitian_eig"),
    ("linalg", "Spectrum.apply"),
    ("linalg", "thompson_metric_psd"),
    ("linalg", "hermitize"),
    ("linalg", "matrix_power"),
    ("augustin", "solve_petz_augustin"),
    ("augustin", "initial_state"),
    ("augustin", "petz_augustin_step"),
    ("capacity", "CapacityProblem.create"),
    ("capacity", "approx_oracle_detailed"),
    ("capacity", "mirror_update"),
    ("fisher", "FisherMarket.create"),
    ("fisher", "equilibrium_prices"),
    ("fisher", "run_schedule"),
    ("fisher", "tatonnement_step"),
    ("fisher", "total_demand"),
    ("fisher", "buyer_demand"),
)

PACKAGE = "augustin_lab"


def tail_index(n: int) -> int:
    """Index, in n sorted samples, of the highest percentile with at least ten
    samples beyond it, and never below the median."""
    return max(n - 11, n // 2)


class Stats:
    """Durations and summed self time of one wrapped function, in ns."""

    def __init__(self) -> None:
        self.durations = array("q")
        self.self_ns = 0

    def summary(self, passes: int) -> dict[str, float]:
        """calls, busy_ms and self_ms per pass; p50_us and tail_us per call."""
        n = len(self.durations)
        if n == 0:
            return {"calls": 0, "busy_ms": 0.0, "self_ms": 0.0, "p50_us": 0.0, "tail_us": 0.0}
        ordered = sorted(self.durations)
        mid = (ordered[(n - 1) // 2] + ordered[n // 2]) / 2
        return {
            "calls": n / passes,
            "busy_ms": sum(ordered) / passes / 1e6,
            "self_ms": self.self_ns / passes / 1e6,
            "p50_us": mid / 1e3,
            "tail_us": ordered[tail_index(n)] / 1e3,
        }


class Tracer:
    """Install with ``install()``, read ``stats``, then ``uninstall()``."""

    def __init__(self) -> None:
        self.stats = {f"{layer}.{qual}": Stats() for layer, qual in TARGETS}
        self._stack: list[list[int]] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, key: str, fn):
        stats = self.stats[key]
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [0]
            stack.append(frame)
            began = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                took = perf_counter_ns() - began
                stack.pop()
                if stack:
                    stack[-1][0] += took
                stats.durations.append(took)
                stats.self_ns += took - frame[0]

        return traced

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer is already installed")
        modules = [
            m for name, m in sorted(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]
        for layer, qual in TARGETS:
            home = importlib.import_module(f"{PACKAGE}.{layer}")
            key = f"{layer}.{qual}"
            if "." in qual:
                cls_name, attr = qual.split(".")
                cls = getattr(home, cls_name)
                original = cls.__dict__[attr]
                if isinstance(original, classmethod):
                    wrapped = classmethod(self._wrap(key, original.__func__))
                else:
                    wrapped = self._wrap(key, original)
                self._patches.append((cls, attr, original))
                setattr(cls, attr, wrapped)
                continue
            original = getattr(home, qual)
            wrapped = self._wrap(key, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, attr, original))
                        setattr(module, attr, wrapped)

    def uninstall(self) -> list[str]:
        """Restore every original; return the names that did not come back."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        lost = [
            f"{getattr(owner, '__name__', owner)}.{attr}"
            for owner, attr, original in self._patches
            if vars(owner).get(attr) is not original
        ]
        self._patches.clear()
        return lost
