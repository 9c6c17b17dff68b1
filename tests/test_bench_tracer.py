"""The traced benchmark run finds every function it wraps by name, so a
renamed or deleted target must fail here rather than in the benchmark."""

import importlib.util
from pathlib import Path

import augustin_lab.cli  # noqa: F401  (loads every module of the package)


def bench_tracer():
    path = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("bench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_installs_and_comes_back():
    tracer = bench_tracer().Tracer()
    try:
        tracer.install()  # a missing target raises here
    finally:
        lost = tracer.uninstall()
    assert lost == []
