"""Code that only the tests run belongs in tests/, not in the package: every
top-level function and class of ``augustin_lab`` must be read by the package
itself, the scripts or the benchmark."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "augustin_lab"

# The paper's public API for the divergence, the objective, the inexact
# oracle and the market potential: the library's callers read these.
PUBLIC_API = {"petz_renyi_divergence", "objective_F", "approx_oracle", "potential"}


def names_read(node):
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr


def traced_targets(tree):
    """Each name in the dotted ``TARGETS`` strings of perfbench/tracer.py."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets
        ):
            for _, qualname in ast.literal_eval(node.value):
                yield from qualname.split(".")


def test_every_package_definition_is_read_outside_tests():
    defined = set()
    read = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add(node.name)
                # a definition's own body does not count as its reader
                read.update(n for n in names_read(node) if n != node.name)
            else:
                read.update(names_read(node))
    for path in sorted([*(ROOT / "scripts").glob("*.py"), *(ROOT / "perfbench").glob("*.py")]):
        tree = ast.parse(path.read_text())
        read.update(names_read(tree))
        read.update(traced_targets(tree))
    assert sorted(defined - read - PUBLIC_API) == []
    assert PUBLIC_API <= defined
