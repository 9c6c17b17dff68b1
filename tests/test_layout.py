"""Code that only the tests run belongs in tests/, not in the package.

Everything ``augustin_lab`` defines must have a reader in the package itself,
the scripts or the benchmark:

* every top-level function and class is read by name;
* every dataclass or NamedTuple field is read, as an attribute or as a
  string that a module holding the name looks up through ``getattr``;
* every public method or property is read outside its own definition;
* every parameter with a default, on a public function or method, is passed
  by some call, by keyword or positionally past the required parameters.

``PUBLIC_API`` names the paper's entry points that the library's callers,
not its own code, read; they are exempt.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "augustin_lab"

# The paper's public API for the divergence, the objective, the inexact
# oracle and the market potential: the library's callers read these.
PUBLIC_API = {"petz_renyi_divergence", "objective_F", "approx_oracle", "potential"}


def parse(paths):
    return [ast.parse(path.read_text()) for path in sorted(paths)]


PACKAGE_TREES = parse(PACKAGE.glob("*.py"))
OUTSIDE_TREES = parse([*(ROOT / "scripts").glob("*.py"), *(ROOT / "perfbench").glob("*.py")])
READER_TREES = PACKAGE_TREES + OUTSIDE_TREES


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


def package_classes():
    for tree in PACKAGE_TREES:
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                yield node


def is_record(cls):
    """A dataclass or a NamedTuple."""
    decorators = [d.func if isinstance(d, ast.Call) else d for d in cls.decorator_list]
    bases = [*decorators, *cls.bases]
    return any(
        (isinstance(b, ast.Name) and b.id in ("dataclass", "NamedTuple"))
        or (isinstance(b, ast.Attribute) and b.attr in ("dataclass", "NamedTuple"))
        for b in bases
    )


def public_methods(cls):
    for node in cls.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            yield node


def with_enclosing(tree):
    """Each node of ``tree`` with the functions that enclose it."""
    stack = [(tree, ())]
    while stack:
        node, enclosing = stack.pop()
        yield node, enclosing
        if isinstance(node, ast.FunctionDef):
            enclosing = (*enclosing, node)
        stack.extend((child, enclosing) for child in ast.iter_child_nodes(node))


def attribute_loads():
    """(name, enclosing functions) of each attribute load of the readers."""
    return [
        (node.attr, enclosing)
        for tree in READER_TREES
        for node, enclosing in with_enclosing(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    ]


def getattr_strings(tree):
    """The identifier strings of a module that calls ``getattr``: tables such
    as ``CSV_COLUMNS`` and ``TASKS`` name the fields it reads."""
    looks_up = any(
        isinstance(n, ast.Call) and isinstance(n.func, ast.Name) and n.func.id == "getattr"
        for n in ast.walk(tree)
    )
    if looks_up:
        for n in ast.walk(tree):
            if isinstance(n, ast.Constant) and isinstance(n.value, str) and n.value.isidentifier():
                yield n.value


def import_aliases(tree):
    """``{asname: name}`` of the module's ``from ... import name as asname``."""
    return {
        a.asname: a.name
        for n in ast.walk(tree)
        if isinstance(n, ast.ImportFrom)
        for a in n.names
        if a.asname
    }


def calls():
    """(called name, call, enclosing functions) of each call of the readers
    to a plain name or an attribute, with import aliases resolved."""
    found = []
    for tree in READER_TREES:
        aliases = import_aliases(tree)
        for node, enclosing in with_enclosing(tree):
            if not isinstance(node, ast.Call):
                continue
            if isinstance(node.func, ast.Name):
                found.append((aliases.get(node.func.id, node.func.id), node, enclosing))
            elif isinstance(node.func, ast.Attribute):
                found.append((node.func.attr, node, enclosing))
    return found


def defaulted_parameters(fn, bound):
    """(position, name) of each parameter with a default; keyword-only ones
    have no position.  A method's first parameter is ``bound`` and skipped."""
    args = fn.args
    positional = [*args.posonlyargs, *args.args][1 if bound else 0 :]
    first = len(positional) - len(args.defaults)
    yield from ((i, a.arg) for i, a in enumerate(positional) if i >= first)
    yield from (
        (None, a.arg)
        for a, default in zip(args.kwonlyargs, args.kw_defaults)
        if default is not None
    )


def passes(call, position, name):
    if any(k.arg in (name, None) for k in call.keywords):  # None: a **mapping
        return True
    if position is None:
        return False
    return len(call.args) > position or any(isinstance(a, ast.Starred) for a in call.args)


def public_functions():
    """(function, bound) of every public function and public method."""
    for tree in PACKAGE_TREES:
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                yield node, False
            elif isinstance(node, ast.ClassDef):
                for method in public_methods(node):
                    static = any(
                        isinstance(d, ast.Name) and d.id == "staticmethod"
                        for d in method.decorator_list
                    )
                    yield method, not static


def test_every_package_definition_is_read_outside_tests():
    defined = set()
    read = set()
    for tree in PACKAGE_TREES:
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add(node.name)
                # a definition's own body does not count as its reader
                read.update(n for n in names_read(node) if n != node.name)
            else:
                read.update(names_read(node))
    for tree in OUTSIDE_TREES:
        read.update(names_read(tree))
        read.update(traced_targets(tree))
    assert sorted(defined - read - PUBLIC_API) == []
    assert PUBLIC_API <= defined


def test_every_record_field_is_read():
    read = {name for name, _ in attribute_loads()}
    for tree in READER_TREES:
        read.update(getattr_strings(tree))
    unread = [
        f"{cls.name}.{field.target.id}"
        for cls in package_classes()
        if is_record(cls)
        for field in cls.body
        if isinstance(field, ast.AnnAssign) and field.target.id not in read
    ]
    assert unread == []


def test_every_public_method_is_read_outside_its_definition():
    loads = attribute_loads()
    traced = {name for tree in OUTSIDE_TREES for name in traced_targets(tree)}
    unread = [
        f"{cls.name}.{method.name}"
        for cls in package_classes()
        for method in public_methods(cls)
        if method.name not in traced
        and not any(name == method.name and method not in within for name, within in loads)
    ]
    assert unread == []


def test_every_defaulted_parameter_is_passed():
    found = calls()
    unpassed = []
    for fn, bound in public_functions():
        if fn.name in PUBLIC_API:
            continue
        callers = [call for name, call, within in found if name == fn.name and fn not in within]
        unpassed += [
            f"{fn.name}({name})"
            for position, name in defaulted_parameters(fn, bound)
            if not any(passes(call, position, name) for call in callers)
        ]
    assert unpassed == []
