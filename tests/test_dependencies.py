"""What src/lsg may rely on and what it may keep: imports of numpy and the
standard library only, as pyproject.toml declares, and no option or name
that only the tests use."""

import ast
import importlib
import sys
from pathlib import Path

import lsg

_ALLOWED = sys.stdlib_module_names | {"numpy"}
_SRC = sorted(Path(lsg.__file__).parent.glob("*.py"))
_BENCHMARK = sorted(
    p for p in (Path(__file__).resolve().parents[1] / "benchmark").glob("*.py")
    if not p.name.startswith("test_"))


def _parsed(paths):
    """(path, module AST) for each path."""
    return [(p, ast.parse(p.read_text(encoding="utf-8"))) for p in paths]


def test_lsg_imports_only_the_standard_library_and_numpy():
    foreign = []
    for path, tree in _parsed(_SRC):
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            foreign += [f"{path.name}:{node.lineno} {name}" for name in names
                        if name.split(".")[0] not in _ALLOWED]
    assert foreign == []


# Optional parameters that no call in src/lsg or benchmark/ sets, each kept
# on purpose; every other option must have a caller that needs it.
_UNSET_ON_PURPOSE = {
    # the tests' only way to reach UnderResolvedPhase and small rank-3 grids
    "group_propagate_spectral.spectral_grid",
    # spectral tails are to get their own tolerance (ROADMAP item 1)
    "require_tail.tol",
    # sys.argv[1:] unless a caller passes its own
    "main.argv",
}


def _functions(tree):
    """(function node, is a method, is nested in a function) for each def."""
    found = []

    def visit(node, in_class, in_function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found.append((child, in_class, in_function))
                visit(child, False, True)
            else:
                visit(child, in_class or isinstance(child, ast.ClassDef),
                      in_function)
    visit(tree, False, False)
    return found


def _options(fn, is_method):
    """(positional index or None, name, default) of each optional parameter."""
    args = fn.args
    positional = args.posonlyargs + args.args
    if is_method and positional and positional[0].arg in ("self", "cls"):
        positional = positional[1:]
    first = len(positional) - len(args.defaults)
    yield from ((first + i, a.arg, d) for i, (a, d) in
                enumerate(zip(positional[first:], args.defaults)))
    yield from ((None, a.arg, d) for a, d in
                zip(args.kwonlyargs, args.kw_defaults) if d is not None)


def _differs(value, default) -> bool:
    if ast.dump(value) == ast.dump(default):
        return False
    try:
        return ast.literal_eval(value) != ast.literal_eval(default)
    except ValueError:
        return True


def _sets(call, index, name, default) -> bool:
    """Whether a call may pass a value other than the default."""
    if any(isinstance(a, ast.Starred) for a in call.args):
        return True
    if any(k.arg is None or (k.arg == name and _differs(k.value, default))
           for k in call.keywords):
        return True
    return (index is not None and len(call.args) > index
            and _differs(call.args[index], default))


def test_every_option_is_set_outside_the_tests():
    """A parameter default that only the tests override is a constant with
    extra steps. Calls are matched by function name, so a name shared by two
    functions can only hide an unset option, never invent one."""
    src = _parsed(_SRC)
    calls: dict[str, list[ast.Call]] = {}
    for _, tree in src + _parsed(_BENCHMARK):
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = getattr(func, "id", getattr(func, "attr", None))
                calls.setdefault(name, []).append(node)
    unset = set()
    for _, tree in src:
        for fn, is_method, nested in _functions(tree):
            for index, name, default in _options(fn, is_method):
                if nested and isinstance(default, ast.Name):
                    continue    # a closure binding an enclosing variable
                if not any(_sets(call, index, name, default)
                           for call in calls.get(fn.name, [])):
                    unset.add(f"{fn.name}.{name}")
    assert unset == _UNSET_ON_PURPOSE


_CLOSED_FORM = ("group_propagate_closed_form", "euclidean_propagate")


def test_no_call_in_lsg_passes_out_grid_to_the_closed_form():
    """Inside src/lsg the closed form evolves on the input grid or on
    SCALED's own; FIXED onto another grid is the benchmark's alone, so
    taking `out_grid` away changes the benchmark and deletes code, nothing
    more. A call inside one of these functions only forwards its own
    `out_grid`."""
    src = _parsed(_SRC)
    option = {fn.name: (index, default) for _, tree in src
              for fn, is_method, _ in _functions(tree)
              if fn.name in _CLOSED_FORM
              for index, name, default in _options(fn, is_method)
              if name == "out_grid"}
    assert set(option) == set(_CLOSED_FORM)
    passing = []
    for path, tree in src:
        forwarding = {id(node) for fn, _, _ in _functions(tree)
                      if fn.name in option for node in ast.walk(fn)}
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call) or id(node) in forwarding:
                continue
            func = node.func
            name = getattr(func, "id", getattr(func, "attr", None))
            if name in option and _sets(node, option[name][0], "out_grid",
                                        option[name][1]):
                passing.append(f"{path.name}:{node.lineno} {name}")
    assert passing == []


# Names that nothing in src/lsg or benchmark/ refers to, each kept for the
# reason it names, which `test_every_uncalled_name_keeps_its_reason` checks:
# "advertised" is library surface that lsg/__init__ exports and README
# describes; "benchmark-bound" is a name the benchmark looks up by string,
# kept until the benchmark is realigned (ROADMAP item 3).
_UNCALLED_ON_PURPOSE = {
    "spherical_function": "advertised",
    "inverse_spherical_transform": "advertised",
    "density": "advertised",
    "dominant_representative": "advertised",
    "weighted_norm": "advertised",
    # benchmark/worker.py calibrates with it in set-up
    "calibrate_constant": "benchmark-bound",
    # tracer.TARGETS wraps it, and test_benchmark.py expects to find it
    "fourier_native": "benchmark-bound",
}


def _defined_names(path, tree):
    """(name, qualified name) of each module-level def and class, and of
    each method that is neither a dunder nor an override of an inherited
    attribute (as `_Parser.error` overrides argparse's)."""
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            continue
        yield node.name, node.name
        if isinstance(node, ast.ClassDef):
            module = importlib.import_module(f"lsg.{path.stem}")
            inherited = getattr(module, node.name).__mro__[1:]
            for fn in node.body:
                if (isinstance(fn, ast.FunctionDef)
                        and not (fn.name.startswith("__")
                                 and fn.name.endswith("__"))
                        and not any(hasattr(b, fn.name) for b in inherited)):
                    yield fn.name, f"{node.name}.{fn.name}"


def _module_references(path, tree):
    """(module stem, name) of each module-level name that an lsg module's
    code refers to: a loaded name, resolved through the module's relative
    imports (`from .grids import x as y`) or else to the module itself, and
    an attribute on a name bound to an lsg module (`from . import x`)."""
    imported, modules = {}, {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                if node.module is None:
                    modules[alias.asname or alias.name] = alias.name
                else:
                    imported[alias.asname or alias.name] = (node.module,
                                                            alias.name)
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found.add(imported.get(node.id, (path.stem, node.id)))
        elif (isinstance(node, ast.Attribute)
              and isinstance(node.value, ast.Name)
              and node.value.id in modules):
            found.add((modules[node.value.id], node.attr))
    return found


def test_every_name_has_a_caller():
    """A name that only the tests call belongs in the tests. A module-level
    def or class is referenced by a `_module_references` entry of a module
    of src/lsg other than __init__.py, which only re-exports; a method by
    an attribute of its name there. benchmark/'s own code refers to either
    by an identifier or attribute of its name. A string is not a
    reference, so a `getattr` or a tracer target keeps nothing alive."""
    referenced, attributes = set(), set()
    for path, tree in _parsed(_SRC):
        if path.name == "__init__.py":
            continue
        referenced |= _module_references(path, tree)
        attributes |= {node.attr for node in ast.walk(tree)
                       if isinstance(node, ast.Attribute)}
    benchmark = {getattr(node, "id", getattr(node, "attr", None))
                 for _, tree in _parsed(_BENCHMARK) for node in ast.walk(tree)}
    uncalled = {qualified for path, tree in _parsed(_SRC)
                for name, qualified in _defined_names(path, tree)
                if name not in benchmark
                and not ((path.stem, name) in referenced if name == qualified
                         else name in attributes)}
    assert uncalled == set(_UNCALLED_ON_PURPOSE)


def test_every_uncalled_name_keeps_its_reason():
    """An allow-list entry goes stale with its reason: an "advertised" name
    must be one lsg/__init__ exports, a "benchmark-bound" one must appear as
    a string in benchmark/'s own code."""
    init = ast.parse(Path(lsg.__file__).read_text(encoding="utf-8"))
    holds = {
        "advertised": {alias.name for node in ast.walk(init)
                       if isinstance(node, ast.ImportFrom)
                       for alias in node.names},
        "benchmark-bound": {node.value for _, tree in _parsed(_BENCHMARK)
                            for node in ast.walk(tree)
                            if isinstance(node, ast.Constant)
                            and isinstance(node.value, str)},
    }
    stale = {name for name, why in _UNCALLED_ON_PURPOSE.items()
             if name not in holds[why]}
    assert stale == set()
