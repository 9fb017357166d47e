"""Runtime dependencies stay numpy-only, as pyproject.toml declares."""

import ast
import sys
from pathlib import Path

import lsg

_ALLOWED = sys.stdlib_module_names | {"numpy"}


def test_lsg_imports_only_the_standard_library_and_numpy():
    foreign = []
    for path in sorted(Path(lsg.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
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
    src = sorted(Path(lsg.__file__).parent.glob("*.py"))
    benchmark = Path(__file__).resolve().parents[1] / "benchmark"
    callers = src + sorted(p for p in benchmark.glob("*.py")
                           if not p.name.startswith("test_"))
    calls: dict[str, list[ast.Call]] = {}
    for path in callers:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                func = node.func
                name = getattr(func, "id", getattr(func, "attr", None))
                calls.setdefault(name, []).append(node)
    unset = set()
    for path in src:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for fn, is_method, nested in _functions(tree):
            for index, name, default in _options(fn, is_method):
                if nested and isinstance(default, ast.Name):
                    continue    # a closure binding an enclosing variable
                if not any(_sets(call, index, name, default)
                           for call in calls.get(fn.name, [])):
                    unset.add(f"{fn.name}.{name}")
    assert unset == _UNSET_ON_PURPOSE
