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
