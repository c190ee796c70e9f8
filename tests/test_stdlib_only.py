"""The runtime package imports nothing but the standard library and itself."""

import ast
import sys
from pathlib import Path

import spunslice

PACKAGE = Path(spunslice.__file__).resolve().parent


def _imported_top_level_modules(path: Path):
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.partition(".")[0]


def test_the_runtime_imports_only_the_standard_library():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert PACKAGE / "groups" / "finite.py" in modules
    foreign = [
        f"{path.relative_to(PACKAGE)}: {name}"
        for path in modules
        for name in _imported_top_level_modules(path)
        if name not in sys.stdlib_module_names and name != "spunslice"
    ]
    assert foreign == []
