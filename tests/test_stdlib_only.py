"""The runtime package imports nothing but the standard library and itself,
and neither `dataclasses` nor, at import, `traceback`; integer elimination
lives in `groups/snf.py` alone,
`decker.__all__` names only what the rest of the runtime or the bench uses,
every top-level function or method of the runtime has a caller outside
its own body, every entry point the traced bench wraps exists, the package
files import nothing, and importing the cli loads every module the bench
reads but not `render`."""

import ast
import importlib.util
import re
import subprocess
import sys
from pathlib import Path

import spunslice

from spunslice import decker

PACKAGE = Path(spunslice.__file__).resolve().parent
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


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


def test_no_runtime_module_imports_dataclasses():
    # an @dataclass execs generated source in every process that imports
    # its module; records are NamedTuples or `diagrams.Record` classes
    offenders = [
        str(path.relative_to(PACKAGE))
        for path in sorted(PACKAGE.rglob("*.py"))
        if "dataclasses" in _imported_top_level_modules(path)
    ]
    assert offenders == []


def test_importing_the_package_and_cli_leaves_dataclasses_and_traceback_unloaded():
    # -S: no site hooks, so only the package's own imports count
    code = (
        f"import sys; sys.path.insert(0, {str(PACKAGE.parent)!r}); "
        "import spunslice, spunslice.cli; "
        "print(sorted({'dataclasses', 'traceback'} & set(sys.modules)))"
    )
    out = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def _names_and_imports(path: Path):
    """Every name, attribute, definition and imported name in the module,
    and the dotted modules it imports from, relative imports resolved."""
    package = ".".join(("spunslice",) + path.relative_to(PACKAGE).parent.parts)
    names, modules = set(), set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Import):
            modules.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = package.rsplit(".", node.level - 1)[0] if node.level else ""
            module = ".".join(filter(None, (base, node.module)))
            names.update(alias.name for alias in node.names)
            modules.update(f"{module}.{alias.name}" for alias in node.names)
    return names, modules


def test_integer_elimination_lives_in_snf_alone():
    # the signed determinant is groups.snf.determinant: covers.py keeps the
    # constructions, and no other module reaches into the eliminator or takes
    # a sign from groups.finite's permutations
    core = {"eliminate_unit_pivots", "_bareiss"}
    snf = PACKAGE / "groups" / "snf.py"
    assert core <= _names_and_imports(snf)[0]
    outside = [
        f"{path.relative_to(PACKAGE)}: {name}"
        for path in sorted(PACKAGE.rglob("*.py")) if path != snf
        for name in sorted(core & _names_and_imports(path)[0])
    ]
    assert outside == []
    covers_imports = _names_and_imports(PACKAGE / "covers.py")[1]
    assert "spunslice.groups.snf.determinant" in covers_imports
    assert [m for m in covers_imports if m.startswith("spunslice.groups.finite")] == []


def test_every_name_decker_exports_is_used_outside_the_module():
    # helpers that only tests call belong in tests/conftest.py
    assert (PERFBENCH / "spans.py").is_file()
    texts = [
        path.read_text()
        for path in sorted(PACKAGE.rglob("*.py")) + sorted(PERFBENCH.rglob("*.py"))
        + sorted(PERFBENCH.rglob("*.md"))
        if path != PACKAGE / "decker.py"
    ]
    unused = [
        name for name in decker.__all__
        if not any(re.search(rf"\b{name}\b", text) for text in texts)
    ]
    assert unused == []


def _definitions(tree: ast.Module):
    """Top-level functions and the non-dunder methods of top-level classes."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield node
        elif isinstance(node, ast.ClassDef):
            yield from (
                item for item in node.body
                if isinstance(item, ast.FunctionDef)
                and not (item.name.startswith("__") and item.name.endswith("__"))
            )


def test_every_runtime_function_is_referenced_outside_its_own_body():
    # a reference is a name or attribute in runtime code (an import is not
    # one), or a word in a perfbench/ file; helpers that only tests call
    # belong in tests/conftest.py
    trees = {
        path: ast.parse(path.read_text(), filename=str(path))
        for path in sorted(PACKAGE.rglob("*.py"))
    }
    references = [
        (path, node.id if isinstance(node, ast.Name) else node.attr, node.lineno)
        for path, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    ]
    bench = [
        path.read_text()
        for path in sorted(PERFBENCH.rglob("*.py")) + sorted(PERFBENCH.rglob("*.md"))
    ]
    unreferenced = [
        f"{path.relative_to(PACKAGE)}: {d.name}"
        for path, tree in trees.items()
        for d in _definitions(tree)
        if not any(
            name == d.name and not (where == path and d.lineno <= line <= d.end_lineno)
            for where, name, line in references
        )
        and not any(re.search(rf"\b{d.name}\b", text) for text in bench)
    ]
    assert unreferenced == []


def test_every_entry_point_the_traced_bench_wraps_exists():
    # spans.install reads vars(owner)[attr]: a renamed target would pass
    # every other test and then stop the traced bench with a KeyError
    spec = importlib.util.spec_from_file_location("perfbench_spans", PERFBENCH / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    targets = spans._targets()
    assert targets
    missing = [
        f"{owner.__name__}.{attr}" for owner, attr, _name, _hook in targets
        if attr not in vars(owner)
    ]
    assert missing == []


def _fresh(statement: str, expression: str):
    """The value of a literal expression after the statement, in a fresh
    interpreter; -S: no site hooks, so only the package's own imports count."""
    code = f"import sys; sys.path.insert(0, {str(PACKAGE.parent)!r}); {statement}; print({expression})"
    out = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True, check=True)
    return ast.literal_eval(out.stdout)


_LOADED = "sorted(m for m in sys.modules if m.split('.')[0] == 'spunslice')"


def test_the_package_files_import_nothing():
    # every name is imported from the module that defines it, so importing
    # one module runs no other through a package facade
    for init in (PACKAGE / "__init__.py", PACKAGE / "groups" / "__init__.py"):
        tree = ast.parse(init.read_text(), filename=str(init))
        assert not any(isinstance(node, (ast.Import, ast.ImportFrom)) for node in ast.walk(tree)), init


def test_importing_diagrams_loads_no_other_module_of_the_package():
    assert _fresh("import spunslice.diagrams", _LOADED) == ["spunslice", "spunslice.diagrams"]


def test_importing_the_cli_leaves_render_unloaded():
    assert "spunslice.render" not in _fresh("import spunslice, spunslice.cli", _LOADED)


def test_the_cli_import_loads_every_module_the_bench_reads():
    # the worker imports only spunslice and spunslice.cli and then reads the
    # other modules as attributes; spans.install wraps only the modules
    # already in sys.modules when it runs, so each module _targets() names
    # must be loaded by the cli import, or its traced layer would read 0
    spans = ast.parse((PERFBENCH / "spans.py").read_text())
    targets = next(n for n in spans.body if isinstance(n, ast.FunctionDef) and n.name == "_targets")
    wrapped = sorted(
        f"{node.module}.{alias.name}"
        for node in ast.walk(targets) if isinstance(node, ast.ImportFrom)
        for alias in node.names
    )
    assert "spunslice.groups.homcount" in wrapped
    read = sorted(set(re.findall(r"\bss((?:\.\w+)+)", (PERFBENCH / "worker.py").read_text())))
    assert ".groups.presentations.cobordism_presentation" in read
    # an attribute chain the worker reads that the cli import left unbound
    # raises AttributeError, and the child exits nonzero
    statement = (
        "import functools, spunslice, spunslice.cli; "
        f"[functools.reduce(getattr, chain.split('.')[1:], spunslice) for chain in {read!r}]"
    )
    loaded = _fresh(statement, _LOADED)
    assert [m for m in wrapped if m not in loaded] == []
