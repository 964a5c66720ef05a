"""Checks that read source files rather than run them.

The benchmark scripts under ``perfbench/`` call package names directly, so a
change that drops or renames one of those names breaks the benchmark's
self-test; the guard here finds that in the unit suite.  No linter runs on
the package, so AST scans stand in for the unused-import check and for the
direction of the imports between its modules.
"""

import ast
import re
from importlib import import_module
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "cancornorm"
BENCHMARK_SCRIPTS = sorted((ROOT / "perfbench").glob("*.py"))
NOQA_F401 = re.compile(r"#\s*noqa:[^#]*\bF401\b")


def _is_package(module) -> bool:
    return module == "cancornorm" or module.startswith("cancornorm.")


def _dotted(node):
    """The names of an attribute chain ``a.b.c`` as ["a", "b", "c"], with
    ``import_module("m").b`` read as ["m", "b"]; None for any other chain."""
    names = []
    while isinstance(node, ast.Attribute):
        names.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        return [node.id] + names[::-1]
    if (
        isinstance(node, ast.Call)
        and getattr(node.func, "attr", getattr(node.func, "id", None)) == "import_module"
        and node.args
        and isinstance(node.args[0], ast.Constant)
        and isinstance(node.args[0].value, str)
    ):
        return [node.args[0].value] + names[::-1]
    return None


def benchmark_pins(path: Path) -> set[tuple[str, int, str]]:
    """(file, line, dotted name) of every package name a benchmark script
    reads: ``from cancornorm[.module] import name`` and every attribute chain
    on a name bound to the package or one of its modules (``cc`` is the
    package: ``run.py`` binds it to the imported package)."""
    tree = ast.parse(path.read_text(), filename=str(path))
    bound = {"cc": "cancornorm"}
    pins = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 0 and _is_package(node.module or ""):
            for alias in node.names:
                target = f"{node.module}.{alias.name}"
                bound[alias.asname or alias.name] = target
                pins.add((path.name, node.lineno, target))
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if _is_package(alias.name):
                    bound[alias.asname or alias.name.split(".")[0]] = (
                        alias.name if alias.asname else "cancornorm"
                    )
    for node in ast.walk(tree):
        names = _dotted(node) if isinstance(node, ast.Attribute) else None
        if names is None:
            continue
        root = bound.get(names[0], names[0])
        if _is_package(root):
            pins.add((path.name, node.lineno, ".".join([root] + names[1:])))
    return pins


def resolve(dotted: str):
    """The object a dotted package name refers to; an attribute is looked up
    first and a submodule imported when there is no such attribute."""
    first, *rest = dotted.split(".")
    obj = import_module(first)
    for name in rest:
        try:
            obj = getattr(obj, name)
        except AttributeError:
            obj = import_module(f"{obj.__name__}.{name}")
    return obj


def test_benchmark_pins_are_found():
    # the guard below checks nothing if the scan misses the scripts' reads
    for script in ("run.py", "traced.py"):
        assert benchmark_pins(ROOT / "perfbench" / script), script


def test_every_benchmark_pin_resolves():
    missing = []
    for path in BENCHMARK_SCRIPTS:
        for file, line, dotted in sorted(benchmark_pins(path)):
            try:
                resolve(dotted)
            except (AttributeError, ImportError) as exc:
                missing.append(f"perfbench/{file}:{line} reads {dotted}, which is gone ({exc})")
    assert not missing, "\n".join(missing)


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_every_import_is_used_or_a_marked_reexport(path):
    source = path.read_text()
    lines = source.splitlines()
    tree = ast.parse(source, filename=str(path))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound = [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound = [a.asname or a.name for a in node.names]
        else:
            continue
        marked = any(NOQA_F401.search(line) for line in lines[node.lineno - 1:node.end_lineno])
        unused += [f"{path.name}:{node.lineno} {name}" for name in bound
                   if name not in used and not marked]
    assert not unused, f"imported but never used: {unused}"


def package_imports(path: Path) -> set[str]:
    """The package modules that ``path`` imports anywhere (at load, in a
    function body or under ``if TYPE_CHECKING:``): the module of every
    relative or ``cancornorm.`` import, and the names of ``from . import``
    and ``from cancornorm import``."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom) and (node.level or _is_package(node.module or "")):
            module = (node.module or "").removeprefix("cancornorm").lstrip(".")
            found.update([module] if module else [a.name for a in node.names])
        elif isinstance(node, ast.Import):
            found.update(a.name.split(".")[1] for a in node.names
                         if a.name.startswith("cancornorm."))
    return found


def test_the_reference_depends_on_the_runtime_and_never_back():
    # engine, the numerical core, imports nothing from the package but errors
    engine = package_imports(PACKAGE / "engine.py")
    assert engine <= {"errors"}, f"engine imports {sorted(engine - {'errors'})}"
    # and no module imports the scalar reference but the reference itself
    # (the package's lazy exports import it on first use)
    importers = [path.name for path in sorted(PACKAGE.glob("*.py"))
                 if path.stem not in ("covblocks", "__init__")
                 and "covblocks" in package_imports(path)]
    assert not importers, f"covblocks is imported by {importers}"
