"""The benchmark reads library names: its tracer wraps functions by name,
and its scripts import and call others.  A rename in the library must
fail here, not only in the slower benchmark tests."""

import ast
import importlib
import importlib.util
from pathlib import Path
from types import ModuleType

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SPANS = PERFBENCH / "spans.py"


def _traced():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TRACED


def _is_package_module(module: str, name: str) -> bool:
    return isinstance(getattr(importlib.import_module(module), name, None), ModuleType)


def _benchmark_references() -> set[tuple[str, str, str]]:
    """(file, module, name) for each ``from rm2cover... import name`` and
    each ``<rm2cover module>.name`` in the benchmark's scripts, read with
    ``ast`` and not run.  A local name counts as a module in its whole file."""
    refs = set()
    for path in sorted(PERFBENCH.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        modules = {}  # local name -> the rm2cover module it is bound to
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "rm2cover":
                for alias in node.names:
                    refs.add((path.name, node.module, alias.name))
                    if _is_package_module(node.module, alias.name):
                        modules[alias.asname or alias.name] = f"{node.module}.{alias.name}"
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.split(".")[0] == "rm2cover":
                        modules[alias.asname or "rm2cover"] = alias.name if alias.asname else "rm2cover"
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in modules:
                refs.add((path.name, modules[node.value.id], node.attr))
    return refs


def test_every_traced_name_is_a_library_callable():
    traced = _traced()
    assert traced
    for module_name, names in traced.items():
        module = importlib.import_module(f"rm2cover.{module_name}")
        for name in names:
            assert callable(getattr(module, name, None)), f"rm2cover.{module_name}.{name}"


def test_every_library_name_the_benchmark_reads_resolves():
    refs = _benchmark_references()
    names = {(module, name) for _, module, name in refs}
    assert ("rm2cover.quadratic", "coset_nonlinearities") in names  # read off a module
    assert ("rm2cover.core", "nonlinearity") in names  # imported from one
    missing = sorted(
        f"{file}: {module}.{name}" for file, module, name in refs
        if not hasattr(importlib.import_module(module), name)
    )
    assert not missing, missing
