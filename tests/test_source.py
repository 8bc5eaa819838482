"""Static checks on the library and test sources (no linter is a test
dependency)."""

import ast
import importlib
import importlib.util
from pathlib import Path

import sgflow

SRC = Path(sgflow.__file__).resolve().parent
TESTS = Path(__file__).resolve().parent
TRACER = TESTS.parent / "perfbench" / "tracer.py"


def _unused_imports(tree: ast.AST) -> list[str]:
    """Names an import statement binds that no expression reads."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[(alias.asname or alias.name).split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in sorted(bound.items())
            if name not in read]


def test_unused_import_scan_sees_an_unused_name():
    tree = ast.parse("import os\nfrom typing import Optional, Sequence\n"
                     "x: Sequence[int] = []\n")
    assert _unused_imports(tree) == ["Optional (line 2)", "os (line 1)"]


def _unused_imports_under(root: Path, pattern: str) -> dict[str, list[str]]:
    found = {str(path.relative_to(root)):
             _unused_imports(ast.parse(path.read_text()))
             for path in sorted(root.glob(pattern))}
    return {name: names for name, names in found.items() if names}


def test_sgflow_has_no_unused_imports():
    assert _unused_imports_under(SRC, "*.py") == {}


def test_tests_have_no_unused_imports():
    assert _unused_imports_under(TESTS, "**/*.py") == {}


def test_benchmark_tracer_names_resolve():
    # the benchmark's per-layer tracer looks each span up by name, so a
    # renamed or deleted function would break its --trace 1 runs
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = [f"{layer}.{name}" for layer, names in tracer.SPANS.items()
               for name in names
               if not callable(getattr(importlib.import_module(
                   f"sgflow.{layer}"), name, None))]
    assert missing == []
