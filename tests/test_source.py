"""Static checks on the library source (no linter is a test dependency)."""

import ast
from pathlib import Path

import sgflow

SRC = Path(sgflow.__file__).resolve().parent


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


def test_sgflow_has_no_unused_imports():
    found = {path.name: _unused_imports(ast.parse(path.read_text()))
             for path in sorted(SRC.glob("*.py"))}
    assert {name: names for name, names in found.items() if names} == {}
