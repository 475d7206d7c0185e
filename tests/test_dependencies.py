"""The package runs on the standard library and numpy alone.

mpmath is a test-only reference (the ``test`` extra): no module of the
package imports it, and neither does the command line.
"""
import ast
import sys
from pathlib import Path

import mfzeta

SOURCES = sorted(Path(mfzeta.__file__).parent.glob("*.py"))
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "mfzeta"}


def _imported(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            yield "mfzeta" if node.level else node.module


def test_package_imports_only_stdlib_and_numpy(modules_after_import):
    foreign = [
        f"{path.stem}: {name}"
        for path in SOURCES
        for name in _imported(ast.parse(path.read_text()))
        if name.partition(".")[0] not in ALLOWED
    ]
    assert foreign == []
    assert "mpmath" not in modules_after_import("mfzeta.cli")
