"""Every definition in the package is used by the package itself.

A function, class or method whose name occurs only once in the source text
of ``src/mfzeta`` -- at its own definition -- is reached by no command and
no check, only (at most) by tests.  Such code should be deleted, or moved
into the tests that need it.
"""
import ast
import re
from pathlib import Path

import mfzeta

SOURCES = sorted(Path(mfzeta.__file__).parent.glob("*.py"))


def test_every_definition_is_named_elsewhere_in_the_package():
    text = "\n".join(path.read_text() for path in SOURCES)
    unused = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            if len(re.findall(rf"\b{re.escape(name)}\b", text)) < 2:
                unused.append(f"{path.stem}.{name}")
    assert unused == []
