"""Every definition in the package is used by the package itself.

A function, class or method whose name occurs only once in the source text
of ``src/mfzeta`` -- at its own definition -- is reached by no command and
no check, only (at most) by tests.  Such code should be deleted, or moved
into the tests that need it.  A method or property must moreover be read as
an attribute somewhere in the package.
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


def test_every_method_is_reached_as_an_attribute_in_the_package():
    """A method or property is reached through ``obj.name``; a name that
    occurs elsewhere only as a word (a field, a local, a docstring) does not
    count."""
    trees = {path.stem: ast.parse(path.read_text()) for path in SOURCES}
    reached = {
        node.attr
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
    }
    unused = []
    for stem, tree in trees.items():
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in cls.body:
                if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                name = node.name
                if name.startswith("__") and name.endswith("__"):
                    continue
                if name not in reached:
                    unused.append(f"{stem}.{cls.name}.{name}")
    assert unused == []


def test_every_module_level_import_is_used():
    """A name a module imports at its top level is read in that module; a
    deletion that leaves its import behind fails here.  ``__future__``
    imports bind no name."""
    unused = []
    for path in SOURCES:
        tree = ast.parse(path.read_text())
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = (alias.asname or alias.name).split(".")[0]
                    if name not in read:
                        unused.append(f"{path.stem}: {name}")
    assert unused == []
