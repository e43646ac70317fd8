"""Static check of the package source: every imported name is used."""
import ast
import pathlib

import satolab

PACKAGE = pathlib.Path(satolab.__file__).parent


def unused_imports(source: str) -> list:
    """(line, name) for each name the module imports that neither its code
    nor its __all__ uses."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= {ast.literal_eval(elt) for elt in node.value.elts}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_unused_imports_oracle():
    source = (
        "from __future__ import annotations\n"
        "import math, os.path\n"
        "from dataclasses import dataclass, field\n"
        "from .errors import ConfigError as Err\n"
        "__all__ = ['Err']\n"
        "@dataclass\n"
        "class A:\n"
        "    x: float = math.pi\n"
    )
    assert unused_imports(source) == [(2, "os"), (3, "field")]


def test_package_imports_only_what_it_uses():
    found = {
        path.name: unused_imports(path.read_text())
        for path in sorted(PACKAGE.glob("*.py"))
    }
    assert {name: rows for name, rows in found.items() if rows} == {}
