"""Static checks of the package source: every imported name is used, every
private module-level name is read somewhere in the package and bound in
one module only, so a constant has one home that the others import, nothing in it
imports scipy, which only the tests and the benchmark need, nothing in it
reads the environment, so flags and config files are the only knobs, and
nothing in it imports threading: its caches are lru_caches, which threads
may share without a lock."""
import ast
import pathlib
import subprocess
import sys

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


def private_definitions(tree) -> list:
    """(line, name) for each private module-level function, class or
    constant (a name with one leading underscore) that the module binds."""
    found = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined = [(node.lineno, node.name)]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined = [
                (n.lineno, n.id)
                for target in targets
                for n in ast.walk(target)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)
            ]
        else:
            continue
        found += [
            (line, name)
            for line, name in defined
            if name.startswith("_") and not name.startswith("__")
        ]
    return found


def unread_private_names(sources: dict) -> list:
    """(module, line, name) for each private module-level name of the
    modules in `sources` that no module reads, by name or as an attribute."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return sorted(
        (module, line, name)
        for module, tree in trees.items()
        for line, name in private_definitions(tree)
        if name not in read
    )


def private_names_bound_twice(sources: dict) -> dict:
    """{name: modules} for each private module-level name that more than one
    of the modules in `sources` binds; importing a name does not bind it."""
    homes = {}
    for module, source in sources.items():
        for _, name in private_definitions(ast.parse(source)):
            homes.setdefault(name, set()).add(module)
    return {name: sorted(ms) for name, ms in homes.items() if len(ms) > 1}


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


def test_unread_private_names_oracle():
    sources = {
        "a.py": (
            "_A, _B = 1, 2\n"
            "_C: int = 3\n"
            "_D = _C\n"
            "__all__ = []\n"
            "def _f():\n"
            "    return _A\n"
            "class _K:\n"
            "    _E = 0\n"
        ),
        "b.py": "from . import a\nfrom .a import _K\nx = a._f(), _K\n",
    }
    assert unread_private_names(sources) == [("a.py", 1, "_B"), ("a.py", 3, "_D")]


def test_package_reads_every_private_name():
    sources = {path.name: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    assert unread_private_names(sources) == []


def test_private_names_bound_twice_oracle():
    sources = {
        "a.py": "_A = 1\n_A = 2\n_B: int = 3\ndef _f():\n    _C = 4\n_G.flags = 0\n",
        "b.py": "from .a import _A\n_B = 5\nclass _f:\n    pass\n_G = 6\n",
        "c.py": "__all__ = []\n_B, _D = 7, 8\n",
    }
    want = {"_B": ["a.py", "b.py", "c.py"], "_f": ["a.py", "b.py"]}
    assert private_names_bound_twice(sources) == want


def test_package_binds_each_private_name_once():
    sources = {path.name: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    assert private_names_bound_twice(sources) == {}


def environment_reads(source: str) -> list:
    """(line, name) for each use of os.environ or os.getenv in the module, as
    an attribute of os or imported from it."""
    env = {"environ", "getenv"}
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.module == "os":
            found += [(node.lineno, alias.name) for alias in node.names if alias.name in env]
        elif (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "os"
            and node.attr in env
        ):
            found.append((node.lineno, node.attr))
    return sorted(found)


def test_environment_reads_oracle():
    source = (
        "import os\n"
        "from os import getenv as ge, path\n"
        "a = os.environ.get('A')\n"
        "b = os.getenv('B'), ge('C')\n"
        "c = os.path.join('x', 'environ'), {'environ': 1}['environ']\n"
    )
    assert environment_reads(source) == [(2, "getenv"), (3, "environ"), (4, "getenv")]


def test_package_reads_no_environment():
    found = {
        path.name: environment_reads(path.read_text())
        for path in sorted(PACKAGE.glob("*.py"))
    }
    assert {name: rows for name, rows in found.items() if rows} == {}


def imported_modules(source: str) -> list:
    """(line, module) for each absolute import of the module."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [(node.lineno, alias.name) for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.append((node.lineno, node.module))
    return found


def test_imported_modules_oracle():
    source = "import scipy.special as s\nfrom scipy import stats\nfrom . import x\n"
    assert imported_modules(source) == [(1, "scipy.special"), (2, "scipy")]


def test_package_does_not_import_scipy():
    found = {
        path.name: [
            (line, module)
            for line, module in imported_modules(path.read_text())
            if module.split(".")[0] == "scipy"
        ]
        for path in sorted(PACKAGE.glob("*.py"))
    }
    assert {name: rows for name, rows in found.items() if rows} == {}


def threading_imports(source: str) -> list:
    """(line, module) for each import of threading or of a submodule of it."""
    return [(line, m) for line, m in imported_modules(source) if m.split(".")[0] == "threading"]


def test_threading_imports_oracle():
    source = (
        "import threading\n"
        "from threading import Lock\n"
        "import os, threading as th\n"
        "from concurrent.futures import ThreadPoolExecutor\n"
        "threading_free = 'threading'\n"
    )
    assert threading_imports(source) == [(1, "threading"), (2, "threading"), (3, "threading")]


def test_package_does_not_import_threading():
    found = {
        path.name: threading_imports(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))
    }
    assert {name: rows for name, rows in found.items() if rows} == {}


def test_cli_runs_load_no_scipy(tmp_path):
    calls = [
        ["clt", "--field", "sqrt5", "--x", "300", "--size", "200", "--seed", "1",
         "--interval", "0.7853981633974483", "1.5707963267948966"],
        ["clt", "--field", "sqrt5", "--x", "300", "--size", "200", "--seed", "1",
         "--statistic", "smooth"],
        ["theory", "--x", "2000", "--interval", "0.7853981633974483", "1.5707963267948966"],
        ["smooth"],
        ["approx", "--interval", "0.7853981633974483", "1.5707963267948966", "--M", "50"],
    ]
    script = (
        "import sys\n"
        f"sys.path.insert(0, {str(PACKAGE.parent)!r})\n"
        "from satolab import cli\n"
        f"for i, argv in enumerate({calls!r}):\n"
        "    assert cli.main([*argv, '--out', f'out{i}']) == 0, argv\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, cwd=tmp_path
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"
