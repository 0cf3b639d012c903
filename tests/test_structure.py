"""Structure guards over the package source: no unused import, no writable
module-level array, no unread private name, no import cycle between the
package's modules, and the contraction step's layout private to ``states``."""

import ast
import graphlib
import importlib
import re
from pathlib import Path

import numpy as np
import pytest

import losrkit

PACKAGE = Path(losrkit.__file__).resolve().parent
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def imported_names(tree: ast.Module) -> dict[str, int]:
    """Each name an import statement binds, with its line (``from __future__`` excepted)."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text())
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = {name: line for name, line in imported_names(tree).items() if name not in used}
    assert not unused, f"{path.name} imports names it never uses: {unused}"


def statement_names(node: ast.stmt) -> set[str]:
    """The names a module-level def, class or assignment binds."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return {node.name}
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, ast.AnnAssign):
        targets = [node.target]
    else:
        return set()
    return {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}


def read_names(node: ast.AST) -> set[str]:
    """Names read under ``node``: loaded names, attributes and imported names."""
    read = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            read.add(n.id)
        elif isinstance(n, ast.Attribute):
            read.add(n.attr)
        elif isinstance(n, ast.ImportFrom):
            read.update(alias.name for alias in n.names)
    return read


def test_every_private_name_is_read():
    # A private helper, class or constant that no package code reads outside
    # its own definition is dead: tests and scripts do not keep it alive.
    defined, read = {}, set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.parse(path.read_text()).body:
            own = statement_names(node)
            for name in own:
                if name.startswith("_") and not name.endswith("__"):
                    defined[name] = path.name
            read |= read_names(node) - own
    unread = {name: module for name, module in defined.items() if name not in read}
    assert not unread, f"private names no package code reads: {unread}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_level_array_is_writable(path):
    module = importlib.import_module(f"losrkit.{path.stem}")
    writable = [k for k, v in vars(module).items() if isinstance(v, np.ndarray) and v.flags.writeable]
    assert not writable, f"losrkit.{path.stem} holds writable arrays: {writable}"


def relative_imports(tree: ast.Module) -> set[str]:
    """The package modules that ``from .x import ...`` or ``from . import x``
    names anywhere in ``tree``, inside functions too."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            found |= {node.module} if node.module else {alias.name for alias in node.names}
    return found


def test_no_import_cycle():
    # A module that imports another which imports it back needs a deferred
    # import to load at all.
    graph = {path.stem: relative_imports(ast.parse(path.read_text())) for path in PACKAGE.glob("*.py")}
    try:
        graphlib.TopologicalSorter(graph).prepare()
    except graphlib.CycleError as exc:
        pytest.fail("import cycle: " + " → ".join(reversed(exc.args[1])))


def test_only_states_knows_the_step_layout():
    pattern = re.compile(r"\b(_party_step|_interleaved)\b")
    named = {p.name: sorted(set(pattern.findall(p.read_text()))) for p in MODULES if p.name != "states.py"}
    assert {k: v for k, v in named.items() if v} == {}
