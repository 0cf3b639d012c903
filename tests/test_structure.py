"""Structure guards over the package source: no unused import, no writable
module-level array, and the contraction step's layout private to ``states``."""

import ast
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


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_level_array_is_writable(path):
    module = importlib.import_module(f"losrkit.{path.stem}")
    writable = [k for k, v in vars(module).items() if isinstance(v, np.ndarray) and v.flags.writeable]
    assert not writable, f"losrkit.{path.stem} holds writable arrays: {writable}"


def test_only_states_knows_the_step_layout():
    pattern = re.compile(r"\b(_party_step|_interleaved)\b")
    named = {p.name: sorted(set(pattern.findall(p.read_text()))) for p in MODULES if p.name != "states.py"}
    assert {k: v for k, v in named.items() if v} == {}
