"""The CLI writes every result's text.

Records carry values only: no module but ``cli`` prints, no class has a
``to_text``, and a ``.10g`` number format appears only in ``cli`` and in the
messages of raised errors.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "losrkit"
MODULES = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}


def test_modules_found():
    assert "cli.py" in MODULES and len(MODULES) > 5


@pytest.mark.parametrize("name", sorted(MODULES))
def test_only_cli_prints(name):
    calls = [
        node.lineno
        for node in ast.walk(MODULES[name])
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "print"
    ]
    assert name == "cli.py" or not calls, calls


@pytest.mark.parametrize("name", sorted(MODULES))
def test_no_class_defines_to_text(name):
    methods = [
        f"{cls.name}.{item.name}"
        for cls in ast.walk(MODULES[name])
        if isinstance(cls, ast.ClassDef)
        for item in cls.body
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and item.name == "to_text"
    ]
    assert not methods


@pytest.mark.parametrize("name", sorted(MODULES))
def test_number_format_only_in_cli_and_raise_messages(name):
    tree = MODULES[name]
    in_raise = {id(node) for r in ast.walk(tree) if isinstance(r, ast.Raise) for node in ast.walk(r)}
    found = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and isinstance(node.value, str) and ".10g" in node.value
        and id(node) not in in_raise
    ]
    assert name == "cli.py" or not found, found
