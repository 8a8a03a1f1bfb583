"""Source rules the README promises: stdlib-only imports and no floats."""

import ast
import sys
from pathlib import Path

import malg

SOURCES = sorted(Path(malg.__file__).parent.glob("*.py"))


def _trees():
    assert SOURCES
    for path in SOURCES:
        yield path.name, ast.parse(path.read_text(), filename=str(path))


def test_imports_are_stdlib_only():
    for name, tree in _trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            for module in modules:
                top = module.partition(".")[0]
                assert top in sys.stdlib_module_names, f"{name} imports {module}"


def test_no_float_literal_or_name():
    for name, tree in _trees():
        for node in ast.walk(tree):
            assert not (
                isinstance(node, ast.Constant) and isinstance(node.value, float)
            ), f"{name}:{node.lineno} float literal {node.value!r}"
            assert not (
                isinstance(node, ast.Name) and node.id == "float"
            ), f"{name}:{node.lineno} uses the name float"
