"""The scripts under ``benchmarks/`` still import and name what they use."""

import ast
import importlib.util
import types
from pathlib import Path

import pytest

SCRIPTS = sorted((Path(__file__).parent.parent / "benchmarks").glob("*.py"))


def test_benchmark_scripts_are_found():
    assert SCRIPTS


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda path: path.stem)
def test_benchmark_script_imports_and_has_main(path):
    """Each script imports and has a ``main``, and every ``module.name``
    it reads exists, so a renamed or removed (often private) name fails
    here rather than when the script is next run."""
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert callable(getattr(module, "main", None))
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            owner = getattr(module, node.value.id, None)
            if isinstance(owner, types.ModuleType):
                assert hasattr(owner, node.attr), f"{node.value.id}.{node.attr}"
