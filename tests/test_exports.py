"""The package namespace and each module's ``__all__`` name the same API."""

import ast
import importlib
from pathlib import Path

import pseudobound as pb


def _package_imports() -> dict[str, list[str]]:
    """Module name -> the names ``pseudobound/__init__.py`` imports from it."""
    tree = ast.parse(Path(pb.__file__).read_text())
    return {node.module: sorted(alias.name for alias in node.names)
            for node in tree.body
            if isinstance(node, ast.ImportFrom) and node.level == 1}


def test_every_all_equals_what_the_package_imports():
    imports = _package_imports()
    checked = 0
    for name, imported in imports.items():
        module = importlib.import_module(f"pseudobound.{name}")
        if hasattr(module, "__all__"):
            assert len(set(module.__all__)) == len(module.__all__), name
            assert sorted(module.__all__) == imported, name
            checked += 1
    assert checked >= 6


def test_exact_risk_left_the_namespace():
    assert not hasattr(pb, "exact_risk")
    assert not hasattr(importlib.import_module("pseudobound.risk"), "exact_risk")
