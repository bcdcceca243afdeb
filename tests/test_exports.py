"""The package's import list is its one declaration of the public API."""

import ast
import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pseudobound as pb


def test_namespace_holds_no_private_names():
    private = [name for name in vars(pb) if name.startswith("_")
               and not (name.startswith("__") and name.endswith("__"))]
    assert private == []


def test_every_exported_function_and_class_is_the_packages_own():
    exported = {name: value for name, value in vars(pb).items()
                if inspect.isfunction(value) or inspect.isclass(value)}
    assert len(exported) > 50
    for name, value in exported.items():
        assert value.__module__.startswith("pseudobound."), name


def test_package_import_loads_neither_numpy_random_nor_numpy_ma():
    """Every benchmark's set-up time includes a fresh ``import pseudobound``;
    numpy.random and numpy.ma stay unloaded until a draw or a masked array
    needs them (numpy.ma alone keeps about 1 MB resident)."""
    src = str(Path(pb.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = ("import sys, pseudobound\n"
            "loaded = [m for m in ('numpy.random', 'numpy.ma') if m in sys.modules]\n"
            "assert not loaded, loaded\n")
    subprocess.run([sys.executable, "-c", code], check=True, env=env)


def test_exact_risk_left_the_namespace():
    """The scalar exact_risk, HypothesisClassInfo, FilterRule, the noise mode,
    the named filter modes and the placeholder values ABSENT and
    MEDIAN_HEURISTIC stay retired."""
    config_names = ("NoiseMode", "SYNTHETIC", "FROM_CLUSTERING", "FILTER_NONE",
                    "OFFLINE", "OFFLINE_PLUS_ONLINE", "_FILTER_MODES")
    for module, name in (("risk", "exact_risk"), ("stumps", "HypothesisClassInfo"),
                         ("practice", "FilterRule"), ("domains", "ABSENT"),
                         ("discrepancy", "MEDIAN_HEURISTIC"),
                         *(("config", name) for name in config_names)):
        assert not hasattr(pb, name)
        assert not hasattr(importlib.import_module(f"pseudobound.{module}"), name)


def test_every_module_reads_every_name_it_imports():
    """``__init__.py`` is left out: its imports are the public API."""
    unused = []
    for path in sorted(Path(pb.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        imported = {(alias.asname or alias.name).split(".")[0]
                    for node in ast.walk(tree)
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                    and getattr(node, "module", None) != "__future__"
                    for alias in node.names}
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}: {name}" for name in sorted(imported - read)]
    assert unused == []
