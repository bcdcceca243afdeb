"""The package's import list is its one declaration of the public API."""

import importlib
import inspect

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


def test_exact_risk_left_the_namespace():
    """The scalar exact_risk, HypothesisClassInfo and FilterRule stay retired."""
    for module, name in (("risk", "exact_risk"), ("stumps", "HypothesisClassInfo"),
                         ("practice", "FilterRule")):
        assert not hasattr(pb, name)
        assert not hasattr(importlib.import_module(f"pseudobound.{module}"), name)
