"""The package's lazy public surface: every name in ``cisect.__all__`` loads
its home module on first access and is the very object defined there."""
from __future__ import annotations

import importlib
import sys
import types

import pytest

import cisect

from conftest import run_python


def test_every_public_name_resolves_to_its_home_object():
    for name in cisect.__all__:
        value = getattr(cisect, name)
        home = importlib.import_module(value.__module__)
        assert getattr(home, name) is value, name
        assert value.__module__.startswith("cisect.")
        # the first access binds the name in the package, later ones find it there
        assert vars(cisect)[name] is value


def test_star_import_binds_every_public_name():
    namespace: dict = {}
    exec("from cisect import *", namespace)
    assert set(cisect.__all__) <= set(namespace)
    assert all(namespace[name] is getattr(cisect, name) for name in cisect.__all__)


def test_dir_lists_public_names():
    assert set(cisect.__all__) <= set(dir(cisect))
    assert "__version__" in dir(cisect)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        cisect.no_such_name  # noqa: B018


def test_submodules_import_through_the_package():
    from cisect import bounds, sections

    assert isinstance(bounds, types.ModuleType) and bounds is sys.modules["cisect.bounds"]
    assert isinstance(sections, types.ModuleType) and sections is sys.modules["cisect.sections"]


def test_submodule_import_from_a_fresh_package():
    # in this process the submodules are loaded already; a fresh one must
    # fall back from the package's __getattr__ to importing them
    proc = run_python(
        "from cisect import bounds, sections; print(bounds.__name__, sections.__name__)"
    )
    assert (proc.returncode, proc.stdout) == (0, "cisect.bounds cisect.sections\n")
