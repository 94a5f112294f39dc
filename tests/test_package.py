"""The package's lazy public surface: every name in ``cisect.__all__`` loads
its home module on first access and is the very object defined there."""
from __future__ import annotations

import ast
import importlib
import sys
import types
from pathlib import Path

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


TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _tracer_lookups() -> list[tuple[str, str]]:
    """(owner, name) for each attribute that perfbench/tracer.py looks up by
    name: its COARSE and FINE tables, and the names each loop of install()
    passes to getattr or reads from a class's __dict__.  The file is read,
    not imported."""
    tree = ast.parse(TRACER.read_text(encoding="utf-8"))
    found = []
    for node in tree.body:
        if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) in ("COARSE", "FINE"):
            for owner, names in zip(node.value.keys, node.value.values):
                found += [(ast.unparse(owner), name) for name in ast.literal_eval(names)]
    install = next(n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "install")
    for node in ast.walk(install):
        if isinstance(node, ast.For) and isinstance(node.iter, ast.Tuple):
            owners = {
                ast.unparse(call.args[0]) for call in ast.walk(node)
                if isinstance(call, ast.Call) and ast.unparse(call.func) == "getattr"
            }
            found += [(owner, name) for owner in owners for name in ast.literal_eval(node.iter)]
        elif isinstance(node, ast.Subscript) and ast.unparse(node.value).endswith(".__dict__"):
            found.append((ast.unparse(node.value.value), ast.literal_eval(node.slice)))
    return found


def test_every_name_the_tracer_wraps_resolves():
    lookups = _tracer_lookups()
    owners = {owner for owner, _ in lookups}
    # both tables, the space iterators and the FieldSpec and RootSum methods
    assert {"ffield", "mpoly", "sections", "cisect.cli", "space", "ffield.FieldSpec",
            "radicals.RootSum"} <= owners
    for owner, name in lookups:
        # an owner is a module of the package, or a class in one
        module, *rest = owner.removeprefix("cisect.").split(".")
        obj = importlib.import_module(f"cisect.{module}")
        for part in rest:
            obj = getattr(obj, part)
        assert callable(getattr(obj, name)), (owner, name)
