"""Every module imports cleanly as the first module of the package, and the
package namespace resolves each public name to its module's own object."""

import importlib
import pathlib
import subprocess
import sys

import pytest

import toricgs

_PKG = pathlib.Path(toricgs.__file__).parent
_MODULES = sorted(p.stem for p in _PKG.glob("*.py") if p.stem != "__init__")

# an empty package stands in for toricgs/__init__.py, whose imports would
# otherwise run first, in one fixed order, and could hide an import cycle
_IMPORT_FIRST = """
import importlib, sys, types
pkg = types.ModuleType("toricgs")
pkg.__path__ = [{path!r}]
pkg.__version__ = "0"
sys.modules["toricgs"] = pkg
importlib.import_module("toricgs.{name}")
"""


@pytest.mark.parametrize("name", _MODULES)
def test_module_imports_first_in_a_fresh_interpreter(name):
    code = _IMPORT_FIRST.format(path=str(_PKG), name=name)
    cp = subprocess.run([sys.executable, "-c", code], capture_output=True)
    assert cp.returncode == 0, cp.stderr.decode()


def test_package_names_are_the_objects_of_their_modules():
    for name in toricgs.__all__[1:]:
        obj = getattr(toricgs, name)
        module = importlib.import_module(obj.__module__)
        assert module.__name__.startswith("toricgs.") and getattr(module, name) is obj, name
    namespace = {}
    exec("from toricgs import *", namespace)
    assert set(toricgs.__all__) <= set(namespace)
    with pytest.raises(AttributeError):
        toricgs.no_such_name


# a lazily bound module must still be reachable from the package once imported
_SUBMODULE_AFTER_CLI = "import toricgs.cli; import toricgs.mafunc; toricgs.mafunc.solve_ma"

# names are first read with the tracer installed, then once it is gone: every
# package name must be the module's own function again, so the package
# namespace may keep no function object of its own
_TRACER_ROUND_TRIP = """
import inspect, sys
sys.path.insert(0, {root!r})
import toricgs
from perfbench.trace import Tracer
toricgs.from_vertices
tracer = Tracer()
tracer.install(toricgs)
assert hasattr(toricgs.futaki, "__wrapped__") and hasattr(toricgs.from_vertices, "__wrapped__")
traced = {{n: getattr(toricgs, n) for n in toricgs.__all__[1:]}}
tracer.uninstall()
for name in toricgs.__all__[1:]:
    obj = getattr(toricgs, name)
    assert obj is vars(sys.modules[obj.__module__])[name], name
    assert name not in vars(toricgs), name
    if inspect.isfunction(obj):
        assert not hasattr(obj, "__wrapped__") and traced[name] is not obj, name
"""


@pytest.mark.parametrize("code", [
    _SUBMODULE_AFTER_CLI,
    _TRACER_ROUND_TRIP.format(root=str(pathlib.Path(__file__).resolve().parent.parent)),
], ids=["submodule_after_cli", "tracer_round_trip"])
def test_package_namespace_in_a_fresh_interpreter(code):
    cp = subprocess.run([sys.executable, "-c", code], capture_output=True)
    assert cp.returncode == 0, cp.stderr.decode()
