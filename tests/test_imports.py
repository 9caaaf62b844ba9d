"""Every module imports cleanly as the first module of the package."""

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
