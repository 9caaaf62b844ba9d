"""The package depends on numpy alone, at install time and at import time."""

import ast
import pathlib
import re
import sys
import tomllib

import toricgs

_ROOT = pathlib.Path(__file__).resolve().parent.parent
_PKG = pathlib.Path(toricgs.__file__).parent


def test_runtime_dependencies_are_numpy_only():
    project = tomllib.loads((_ROOT / "pyproject.toml").read_text())["project"]
    names = [re.match(r"[\w.-]+", dep).group() for dep in project["dependencies"]]
    assert names == ["numpy"]


def test_modules_import_only_the_standard_library_numpy_and_the_package():
    allowed = set(sys.stdlib_module_names) | {"numpy", "toricgs"}
    found = set()
    for path in sorted(_PKG.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                found |= {(path.name, alias.name.split(".")[0]) for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                found.add((path.name, node.module.split(".")[0]))
    assert found and not {(f, m) for f, m in found if m not in allowed}
