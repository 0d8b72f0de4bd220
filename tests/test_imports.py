"""The package's import structure.

Each module imports alone in a fresh interpreter, and no function body
imports from the package: a cycle between modules is broken by moving code,
not by deferring an import.  Standard-library imports deferred for speed,
such as ``decimal`` in ``matrix_spaces._q_gaps``, stay allowed.
"""

import ast
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import chainwishart

MODULES = sorted(m.name for m in pkgutil.iter_modules(chainwishart.__path__))


@pytest.mark.parametrize("module", MODULES)
def test_each_module_imports_alone_in_a_fresh_interpreter(module):
    done = subprocess.run([sys.executable, "-c", f"import chainwishart.{module}"], capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


def _package_import(node: ast.AST) -> bool:
    if isinstance(node, ast.ImportFrom):
        return node.level > 0 or (node.module or "").split(".")[0] == "chainwishart"
    return isinstance(node, ast.Import) and any(a.name.split(".")[0] == "chainwishart" for a in node.names)


def test_no_function_body_imports_from_the_package():
    found = []
    for path in sorted(Path(chainwishart.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found += [f"{path.name}:{node.lineno} in {fn.name}" for node in ast.walk(fn) if _package_import(node)]
    assert not found
