"""The package's import structure.

Each module imports alone in a fresh interpreter, and no function body
imports from the package: a cycle between modules is broken by moving code,
not by deferring an import.  Standard-library imports deferred for speed,
such as ``decimal`` in ``matrix_spaces._q_gaps``, stay allowed.  The file
formats in ``_formats`` import nothing from the package, and no module but
``cli`` imports ``cli``.  The package itself re-exports nothing: importing it
loads no module, and importing a module loads only what that module imports.
"""

import ast
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import chainwishart

MODULES = sorted(m.name for m in pkgutil.iter_modules(chainwishart.__path__))
PACKAGE = Path(chainwishart.__file__).parent


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


def _imported_modules(path: Path) -> set[str]:
    """The package modules that the file at ``path`` imports, anywhere in it, by short name."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not _package_import(node):
            continue
        if isinstance(node, ast.Import):
            names |= {a.name.split(".")[1] for a in node.names if a.name.count(".") >= 1}
            continue
        module = (node.module or "") if node.level else node.module.partition(".")[2]  # drop "chainwishart."
        names |= {module.split(".")[0]} if module else {a.name for a in node.names}
    return names


def test_the_file_formats_import_nothing_from_the_package():
    assert _imported_modules(PACKAGE / "_formats.py") == set()


def test_no_module_but_cli_imports_cli():
    importers = [p.name for p in sorted(PACKAGE.glob("*.py")) if "cli" in _imported_modules(p)]
    assert importers == []


def _closure(module: str) -> set[str]:
    """``module`` and every package module that it imports, directly or through another."""
    seen, todo = set(), [module]
    while todo:
        m = todo.pop()
        if m not in seen:
            seen.add(m)
            todo += _imported_modules(PACKAGE / f"{m}.py")
    return seen


def _loaded_by(statement: str) -> set[str]:
    """The package modules, by short name, that ``statement`` loads in a fresh interpreter."""
    code = f"import sys; {statement}; print(*(m for m in sys.modules if m.startswith('chainwishart.')))"
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    return {m.removeprefix("chainwishart.") for m in done.stdout.split()}


def test_importing_the_package_loads_no_module():
    assert _loaded_by("import chainwishart") == set()


@pytest.mark.parametrize("module", MODULES)
def test_importing_a_module_loads_exactly_its_own_imports(module):
    assert _loaded_by(f"import chainwishart.{module}") == _closure(module)
