"""Every name a module imports is used in that module, and the package
imports only what it declares.

An AST scan over ``src/``, ``scripts/`` and ``tests/``: the names bound by
``import`` and ``from ... import`` statements against the names the module
reads.  A package ``__init__.py`` is exempt, since its imports are the
package's public names.  A second scan checks that every module of
``src/wignerlab`` imports only the standard library and the package's
declared dependencies; scipy is an oracle for the tests alone.
"""

import ast
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted(p for d in ("src", "scripts", "tests")
                 for p in (ROOT / d).rglob("*.py")
                 if p.name != "__init__.py")
PACKAGE = sorted((ROOT / "src" / "wignerlab").rglob("*.py"))
# the ``dependencies`` of pyproject.toml
DEPENDENCIES = {"numpy", "click"}


def imported_names(tree: ast.Module) -> dict[str, int]:
    """Bound name -> line of every import outside ``from __future__``."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                out[a.asname or a.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                if a.name != "*":
                    out[a.asname or a.name] = node.lineno
    return out


def used_names(tree: ast.Module) -> set[str]:
    """Names read anywhere, string annotations included."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            # "PauliString | PauliSum" style forward references
            try:
                sub = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            out |= {n.id for n in ast.walk(sub) if isinstance(n, ast.Name)}
    return out


def test_sources_found():
    assert any(p.parent.name == "wignerlab" for p in SOURCES)
    assert any(p.parent.name == "scripts" for p in SOURCES)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = used_names(tree)
    unused = [f"{name} (line {line})"
              for name, line in imported_names(tree).items() if name not in used]
    assert not unused, f"{path.relative_to(ROOT)} imports unused {unused}"


def test_scan_sees_an_unused_import():
    tree = ast.parse("import os\nfrom x import (a, b as c)\n"
                     "def f(p: 'a') -> None:\n    return None\n")
    imported, used = imported_names(tree), used_names(tree)
    assert sorted(n for n in imported if n not in used) == ["c", "os"]


def imported_modules(tree: ast.Module) -> set[str]:
    """Top-level names of the modules imported absolutely (relative imports
    stay inside the package)."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out |= {a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and not node.level:
            out.add(node.module.split(".")[0])
    return out


def undeclared(tree: ast.Module) -> list[str]:
    return sorted(m for m in imported_modules(tree)
                  if m not in sys.stdlib_module_names and m not in DEPENDENCIES)


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: str(p.relative_to(ROOT)))
def test_package_imports_only_its_dependencies(path):
    stray = undeclared(ast.parse(path.read_text(), filename=str(path)))
    assert not stray, f"{path.relative_to(ROOT)} imports undeclared {stray}"


def test_dependency_scan_sees_a_stray_import():
    tree = ast.parse("import os, numpy as np\nimport scipy.linalg\n"
                     "from click import echo\nfrom . import dense\n"
                     "from hypothesis import given\n")
    assert undeclared(tree) == ["hypothesis", "scipy"]
