"""The package imports nothing outside the standard library."""
from __future__ import annotations

import ast
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "cloudtrust"
SOURCES = sorted(PACKAGE.glob("*.py"))


def imported_roots(tree: ast.AST) -> set[str]:
    """The top-level name of every absolute import, at any depth."""
    roots = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            roots.update(alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            roots.add(node.module.partition(".")[0])
    return roots


def test_the_package_has_sources():
    assert "calculus.py" in {path.name for path in SOURCES}


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_module_imports_only_the_standard_library(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    outside = imported_roots(tree) - set(sys.stdlib_module_names) - {"cloudtrust"}
    assert not outside, f"{path.name} imports {sorted(outside)}"


def test_the_guard_sees_a_third_party_import():
    tree = ast.parse("import json\nfrom numpy import array\nfrom . import graph\n")
    assert imported_roots(tree) - set(sys.stdlib_module_names) == {"numpy"}
