"""The package declares no dependencies, and networkx stays out of tier-1.

Both rules are read from the source with `ast`, so a forbidden import
fails here even when the module that holds it is never imported.
"""

import ast
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE_MODULES = sorted((ROOT / "src" / "fulkerson_lab").rglob("*.py"))
TEST_MODULES = sorted((ROOT / "tests").rglob("*.py"))


def absolute_imports(path: Path) -> list[str]:
    """Top-level names of the module's absolute imports; relative ones are skipped."""
    names = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.Import):
            names += [alias.name.partition(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module.partition(".")[0])
    return names


@pytest.mark.parametrize("path", PACKAGE_MODULES, ids=lambda p: p.name)
def test_package_imports_only_the_standard_library(path):
    outside = [name for name in absolute_imports(path) if name not in sys.stdlib_module_names]
    assert outside == []


@pytest.mark.parametrize("path", TEST_MODULES, ids=lambda p: p.name)
def test_tests_never_import_networkx(path):
    assert "networkx" not in absolute_imports(path)


def test_the_rules_find_the_modules():
    assert ROOT / "src" / "fulkerson_lab" / "cli.py" in PACKAGE_MODULES
    assert Path(__file__).resolve() in TEST_MODULES
