"""The package declares no dependencies, networkx stays out of tier-1,
only matchcolor names the perfect-matching stream `_canonical_matchings`
and the insides of its frontier DPs, and the covering search lists no
perfect matchings.

The rules are read from the source with `ast`, so a forbidden import or
name fails here even when the module that holds it is never imported.
"""

import ast
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE_MODULES = sorted((ROOT / "src" / "fulkerson_lab").rglob("*.py"))
TEST_MODULES = sorted((ROOT / "tests").rglob("*.py"))
# the two state steps and the colour fill table; other modules reach the
# frontier DPs through `_frontier_order`, `_frontier_steps` and
# `_holder_counts`
FRONTIER_INSIDES = {"_coloring_step", "_matching_step", "_class_fills"}
# the ways to list perfect matchings, and their cap
LISTINGS = {"listing", "enumerate_perfect_matchings", "_capped_matchings", "DEFAULT_PM_LIMIT"}
FULKERSON = ROOT / "src" / "fulkerson_lab" / "fulkerson.py"


def absolute_imports(path: Path) -> list[str]:
    """Top-level names of the module's absolute imports; relative ones are skipped."""
    names = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.Import):
            names += [alias.name.partition(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module.partition(".")[0])
    return names


def identifiers(path: Path) -> set[str]:
    """The names, attributes, imported names and whole-string constants of the module."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name.rpartition(".")[2])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            found.add(node.value)
    return found


@pytest.mark.parametrize("path", PACKAGE_MODULES, ids=lambda p: p.name)
def test_package_imports_only_the_standard_library(path):
    outside = [name for name in absolute_imports(path) if name not in sys.stdlib_module_names]
    assert outside == []


@pytest.mark.parametrize("path", TEST_MODULES, ids=lambda p: p.name)
def test_tests_never_import_networkx(path):
    assert "networkx" not in absolute_imports(path)


@pytest.mark.parametrize("path", [p for p in PACKAGE_MODULES if p.name != "matchcolor.py"],
                         ids=lambda p: p.name)
def test_only_matchcolor_names_the_matching_stream(path):
    # the FR-triple walk and every other reader go through matchcolor's functions
    assert "_canonical_matchings" not in identifiers(path)


@pytest.mark.parametrize("path", [p for p in PACKAGE_MODULES if p.name != "matchcolor.py"],
                         ids=lambda p: p.name)
def test_only_matchcolor_names_the_frontier_dp_insides(path):
    assert FRONTIER_INSIDES.isdisjoint(identifiers(path))


def test_the_covering_search_lists_no_matchings():
    # the exact cover counts by the frontier DP, and the FR-triple walk
    # draws through `_MatchingRecord`'s queries
    assert LISTINGS.isdisjoint(identifiers(FULKERSON))


def test_the_rules_find_the_modules():
    assert ROOT / "src" / "fulkerson_lab" / "cli.py" in PACKAGE_MODULES
    assert FULKERSON in PACKAGE_MODULES
    names = identifiers(ROOT / "src" / "fulkerson_lab" / "matchcolor.py")
    assert "_canonical_matchings" in names and FRONTIER_INSIDES <= names
    assert LISTINGS <= set().union(*map(identifiers, PACKAGE_MODULES))
    assert Path(__file__).resolve() in TEST_MODULES
