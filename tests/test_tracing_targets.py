"""Every function the benchmark tracer patches exists in the package.

`bench/tracing.py` names its targets by module and function name; a
renamed function would leave its spans, and the per-layer metrics read
from them, empty without any error.  The table is read with `ast`, the way
`test_dependencies.py` reads imports, so the benchmark code is never run.
"""

import ast
import importlib
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def traced_targets() -> list[tuple[str, str]]:
    """The (module, function) pairs of the TRACED table in bench/tracing.py."""
    tree = ast.parse(TRACING.read_text(encoding="utf-8"), filename=str(TRACING))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "TRACED" for target in node.targets):
            return list(ast.literal_eval(node.value))
    raise LookupError(f"{TRACING} assigns no TRACED table")


@pytest.mark.parametrize("module,function", traced_targets())
def test_traced_function_exists(module, function):
    assert callable(getattr(importlib.import_module(f"fulkerson_lab.{module}"), function, None))


def test_the_table_is_found_and_not_empty():
    # an empty table would leave the test above with no cases, which passes
    assert len(traced_targets()) > 0
