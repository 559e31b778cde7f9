"""Repository checks that guard the library's own conventions."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "toricdegen"


def test_no_assert_statements_in_library():
    # `python -O` strips assert statements, so a check written as one
    # silently disappears; the library raises explicit errors instead.
    found = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.relative_to(SRC.parent)}:{node.lineno}"
                  for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not found, "assert statements in the library: " + ", ".join(found)
