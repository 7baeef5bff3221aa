"""Source-level rules: input checks in the representation layer and the CLI
raise named errors, so no ``assert`` statement may live there (``python -O``
strips them)."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "semicross"


@pytest.mark.parametrize("module", ["reps.py", "cli.py"])
def test_no_assert_statements(module):
    tree = ast.parse((SRC / module).read_text(), filename=module)
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert lines == [], f"assert statements in {module} at lines {lines}"
