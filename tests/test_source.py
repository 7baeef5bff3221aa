"""Source-level rules: input checks raise named errors, so an ``assert``
statement (which ``python -O`` strips) may only state a documented invariant,
a fact that a bug in semicross, not a bad input, would break.  And no module
imports scipy, which only the tests need."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "semicross"
# the functions whose asserts are invariants (ROADMAP item 4)
INVARIANTS = {
    "actions.check_derived_identities",
    "algebras.Ideal.from_support",
    "algebras.Ideal.support",
}


def asserts_by_scope(tree, scope):
    """(dotted enclosing function or class, line) of every assert below ``tree``."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield from asserts_by_scope(node, f"{scope}.{node.name}")
        else:
            if isinstance(node, ast.Assert):
                yield scope, node.lineno
            yield from asserts_by_scope(node, scope)


@pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py")))
def test_no_assert_statements(module):
    tree = ast.parse((SRC / module).read_text(), filename=module)
    found = asserts_by_scope(tree, module.removesuffix(".py"))
    stray = [(scope, line) for scope, line in found if scope not in INVARIANTS]
    assert stray == [], f"assert statements outside the invariant functions: {stray}"


@pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py")))
def test_no_scipy_imports(module):
    # scipy is a test dependency: HiGHS solves only the reference program
    tree = ast.parse((SRC / module).read_text(), filename=module)
    names = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
             for alias in node.names]
    names += [node.module for node in ast.walk(tree)
              if isinstance(node, ast.ImportFrom) and node.module]
    assert not [name for name in names if name.split(".")[0] == "scipy"]
