"""Internal invariants are checked by raises, which ``python -O`` keeps.

An ``assert`` statement is stripped under ``-O``, so the package source
may hold none; every invariant raises a ``VermatwistError`` instead.
"""

import ast
from pathlib import Path

import vermatwist

PACKAGE = Path(vermatwist.__file__).resolve().parent


def test_package_source_has_no_assert_statements():
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    found = [
        f"{path.name}:{node.lineno}"
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
