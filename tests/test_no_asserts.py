"""The package checks its invariants with exceptions: ``python -O`` strips ``assert`` statements."""

import ast
from pathlib import Path

import prodbasis

PACKAGE = Path(prodbasis.__file__).resolve().parent


def test_package_has_no_assert_statements():
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    found = [f"{path.name}:{node.lineno}"
             for path in sources
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
             if isinstance(node, ast.Assert)]
    assert not found, f"assert statements in the package: {found}"
