"""Every name a package module imports is used there or re-exported in its ``__all__``."""

import ast
from pathlib import Path

import prodbasis

PACKAGE = Path(prodbasis.__file__).resolve().parent


def unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            exported.update(ast.literal_eval(node.value))
    return [f"{path.name}:{line} {name}" for name, line in imported.items() if name not in used | exported]


def test_package_has_no_unused_imports():
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    found = [entry for path in sources for entry in unused_imports(path)]
    assert not found, f"unused imports in the package: {found}"


def test_the_scan_finds_an_unused_import(tmp_path):
    path = tmp_path / "module.py"
    path.write_text("from __future__ import annotations\n"
                    "import numpy as np\nimport os.path\nfrom .verify import _complement, check_upb\n"
                    "__all__ = ['check_upb']\nnp.zeros(1)\n", encoding="utf-8")
    assert unused_imports(path) == ["module.py:3 os", "module.py:4 _complement"]
