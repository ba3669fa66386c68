"""No package module imports ``os`` or reads the environment.

The see-saw's constants and every other setting are module constants,
``Tolerances`` fields or arguments; an environment variable would be a knob
that no test or benchmark sees.
"""

import ast
from pathlib import Path

import prodbasis

PACKAGE = Path(prodbasis.__file__).resolve().parent


def environment_reads(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            reads = [f"import {alias.name}" for alias in node.names if alias.name.partition(".")[0] == "os"]
        elif isinstance(node, ast.ImportFrom) and (node.module or "").partition(".")[0] == "os":
            reads = [f"from {node.module} import"]
        elif isinstance(node, ast.Attribute) and node.attr in ("environ", "environb", "getenv"):
            reads = [f".{node.attr}"]
        else:
            reads = []
        found += [(node.lineno, read) for read in reads]
    return [f"{path.name}:{line} {read}" for line, read in sorted(found)]   # ast.walk is breadth first


def test_package_reads_no_environment():
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    found = [entry for path in sources for entry in environment_reads(path)]
    assert not found, f"environment reads in the package: {found}"


def test_the_scan_finds_each_kind_of_environment_read(tmp_path):
    path = tmp_path / "module.py"
    path.write_text("import numpy as np\n"
                    "import os\n"
                    "import os.path as osp\n"
                    "from os import environ\n"
                    "x = os.environ.get('SWITCH', '40')\n"
                    "y = os.getenv('BETA')\n"
                    "z = np.zeros(1)\n", encoding="utf-8")
    assert environment_reads(path) == [
        "module.py:2 import os", "module.py:3 import os.path", "module.py:4 from os import",
        "module.py:5 .environ", "module.py:6 .getenv",
    ]
