"""Every module of the package and of the test suite uses each name it
imports. A name counts as used when it appears as a name anywhere in the
module, including as the base of an attribute such as ``np.zeros``."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def unused_imports(path: Path):
    """(line, name) of each name ``path`` imports and never uses."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            # ``import a.b`` binds ``a``
            imported += [(node.lineno, alias.asname or alias.name.split(".")[0]) for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [(node.lineno, alias.asname or alias.name) for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [(line, name) for line, name in imported if name not in used]


def test_no_unused_imports():
    modules = sorted([*(ROOT / "src" / "cbgru").glob("*.py"), *(ROOT / "tests").glob("*.py")])
    assert len(modules) > 10
    findings = [f"{path.relative_to(ROOT)}:{line}: {name}" for path in modules for line, name in unused_imports(path)]
    assert findings == []


def test_finds_an_unused_import(tmp_path):
    path = tmp_path / "m.py"
    path.write_text(
        "from __future__ import annotations\n"
        "import os.path\n"
        "import numpy as np\n"
        "from json import dumps, loads as parse\n"
        "x = np.zeros(os.sep)\n"
        "y = parse\n"
    )
    assert unused_imports(path) == [(4, "dumps")]
