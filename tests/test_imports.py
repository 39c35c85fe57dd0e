"""Every module of the package and of the test suite uses each name it
imports. A name counts as used when it appears as a name anywhere in the
module, including as the base of an attribute such as ``np.zeros``.

Every top-level function, class and constant of the package is named
somewhere in the package or the benchmark harness outside its own
definition, and every method and property of a package class is named
there as an attribute outside its own body, so no helper lives on for the
tests alone."""

import ast
from collections import Counter
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


def _names(node: ast.AST) -> set:
    """The names ``node`` reads, and the attribute names it holds."""
    return {
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, ast.Attribute) or isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
    }


def dead_names(package, users):
    """(path, line, name) of each top-level function, class and constant of
    the ``package`` modules that no top-level statement of ``package`` or
    ``users`` names, the one that defines it aside."""
    statements = [(path, stmt) for path in [*package, *users] for stmt in ast.parse(path.read_text(encoding="utf-8")).body]
    # how many statements name each name
    uses = Counter(name for _, stmt in statements for name in _names(stmt))
    dead = []
    for path, stmt in statements:
        if path not in package:
            continue
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            defined = [stmt.name]
        elif isinstance(stmt, ast.Assign):
            defined = [t.id for t in stmt.targets if isinstance(t, ast.Name)]
        elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            defined = [stmt.target.id]
        else:
            continue
        own = _names(stmt)
        # dunder names such as __version__ are read by tools
        dead += [(path, stmt.lineno, name) for name in defined if uses[name] == (name in own) and not name.startswith("__")]
    return dead


def test_no_dead_names():
    package = sorted((ROOT / "src" / "cbgru").glob("*.py"))
    users = sorted((ROOT / "perfbench").glob("*.py"))
    assert len(package) > 5 and len(users) > 3
    findings = [f"{path.relative_to(ROOT)}:{line}: {name}" for path, line, name in dead_names(package, users)]
    assert findings == []


def test_finds_a_dead_name(tmp_path):
    package, user = tmp_path / "pkg.py", tmp_path / "user.py"
    package.write_text(
        "LIMIT = 3\n"
        "UNUSED: int = 4\n"
        "def countdown(n):\n"
        "    return countdown(n - 1) if n else LIMIT\n"
        "class Used:\n"
        "    pass\n"
        "def main():\n"
        "    return Used()\n"
    )
    user.write_text("import pkg\npkg.main()\n")
    assert dead_names([package], [user]) == [(package, 2, "UNUSED"), (package, 3, "countdown")]


def dead_methods(package, users):
    """(path, line, name) of each method and property of a ``package`` class,
    dunders aside, that no attribute in ``package`` or ``users`` names
    outside the method's own body."""
    trees = [(path, ast.parse(path.read_text(encoding="utf-8"))) for path in [*package, *users]]

    def attributes(node):
        return Counter(n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute))

    uses = sum((attributes(tree) for _, tree in trees), Counter())
    return [
        (path, method.lineno, method.name)
        for path, tree in trees
        if path in package
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef)
        for method in cls.body
        if isinstance(method, ast.FunctionDef) and not method.name.startswith("__")
        and uses[method.name] == attributes(method)[method.name]
    ]


def test_no_dead_methods():
    package = sorted((ROOT / "src" / "cbgru").glob("*.py"))
    users = sorted((ROOT / "perfbench").glob("*.py"))
    findings = [f"{path.relative_to(ROOT)}:{line}: {name}" for path, line, name in dead_methods(package, users)]
    assert findings == []


def test_finds_a_dead_method(tmp_path):
    package, user = tmp_path / "pkg.py", tmp_path / "user.py"
    package.write_text(
        "class Box:\n"
        "    def __init__(self):\n"
        "        self.size = self.width()\n"
        "    def width(self):\n"
        "        return 1\n"
        "    @property\n"
        "    def area(self):\n"
        "        return self.width()\n"
        "    def countdown(self, n):\n"
        "        return self.countdown(n - 1) if n else n\n"
        "    def unused(self):\n"
        "        return 0\n"
    )
    user.write_text("import pkg\nprint(pkg.Box().area)\n")
    assert dead_methods([package], [user]) == [(package, 9, "countdown"), (package, 11, "unused")]
