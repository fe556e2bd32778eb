"""Every imported name in the package and the tests is read somewhere.

No linter ships with the project, so this is its unused-import check. A
name counts as read if it is loaded anywhere in its module, or in a string
that parses as an expression, as a quoted annotation does. Scopes are not
told apart. Package `__init__` files are left out: their imports are the
package's exports. An import statement whose first line carries
`# noqa: F401` is kept on purpose, for example so that a tracer can patch the
name where it is used.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted([*(ROOT / "src" / "semlink").glob("*.py"), *(ROOT / "tests").glob("*.py")])


def imported_names(tree: ast.Module, lines: list[str]):
    """(line, name) of each name bound by an import that is not exempt."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Import | ast.ImportFrom):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if "# noqa: F401" in lines[node.lineno - 1]:
            continue
        for alias in node.names:
            if alias.name != "*":
                yield node.lineno, alias.asname or alias.name.split(".")[0]


def read_names(tree: ast.Module) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:  # a quoted annotation such as list["RandomSource"]
                names |= read_names(ast.parse(node.value, mode="eval"))
            except SyntaxError:
                pass
    return names


def unused_imports(source: str) -> list[tuple[int, str]]:
    tree = ast.parse(source)
    read = read_names(tree)
    return [(line, name) for line, name in imported_names(tree, source.splitlines())
            if name not in read]


@pytest.mark.parametrize("text,unused", [
    ("import os\n", ["os"]),
    ("import os.path\nos.sep\n", []),
    ("from a import b as c\nb\n", ["c"]),
    ("from a import b\ndef f(x: 'list[b]'): pass\n", []),
    ("from a import (  # noqa: F401\n    b,\n)\n", []),
    ("from __future__ import annotations\n", []),
    ("from a import b\nb = 1\n", ["b"]),
], ids=["plain", "dotted", "alias", "quoted-annotation", "noqa", "future", "only-stored"])
def test_the_check_itself(text, unused):
    assert [name for _, name in unused_imports(text)] == unused


def test_no_unused_imports():
    assert ROOT / "src" / "semlink" / "cli.py" in FILES
    found = [f"{path.relative_to(ROOT)}:{line}: {name}"
             for path in FILES if path.name != "__init__.py"
             for line, name in unused_imports(path.read_text(encoding="utf-8"))]
    assert found == []
