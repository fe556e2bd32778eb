"""Every imported name in the package and the tests is read somewhere, and
every public library function is read by the library.

No linter ships with the project, so this is its unused-import check. A
name counts as read if it is loaded anywhere in its module, or in a string
that parses as an expression, as a quoted annotation does. Scopes are not
told apart. Package `__init__` files are left out: the package's one
imports its submodules only so that `import semlink` loads them. An import
statement whose first line carries `# noqa: F401` is kept on purpose, for
example so that a tracer can patch the name where it is used.

A public module-level function of `src/semlink` must be loaded, as a name or
an attribute, somewhere in `src/semlink` outside its own body; an import is
no read. So must a public method or property of a `src/semlink` class, as an
attribute of that name. Code that only tests call belongs in
`tests/oracles.py`. The few functions and methods that other callers still
hold are pinned as exact sets, so the lists can only shrink.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = sorted((ROOT / "src" / "semlink").glob("*.py"))
FILES = sorted([*SRC, *(ROOT / "tests").glob("*.py")])


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


# Read by no library code; each entry names its callers and, where one is
# planned, the ROADMAP item that removes it. All six are read by benchmarks/;
# code that only tests read lives in tests/oracles.py.
UNREAD_BY_LIBRARY = {
    "eval_under_bsec",  # the train-robust workload and criteria 9 and 12
    "warmup_only_config",  # the train-robust workload and criteria 9 and 12
    # benchmarks/tracing.py patches these four by name; item 7 deletes them
    "transport_block",
    "plan_from_thresholds",
    "transmit",
    "equalize",
}


def loaded_names(node: ast.AST):
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            yield sub.id
        elif isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
            yield sub.attr


def unread_functions(sources: dict[str, str]) -> set[str]:
    """Public module-level functions of sources (file name -> text, `__init__.py`
    defining none) that no module loads outside the function's own body."""
    defined, readers = set(), {}
    for name, source in sources.items():
        for stmt in ast.parse(source).body:
            owner = stmt.name if isinstance(stmt, ast.FunctionDef) else None
            if owner and not owner.startswith("_") and name != "__init__.py":
                defined.add(owner)
            for read in loaded_names(stmt):
                readers.setdefault(read, set()).add(owner)
    return {f for f in defined if not readers.get(f, set()) - {f}}


@pytest.mark.parametrize("sources,unread", [
    ({"a.py": "def f(): pass\ndef g(): f()\n"}, {"g"}),
    ({"a.py": "def f(): f()\n"}, {"f"}),
    ({"a.py": "def f(): pass\n", "b.py": "from a import f\n"}, {"f"}),
    ({"a.py": "def f(): pass\n", "b.py": "import a\nx = a.f\n"}, set()),
    ({"a.py": "def _f(): pass\n"}, set()),
    ({"__init__.py": "def f(): pass\n"}, set()),
], ids=["caller", "recursion-only", "import-only", "attribute", "private", "package-init"])
def test_the_unread_check_itself(sources, unread):
    assert unread_functions(sources) == unread


def test_library_functions_are_read_by_the_library():
    sources = {path.name: path.read_text(encoding="utf-8") for path in SRC}
    assert "demod.py" in sources
    assert unread_functions(sources) == UNREAD_BY_LIBRARY


# Public methods and properties read by no library code, named as
# Class.method. benchmarks/tracing.py reads all three; item 7 removes them.
# Reads are matched by attribute name alone, so RandomSource.uniform passes
# only because cli reads args.uniform.
UNREAD_METHODS_BY_LIBRARY = {
    "ModPlan.padding_bits",
    "RandomSource.bernoulli",
    "RandomSource.normal_pair",
}


def attribute_loads(node: ast.AST) -> list[str]:
    return [sub.attr for sub in ast.walk(node)
            if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load)]


def unread_methods(sources: dict[str, str]) -> set[str]:
    """Public methods and properties of the classes in sources (file name ->
    text) that no module loads as an attribute outside the method's own body."""
    methods, loads = [], []
    for source in sources.values():
        tree = ast.parse(source)
        loads += attribute_loads(tree)
        methods += [(cls.name, item) for cls in tree.body if isinstance(cls, ast.ClassDef)
                    for item in cls.body if isinstance(item, ast.FunctionDef)
                    and not item.name.startswith("_")]
    return {f"{cls}.{method.name}" for cls, method in methods
            if loads.count(method.name) == attribute_loads(method).count(method.name)}


@pytest.mark.parametrize("sources,unread", [
    ({"a.py": "class A:\n    def f(self): pass\nA().f()\n"}, set()),
    ({"a.py": "class A:\n    def f(self): self.f()\n"}, {"A.f"}),
    ({"a.py": "class A:\n    def f(self): pass\n", "b.py": "x.f\n"}, set()),
    ({"a.py": "class A:\n    @property\n    def f(self): pass\n"}, {"A.f"}),
    ({"a.py": "class A:\n    def f(self): pass\nx.f = 1\n"}, {"A.f"}),
    ({"a.py": "class A:\n    def _f(self): pass\n    def __init__(self): pass\n"}, set()),
], ids=["caller", "recursion-only", "other-module", "property", "only-stored", "private"])
def test_the_unread_method_check_itself(sources, unread):
    assert unread_methods(sources) == unread


def test_library_methods_are_read_by_the_library():
    sources = {path.name: path.read_text(encoding="utf-8") for path in SRC}
    assert "numerics.py" in sources
    assert unread_methods(sources) == UNREAD_METHODS_BY_LIBRARY


def executor_uses(source: str) -> set[tuple[str | None, str]]:
    """(function, use) of each import and each read of a name ending in
    Executor, such as ThreadPoolExecutor, in source. function is the name of
    the innermost enclosing function, or None at module level; use is
    "import" or "read"."""
    uses = set()

    def visit(node: ast.AST, owner: str | None):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Import | ast.ImportFrom):
                if any(alias.name.endswith("Executor") for alias in child.names):
                    uses.add((owner, "import"))
            elif (isinstance(child, ast.Name) and child.id.endswith("Executor")
                  or isinstance(child, ast.Attribute) and child.attr.endswith("Executor")):
                uses.add((owner, "read"))
            is_function = isinstance(child, ast.FunctionDef | ast.AsyncFunctionDef | ast.Lambda)
            visit(child, getattr(child, "name", "<lambda>") if is_function else owner)

    visit(ast.parse(source), None)
    return uses


@pytest.mark.parametrize("text,uses", [
    ("from concurrent.futures import ThreadPoolExecutor\n"
     "def f():\n    with ThreadPoolExecutor(1) as p: pass\n",
     {(None, "import"), ("f", "read")}),
    ("def f():\n    from concurrent.futures import ProcessPoolExecutor as P\n    P()\n",
     {("f", "import")}),
    ("import concurrent.futures\nclass A:\n    def g(self):\n"
     "        return concurrent.futures.ThreadPoolExecutor()\n", {("g", "read")}),
    ("x = lambda: futures.ThreadPoolExecutor\n", {("<lambda>", "read")}),
    ("from concurrent.futures import Future\n", set()),
], ids=["module-import", "function-import-alias", "attribute-in-method", "lambda", "other-name"])
def test_the_executor_check_itself(text, uses):
    assert executor_uses(text) == uses


def test_one_function_makes_the_library_executor():
    """Draw-ahead has one copy: numerics imports ThreadPoolExecutor, and
    drawn_ahead is the one library function that reads it."""
    uses = {(path.name, *use) for path in SRC
            for use in executor_uses(path.read_text(encoding="utf-8"))}
    assert uses == {("numerics.py", None, "import"), ("numerics.py", "drawn_ahead", "read")}


SUBMODULES = {"adaptmod", "bsec", "channel", "constellation", "datasets", "demod",
              "errors", "harness", "jscc", "nn", "numerics"}


def run_probe(probe: str) -> list[str]:
    """stdout lines of `python -c probe` in a fresh process that finds src/."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=env, check=True)
    return done.stdout.splitlines()


def test_package_import_loads_the_submodules():
    """`import semlink` loads and binds every submodule but the CLI, so
    `semlink.harness` resolves and timing the import times their loading."""
    probe = ("import sys, types, semlink; "
             "print(sorted(k[8:] for k in sys.modules if k.startswith('semlink.'))); "
             "print(sorted(k for k, v in vars(semlink).items() "
             "if isinstance(v, types.ModuleType)))")
    assert run_probe(probe) == [str(sorted(SUBMODULES))] * 2


def test_package_import_loads_only_numpy_scipy_special_and_the_standard_library():
    """Importing the package is most of a benchmark's set-up time, so it loads
    no third-party module beyond numpy and scipy.special and what they load."""
    probe = ("import sys, numpy, scipy.special; before = set(sys.modules); import semlink; "
             "print(sorted(k for k in set(sys.modules) - before if k.partition('.')[0] "
             "not in sys.stdlib_module_names | {'semlink'}))")
    assert run_probe(probe) == ["[]"]
