"""Every module of the package, the tests, the tools and the benchmark uses
every name it imports, and every name the package defines at top level,
and every method of its classes, is used somewhere in the sources, tests
or benchmark. The package imports only the standard library and no
underscored name of its own modules, and loading it skips the costly
modules it has no need of."""

import ast
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "wysx"


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                imported[a.asname or a.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                imported[a.asname or a.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(f"{name} (line {line})"
                  for name, line in imported.items() if name not in used)


@pytest.mark.parametrize(
    "path", [*sorted(SRC.glob("*.py")),
             *(p for d in ("tests", "tools", "bench")
               for p in sorted((ROOT / d).rglob("*.py")))],
    ids=lambda p: (p.name if p.parent == SRC
                   else p.relative_to(ROOT).as_posix()))
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_unused_import_is_reported():
    src = ("from __future__ import annotations\n"
           "import os.path\n"
           "from typing import Optional, Union\n"
           "x: Optional[int] = None\n")
    assert unused_imports(src) == ["Union (line 3)", "os (line 2)"]


def top_level_definitions(tree: ast.Module):
    """(name, statement) for every function, class and plain name the
    module defines at top level; dunder names are left out."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = getattr(node, "targets", None) or [node.target]
            names = [n.id for t in targets for n in ast.walk(t)
                     if isinstance(n, ast.Name)]
        else:
            continue
        for name in names:
            if not name.startswith("__"):
                yield name, node


def referenced_names(node: ast.AST) -> set[str]:
    """Names read, attributes accessed and names imported under ``node``."""
    out = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
        elif isinstance(n, ast.alias):
            out.add(n.name.split(".")[-1])
    return out


def methods(tree: ast.Module):
    """(class name, method) for every method of the module's top-level
    classes; dunder methods, which the language calls, are left out."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not item.name.startswith("__")):
                    yield node.name, item


def attributes(node: ast.AST) -> Counter:
    """How often each attribute name is accessed under ``node``."""
    return Counter(n.attr for n in ast.walk(node)
                   if isinstance(n, ast.Attribute))


def unused_definitions(defining: dict[str, str],
                       others: list[str]) -> list[str]:
    """``module.name`` for each top-level definition in the ``defining``
    sources (module name -> text) that no other statement of those sources
    or of ``others`` references, and ``module.Class.name`` for each method
    whose name no code outside its own body accesses as an attribute."""
    refs: dict[str, int] = {}  # name -> referencing top-level statements
    attrs = Counter()  # attribute name -> accesses
    trees = {m: ast.parse(text) for m, text in defining.items()}
    for tree in [*trees.values(), *map(ast.parse, others)]:
        for stmt in tree.body:
            for name in referenced_names(stmt):
                refs[name] = refs.get(name, 0) + 1
        attrs += attributes(tree)
    dead = []
    for module, tree in trees.items():
        for name, stmt in top_level_definitions(tree):
            own = 1 if name in referenced_names(stmt) else 0
            if refs.get(name, 0) == own:
                dead.append(f"{module}.{name}")
        for cls, fn in methods(tree):
            if attrs[fn.name] == attributes(fn)[fn.name]:
                dead.append(f"{module}.{cls}.{fn.name}")
    return sorted(dead)


def test_every_definition_is_used():
    defining = {p.stem: p.read_text(encoding="utf-8")
                for p in sorted(SRC.glob("*.py"))}
    others = [p.read_text(encoding="utf-8")
              for d in ("tests", "bench")
              for p in sorted((ROOT / d).rglob("*.py"))]
    assert unused_definitions(defining, others) == []


def test_unused_definition_is_reported():
    lib = ("LIMIT = 3\n"
           "def fact(n):\n"
           "    return 1 if n < 2 else n * fact(n - 1)\n"
           "def helper():\n"
           "    return LIMIT\n"
           "class Old:\n"
           "    def again(self):\n"
           "        return Old()\n"
           "class Walker:\n"
           "    def __init__(self):\n"
           "        self.n = 0\n"
           "    def walk(self, n):\n"
           "        return self.step(n)\n"
           "    def step(self, n):\n"
           "        return n and self.step(n - 1)\n"
           "    def _secret_int(self):\n"
           "        return self._secret_int\n")
    user = ("from lib import Walker, helper\n"
            "helper()\n"
            "Walker().walk(3)\n")
    # a recursive call or a use inside the class itself does not count, nor
    # does a method's use of itself; a dunder method is the language's
    assert unused_definitions({"lib": lib}, [user]) == [
        "lib.Old", "lib.Old.again", "lib.Walker._secret_int", "lib.fact"]


def foreign_imports(source: str) -> list[str]:
    """Absolute imports of modules outside the standard library."""
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names += [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module)
    return sorted(n for n in names
                  if n.split(".")[0] not in sys.stdlib_module_names)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_package_imports_only_the_standard_library(path):
    assert foreign_imports(path.read_text(encoding="utf-8")) == []


def test_foreign_import_is_reported():
    src = ("import os.path, numpy as np\n"
           "from . import lang\n"
           "from pytest import raises\n")
    assert foreign_imports(src) == ["numpy", "pytest"]


def private_imports(source: str) -> list[str]:
    """Underscored names imported from a module of the package."""
    return sorted(
        f"{'.' * node.level}{node.module or ''} {a.name}"
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) and (
            node.level or node.module.split(".")[0] == "wysx")
        for a in node.names if a.name.startswith("_"))


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_package_imports_no_private_name_of_its_own(path):
    assert private_imports(path.read_text(encoding="utf-8")) == []


def test_private_import_is_reported():
    src = ("from __future__ import annotations\n"
           "from os import _exit\n"
           "from .st import _plug, run\n"
           "from . import _hidden\n"
           "from wysx.lang import _x\n")
    assert private_imports(src) == [". _hidden", ".st _plug",
                                    "wysx.lang _x"]


def test_loading_the_package_skips_dataclasses_and_inspect():
    # records come from ``lang.record``; ``dataclasses``, and ``inspect``
    # under it, would add their own import time to every process. ``-S``
    # keeps out what an installation's ``.pth`` files import at start-up.
    code = ("import sys, wysx.cli, wysx.apps; "
            "print(*(m for m in ('dataclasses', 'inspect') "
            "if m in sys.modules))")
    path = os.pathsep.join(filter(None, [str(SRC.parent),
                                         os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-S", "-c", code],
                         capture_output=True, encoding="utf-8", check=True,
                         env={**os.environ, "PYTHONPATH": path})
    assert out.stdout.split() == []
