"""Every module of the package, the tests, the tools and the benchmark uses
every name it imports, and every name the package defines at top level is
used somewhere in the sources, tests or benchmark."""

import ast
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


def unused_definitions(defining: dict[str, str],
                       others: list[str]) -> list[str]:
    """``module.name`` for each top-level definition in the ``defining``
    sources (module name -> text) that no other statement of those sources
    or of ``others`` references."""
    refs: dict[str, int] = {}  # name -> referencing top-level statements
    trees = {m: ast.parse(text) for m, text in defining.items()}
    for tree in [*trees.values(), *map(ast.parse, others)]:
        for stmt in tree.body:
            for name in referenced_names(stmt):
                refs[name] = refs.get(name, 0) + 1
    dead = []
    for module, tree in trees.items():
        for name, stmt in top_level_definitions(tree):
            own = 1 if name in referenced_names(stmt) else 0
            if refs.get(name, 0) == own:
                dead.append(f"{module}.{name}")
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
           "        return Old()\n")
    user = "from lib import helper\nhelper()\n"
    # a recursive call or a use inside the class itself does not count
    assert unused_definitions({"lib": lib}, [user]) == ["lib.Old", "lib.fact"]
