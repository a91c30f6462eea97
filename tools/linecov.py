"""Which statements of ``src/wysx`` tier-1 runs, with the standard library.

Usage, from anywhere:

    python3 tools/linecov.py

It runs tier-1 (``pytest`` on the checkout's ``tests``) in this process
under a ``sys.settrace`` tracer that records the lines run in the files of
``src/wysx``. The tracer is armed before the
tests are collected, so import-time lines count, and again at each test's
setup and call, since a test that recurses past the limit switches tracing
off. Lines run only in a subprocess count as missed.

The statements are the ``ast`` statement nodes of each module, keyed by
their first line; docstrings and ``global``/``nonlocal`` declarations run
no code and are left out. A statement counts as run when one of its own
lines was: from its first decorator through the end of its header, or the
whole statement if it has no body.

It prints each module's missed statement lines and the totals after the
tests' own output. The exit status is 0 whatever the tests do, as tracing slows every test
and may fail a wall-time budget such as that of card dealing (criterion 9).
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "wysx"


def statements(source: str) -> dict[int, range]:
    """Each statement's first line, mapped to the lines a run of it
    reports."""
    tree = ast.parse(source)
    docstrings = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                docstrings.add(first)
    out = {}
    for node in ast.walk(tree):
        if (not isinstance(node, ast.stmt) or node in docstrings
                or isinstance(node, (ast.Global, ast.Nonlocal))):
            continue
        body = getattr(node, "body", None)
        end = (max(node.lineno, _first_line(body[0]) - 1) if body
               else node.end_lineno)
        out[node.lineno] = range(_first_line(node), end + 1)
    return out


def _first_line(node: ast.stmt) -> int:
    return min([node.lineno]
               + [d.lineno for d in getattr(node, "decorator_list", ())])


def missed(stmts: dict[int, range], hits: set[int]) -> list[int]:
    """The statements of ``stmts`` none of whose lines is in ``hits``."""
    return sorted(k for k, own in stmts.items() if hits.isdisjoint(own))


class Collector:
    """A ``sys.settrace`` tracer that records, per file, the lines run in
    ``files`` and traces no other frame."""

    def __init__(self, files: list[str]):
        self.hits: dict[str, set[int]] = {f: set() for f in files}
        self._local = {f: self._line_tracer(lines)
                       for f, lines in self.hits.items()}

    @staticmethod
    def _line_tracer(lines: set[int]):
        add = lines.add

        def local(frame, event, arg):
            if event == "line":
                add(frame.f_lineno)
            return local
        return local

    def trace(self, frame, event, arg):
        return self._local.get(frame.f_code.co_filename)


def run_tests(collector: Collector) -> int:
    """Run tier-1 under ``collector``; pytest's exit status."""
    import pytest

    class Rearm:
        @pytest.hookimpl(tryfirst=True)
        def pytest_runtest_setup(self, item):
            sys.settrace(collector.trace)

        @pytest.hookimpl(tryfirst=True)
        def pytest_runtest_call(self, item):
            sys.settrace(collector.trace)

    sys.path.insert(0, str(ROOT / "src"))
    sys.settrace(collector.trace)
    try:
        return int(pytest.main(["-q", "-p", "no:cacheprovider",
                                str(ROOT / "tests")], plugins=[Rearm()]))
    finally:
        sys.settrace(None)


def report(collector: Collector, status: int) -> str:
    """One line per module of ``collector`` with its missed statements, then
    the totals and the tests' exit status ``status``."""
    lines, total, missed_total = [], 0, 0
    for f, hits in collector.hits.items():
        stmts = statements(Path(f).read_text(encoding="utf-8"))
        gone = missed(stmts, hits)
        total += len(stmts)
        missed_total += len(gone)
        lines.append(f"{Path(f).relative_to(ROOT).as_posix()}: {len(gone)} "
                     f"of {len(stmts)} statements missed: "
                     f"{', '.join(map(str, gone)) or 'none'}")
    run = total - missed_total
    lines.append(f"total: {run} of {total} statements run "
                 f"({100 * run / total:.1f} %), {missed_total} missed; "
                 f"tests exit status {status}")
    return "\n".join(lines)


def main() -> int:
    collector = Collector(sorted(str(p) for p in PACKAGE.glob("*.py")))
    status = run_tests(collector)
    print(report(collector, status))
    return 0


if __name__ == "__main__":
    sys.exit(main())
