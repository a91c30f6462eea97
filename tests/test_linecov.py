"""The statement table and the tracer of ``tools/linecov.py``."""

import importlib.util
import sys
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "tools" / "linecov.py"
_SPEC = importlib.util.spec_from_file_location("linecov", _PATH)
linecov = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(linecov)

SOURCE = '''"""The module's docstring."""
import os


@decorate
def f(x,
      y):
    """f's docstring."""
    global G
    if x:
        return (x +
                y)
    try:
        g()
    except E:
        pass


class C:
    n: int
'''


def test_statements_and_the_lines_each_reports():
    # docstrings and ``global`` are left out; a header runs from the first
    # decorator to the line before its body, a simple statement is whole
    assert linecov.statements(SOURCE) == {
        2: range(2, 3), 6: range(5, 8), 10: range(10, 11),
        11: range(11, 13), 13: range(13, 14), 14: range(14, 15),
        16: range(16, 17), 19: range(19, 20), 20: range(20, 21),
    }


def test_a_statement_is_missed_when_none_of_its_lines_ran():
    stmts = linecov.statements(SOURCE)
    assert linecov.missed(stmts, {5, 12, 13, 20}) == [2, 10, 14, 16, 19]


def test_the_collector_records_the_lines_of_its_files_only():
    c = linecov.Collector(["<probe>"])
    ns = {}
    exec(compile("def g(a):\n    b = a\n    return b\n", "<probe>", "exec"),
         ns)
    old = sys.gettrace()
    sys.settrace(c.trace)
    try:
        assert ns["g"](1) == 1
        assert len("abc") == 3
    finally:
        sys.settrace(old)
    assert c.hits == {"<probe>": {2, 3}}


def test_the_report_gives_each_module_its_missed_lines_and_the_totals():
    f = str(linecov.PACKAGE / "sexp.py")
    stmts = linecov.statements(Path(f).read_text(encoding="utf-8"))
    first, second, *rest = sorted(stmts)
    c = linecov.Collector([f])
    c.hits[f].update(line for k in rest for line in stmts[k])
    n = len(stmts)
    assert linecov.report(c, 1) == (
        f"src/wysx/sexp.py: 2 of {n} statements missed: {first}, {second}\n"
        f"total: {n - 2} of {n} statements run "
        f"({100 * (n - 2) / n:.1f} %), 2 missed; tests exit status 1")
