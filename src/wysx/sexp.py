"""Concrete syntax: s-expressions.

Forms:

    (prin a)            principal literal
    (prins a b)         principal-set literal
    5  true  "s"  ()    scalar literals
    (f a b)             application, curried left to right
    (ffi name e...)     host call
    (list e...)         sugar for (ffi list ...)
    (tuple e1 e2)       sugar for (ffi pair ...)

and the fixed-arity forms of ``FORMS``. Comments run from ';' to end of
line. The printer inverts the parser: parsing what it prints yields the
same tree.
"""

from __future__ import annotations

from typing import Optional

from .lang import (
    App, AsPar, AsSec, Bool, Concat, Const, Expr, FALSE, Ffi, FfiInt, FfiStr,
    Fix, If, Lam, Let, MkMap, PrinSet, PrinVal, PrinsVal, Project, Reveal,
    Seal, TRUE, UNIT, Unit, Value, Var, WysError, record,
)
from .ffi import fits64


class ParseError(WysError):
    def __init__(self, msg: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {msg}")
        self.line = line
        self.col = col


# The fixed-arity forms: keyword -> (node class, the kinds of its parts in
# the class's field order), where "x" is a variable name and "e" an
# expression.
FORMS = {
    "let": (Let, "xee"),         # (let x e1 e2)   binding
    "lam": (Lam, "xe"),          # (lam x e)       function
    "fix": (Fix, "xxe"),         # (fix f x e)     recursive function
    "if": (If, "eee"),           # (if c t e)      conditional
    "as_par": (AsPar, "ee"),     # (as_par ps f)   run a thunk as each party
    "as_sec": (AsSec, "ee"),     # (as_sec ps f)   run a thunk jointly
    "seal": (Seal, "ee"),        # (seal ps e)     address a value to a set
    "reveal": (Reveal, "e"),     # (reveal e)      open an addressed value
    "mkmap": (MkMap, "ee"),      # (mkmap ps e)    build a per-party map
    "project": (Project, "ee"),  # (project p m)   read one party's entry
    "concat": (Concat, "ee"),    # (concat m1 m2)  disjoint map union
}

RESERVED = {*FORMS, "ffi", "list", "tuple", "prin", "prins", "true", "false"}

_DELIMS = set("(); \t\r\n\"")

# The parser recurses once per open parenthesis; this bound keeps the
# deepest accepted program well inside Python's default recursion limit.
MAX_NESTING = 400


@record
class Tok:
    kind: str  # lparen rparen int str sym
    text: str
    line: int
    col: int


def tokenize(src: str) -> list[Tok]:
    toks = []
    i, line, col = 0, 1, 1
    n = len(src)
    depth = 0
    while i < n:
        ch = src[i]
        if ch == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == ";":
            while i < n and src[i] != "\n":
                i += 1
            continue
        if ch == "(":
            depth += 1
            if depth > MAX_NESTING:
                raise ParseError(f"nesting deeper than {MAX_NESTING}", line, col)
            toks.append(Tok("lparen", "(", line, col))
            i += 1
            col += 1
            continue
        if ch == ")":
            depth -= 1
            toks.append(Tok("rparen", ")", line, col))
            i += 1
            col += 1
            continue
        if ch == '"':
            start_line, start_col = line, col
            i += 1
            col += 1
            buf = []
            while True:
                if i >= n:
                    raise ParseError("unterminated string", start_line, start_col)
                c = src[i]
                if c == '"':
                    i += 1
                    col += 1
                    break
                if c == "\\":
                    if i + 1 >= n:
                        raise ParseError("dangling escape", line, col)
                    nxt = src[i + 1]
                    if nxt == "n":
                        buf.append("\n")
                    elif nxt == "t":
                        buf.append("\t")
                    elif nxt in ('"', "\\"):
                        buf.append(nxt)
                    else:
                        raise ParseError(f"unknown escape \\{nxt}", line, col)
                    i += 2
                    col += 2
                    continue
                if c == "\n":
                    raise ParseError("newline in string", line, col)
                buf.append(c)
                i += 1
                col += 1
            toks.append(Tok("str", "".join(buf), start_line, start_col))
            continue
        # symbol or number
        start = i
        start_col = col
        while i < n and src[i] not in _DELIMS:
            i += 1
            col += 1
        word = src[start:i]
        if _is_int(word):
            toks.append(Tok("int", word, line, start_col))
        else:
            toks.append(Tok("sym", word, line, start_col))
    return toks


def _is_int(w: str) -> bool:
    """ASCII digits after an optional minus: ``str.isdigit`` alone also
    accepts digits such as ``²`` that ``int`` refuses."""
    if w.startswith("-"):
        w = w[1:]
    return w.isascii() and w.isdigit()


def is_variable(word: str) -> bool:
    """Whether ``word`` reads as a variable: one symbol token (not empty, no
    delimiter, not an integer literal) that is not a keyword."""
    return (word != "" and not _is_int(word) and word not in RESERVED
            and _DELIMS.isdisjoint(word))


class _Parser:
    def __init__(self, toks: list[Tok]):
        self.toks = toks
        self.i = 0

    def peek(self) -> Optional[Tok]:
        return self.toks[self.i] if self.i < len(self.toks) else None

    def next(self, expected: str) -> Tok:
        t = self.peek()
        if t is None:
            last = self.toks[-1] if self.toks else Tok("", "", 1, 1)
            raise ParseError(f"expected {expected}, found end of input",
                             last.line, last.col)
        self.i += 1
        return t

    def expr(self) -> Expr:
        # One frame per parenthesis: forms read their parts in this frame's
        # loops, never through a helper that itself calls ``expr``.
        t = self.next("an expression")
        if t.kind == "int":
            # a literal of more digits than 2**63 has is out of range, and
            # ``int`` is not asked to read it
            if len(t.text.lstrip("-0")) > 19 or not fits64(n := int(t.text)):
                raise ParseError(f"integer {t.text} does not fit 64 bits",
                                 t.line, t.col)
            return Const(FfiInt(n))
        if t.kind == "str":
            return Const(FfiStr(t.text))
        if t.kind == "sym":
            if t.text == "true":
                return Const(TRUE)
            if t.text == "false":
                return Const(FALSE)
            if not is_variable(t.text):
                raise ParseError(f"{t.text} is a keyword, not a variable",
                                 t.line, t.col)
            return Var(t.text)
        if t.kind == "rparen":
            raise ParseError("unexpected )", t.line, t.col)
        head = self.peek()
        if head is None:
            raise ParseError("unterminated (", t.line, t.col)
        if head.kind == "rparen":
            self.i += 1
            return Const(UNIT)
        k = head.text if head.kind == "sym" and head.text in RESERVED else ""
        if k:
            self.i += 1
        if k in FORMS or k == "tuple":
            make, kinds = FORMS.get(k, (_pair, "ee"))
            parts = []
            for kind in kinds:
                parts.append(self.binder(k) if kind == "x" else self.expr())
            self.close(k)
            return make(*parts)
        if k == "prin":
            name = self.prin_name(k)
            self.close(k)
            return Const(PrinVal(name))
        if k in ("true", "false"):
            raise ParseError(f"{k} is not a form", head.line, head.col)
        # the variadic tail of an application, ffi, list or prins
        if k == "ffi":
            name = self.next("a host function name")
            if name.kind != "sym":
                raise ParseError("(ffi ...) needs a function name",
                                 name.line, name.col)
        if not k:
            head = t  # an application reports at its "("
        items = [] if k else [self.expr()]
        while True:
            nxt = self.peek()
            if nxt is None:
                raise ParseError(f"unterminated ({k}", head.line, head.col)
            if nxt.kind == "rparen":
                self.i += 1
                break
            items.append(self.prin_name(k) if k == "prins" else self.expr())
        if k == "ffi":
            return Ffi(name.text, tuple(items))
        if k == "list":
            return Ffi("list", tuple(items))
        if k == "prins":
            if not items:
                raise ParseError("(prins) needs at least one principal",
                                 head.line, head.col)
            return Const(PrinsVal(PrinSet.of(*items)))
        if len(items) == 1:
            raise ParseError("application needs an argument", t.line, t.col)
        out = items[0]
        for a in items[1:]:
            out = App(out, a)
        return out

    def close(self, k: str):
        t = self.next(")")
        if t.kind != "rparen":
            raise ParseError(f"too many parts in ({k} ...)", t.line, t.col)

    def binder(self, k: str) -> str:
        t = self.next("a variable name")
        if t.kind != "sym":
            raise ParseError(f"({k} ...) needs a variable name", t.line, t.col)
        if not is_variable(t.text):
            raise ParseError(f"{t.text} is a keyword, not a variable",
                             t.line, t.col)
        return t.text

    def prin_name(self, k: str) -> str:
        t = self.next("a principal name")
        if t.kind != "sym" or t.text in RESERVED:
            raise ParseError(f"({k} ...) needs principal names", t.line, t.col)
        return t.text


def _pair(a: Expr, b: Expr) -> Expr:
    return Ffi("pair", (a, b))


def parse(src: str) -> Expr:
    toks = tokenize(src)
    if not toks:
        raise ParseError("empty program", 1, 1)
    p = _Parser(toks)
    e = p.expr()
    left = p.peek()
    if left is not None:
        raise ParseError("trailing input after the program",
                         left.line, left.col)
    return e


# ---------------------------------------------------------------------------
# printing

# node class -> (keyword, (field name, part kind) for each field)
_SPELLING = {
    cls: (k, tuple(zip(cls._fields, kinds)))
    for k, (cls, kinds) in FORMS.items()
}


def print_expr(e: Expr) -> str:
    t = type(e)
    if t is Const:
        return _print_literal(e.v)
    if t is Var:
        return e.x
    if t in _SPELLING:
        k, parts = _SPELLING[t]
        out = "(" + k
        for name, kind in parts:
            v = getattr(e, name)
            out += " " + (v if kind == "x" else print_expr(v))
        return out + ")"
    if t is App:
        items = []
        while type(e) is App:
            items.append(e.arg)
            e = e.fn
        items.append(e)
        return "(" + " ".join(map(print_expr, reversed(items))) + ")"
    if t is Ffi:
        if e.name == "pair" and len(e.args) == 2:
            k = "tuple"
        else:
            k = "list" if e.name == "list" else "ffi " + e.name
        return "(" + " ".join([k, *map(print_expr, e.args)]) + ")"
    raise WysError(f"cannot print {e!r}")


def _print_literal(v: Value) -> str:
    t = type(v)
    if t is FfiInt:
        return str(v.n)
    if t is Bool:
        return "true" if v.b else "false"
    if t is FfiStr:
        s = v.s.replace("\\", "\\\\").replace('"', '\\"')
        s = s.replace("\n", "\\n").replace("\t", "\\t")
        return f'"{s}"'
    if t is Unit:
        return "()"
    if t is PrinVal:
        return f"(prin {v.name})"
    if t is PrinsVal:
        return "(prins " + " ".join(v.ps.names) + ")"
    raise WysError(f"not a literal: {v!r}")
