"""Concrete syntax: s-expressions.

Forms:

    (prin a)            principal literal
    (prins a b)         principal-set literal
    5  true  "s"  ()    scalar literals
    (let x e1 e2)       binding
    (lam x e)           function
    (fix f x e)         recursive function
    (f a b)             application, curried left to right
    (if c t e)          conditional
    (as_par ps f)       run a thunk as each listed party
    (as_sec ps f)       run a thunk jointly
    (seal ps e)         address a value to a set
    (reveal e)          open an addressed value
    (mkmap ps e)        build a per-party map
    (project p m)       read one party's entry
    (concat m1 m2)      disjoint map union
    (ffi name e...)     host call
    (list e...)         sugar for (ffi list ...)
    (tuple e1 e2)       sugar for (ffi pair ...)

Comments run from ';' to end of line. The printer inverts the parser:
parsing what it prints yields the same tree.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .lang import (
    App, AsPar, AsSec, Bool, Concat, Const, Expr, FALSE, Ffi, FfiInt, FfiStr,
    Fix, If, Lam, Let, MkMap, PrinSet, PrinVal, PrinsVal, Project, Reveal,
    Seal, TRUE, UNIT, Unit, Value, Var, WysError,
)


class ParseError(WysError):
    def __init__(self, msg: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {msg}")
        self.line = line
        self.col = col


RESERVED = {
    "let", "lam", "fix", "if", "as_par", "as_sec", "seal", "reveal",
    "mkmap", "project", "concat", "ffi", "list", "tuple", "prin", "prins",
    "true", "false",
}

_DELIMS = set("(); \t\r\n\"")

# The parser recurses up to twice per open parenthesis; this bound keeps the
# deepest accepted program well inside Python's default recursion limit.
MAX_NESTING = 400


@dataclass(frozen=True)
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
    if w.startswith("-"):
        w = w[1:]
    return w.isdigit() and w != ""


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
        t = self.next("an expression")
        if t.kind == "int":
            return Const(FfiInt(int(t.text)))
        if t.kind == "str":
            return Const(FfiStr(t.text))
        if t.kind == "sym":
            if t.text == "true":
                return Const(TRUE)
            if t.text == "false":
                return Const(FALSE)
            if t.text in RESERVED:
                raise ParseError(f"{t.text} is a keyword, not a variable",
                                 t.line, t.col)
            return Var(t.text)
        if t.kind == "rparen":
            raise ParseError("unexpected )", t.line, t.col)
        # lparen
        head = self.peek()
        if head is None:
            raise ParseError("unterminated (", t.line, t.col)
        if head.kind == "rparen":
            self.next(")")
            return Const(UNIT)
        if head.kind == "sym" and head.text in RESERVED:
            self.next("keyword")
            return self.form(head)
        # application
        fn = self.expr()
        args = []
        while True:
            nxt = self.peek()
            if nxt is None:
                raise ParseError("unterminated (", t.line, t.col)
            if nxt.kind == "rparen":
                self.next(")")
                break
            args.append(self.expr())
        if not args:
            raise ParseError("application needs an argument", t.line, t.col)
        out = fn
        for a in args:
            out = App(out, a)
        return out

    def close(self, head: Tok):
        t = self.next(")")
        if t.kind != "rparen":
            raise ParseError(f"too many parts in ({head.text} ...)",
                             t.line, t.col)

    def binder(self, head: Tok) -> str:
        t = self.next("a variable name")
        if t.kind != "sym":
            raise ParseError(f"({head.text} ...) needs a variable name",
                             t.line, t.col)
        if t.text in RESERVED or t.text in ("true", "false"):
            raise ParseError(f"{t.text} is a keyword, not a variable",
                             t.line, t.col)
        return t.text

    def prin_name(self, head: Tok) -> str:
        t = self.next("a principal name")
        if t.kind != "sym" or t.text in RESERVED:
            raise ParseError(f"({head.text} ...) needs principal names",
                             t.line, t.col)
        return t.text

    def form(self, head: Tok) -> Expr:
        k = head.text
        if k == "prin":
            name = self.prin_name(head)
            self.close(head)
            return Const(PrinVal(name))
        if k == "prins":
            names = []
            while True:
                t = self.peek()
                if t is None:
                    raise ParseError("unterminated (prins", head.line, head.col)
                if t.kind == "rparen":
                    self.next(")")
                    break
                names.append(self.prin_name(head))
            if not names:
                raise ParseError("(prins) needs at least one principal",
                                 head.line, head.col)
            return Const(PrinsVal(PrinSet.of(*names)))
        if k == "let":
            x = self.binder(head)
            bound = self.expr()
            body = self.expr()
            self.close(head)
            return Let(x, bound, body)
        if k == "lam":
            x = self.binder(head)
            body = self.expr()
            self.close(head)
            return Lam(x, body)
        if k == "fix":
            f = self.binder(head)
            x = self.binder(head)
            body = self.expr()
            self.close(head)
            return Fix(f, x, body)
        if k == "if":
            c = self.expr()
            t = self.expr()
            e = self.expr()
            self.close(head)
            return If(c, t, e)
        if k == "as_par" or k == "as_sec":
            ps = self.expr()
            fn = self.expr()
            self.close(head)
            return AsPar(ps, fn) if k == "as_par" else AsSec(ps, fn)
        if k == "seal":
            ps = self.expr()
            body = self.expr()
            self.close(head)
            return Seal(ps, body)
        if k == "reveal":
            e = self.expr()
            self.close(head)
            return Reveal(e)
        if k == "mkmap":
            ps = self.expr()
            v = self.expr()
            self.close(head)
            return MkMap(ps, v)
        if k == "project":
            p = self.expr()
            m = self.expr()
            self.close(head)
            return Project(p, m)
        if k == "concat":
            m1 = self.expr()
            m2 = self.expr()
            self.close(head)
            return Concat(m1, m2)
        if k == "ffi":
            t = self.next("a host function name")
            if t.kind != "sym":
                raise ParseError("(ffi ...) needs a function name",
                                 t.line, t.col)
            args = []
            while True:
                nxt = self.peek()
                if nxt is None:
                    raise ParseError("unterminated (ffi", head.line, head.col)
                if nxt.kind == "rparen":
                    self.next(")")
                    break
                args.append(self.expr())
            return Ffi(t.text, tuple(args))
        if k == "list":
            args = []
            while True:
                nxt = self.peek()
                if nxt is None:
                    raise ParseError("unterminated (list", head.line, head.col)
                if nxt.kind == "rparen":
                    self.next(")")
                    break
                args.append(self.expr())
            return Ffi("list", tuple(args))
        if k == "tuple":
            a = self.expr()
            b = self.expr()
            self.close(head)
            return Ffi("pair", (a, b))
        if k in ("true", "false"):
            raise ParseError(f"{k} is not a form", head.line, head.col)
        raise ParseError(f"unknown form {k}", head.line, head.col)


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

def print_expr(e: Expr) -> str:
    t = type(e)
    if t is Const:
        return _print_literal(e.v)
    if t is Var:
        return e.x
    if t is Let:
        return f"(let {e.x} {print_expr(e.bound)} {print_expr(e.body)})"
    if t is Lam:
        return f"(lam {e.x} {print_expr(e.body)})"
    if t is Fix:
        return f"(fix {e.f} {e.x} {print_expr(e.body)})"
    if t is App:
        parts = []
        cur = e
        while type(cur) is App:
            parts.append(cur.arg)
            cur = cur.fn
        parts.append(cur)
        parts.reverse()
        return "(" + " ".join(print_expr(p) for p in parts) + ")"
    if t is If:
        return (f"(if {print_expr(e.cond)} {print_expr(e.then)} "
                f"{print_expr(e.els)})")
    if t is AsPar:
        return f"(as_par {print_expr(e.ps)} {print_expr(e.fn)})"
    if t is AsSec:
        return f"(as_sec {print_expr(e.ps)} {print_expr(e.fn)})"
    if t is Seal:
        return f"(seal {print_expr(e.ps)} {print_expr(e.body)})"
    if t is Reveal:
        return f"(reveal {print_expr(e.e)})"
    if t is MkMap:
        return f"(mkmap {print_expr(e.ps)} {print_expr(e.v)})"
    if t is Project:
        return f"(project {print_expr(e.prin)} {print_expr(e.m)})"
    if t is Concat:
        return f"(concat {print_expr(e.m1)} {print_expr(e.m2)})"
    if t is Ffi:
        if e.name == "list":
            inner = " ".join(print_expr(a) for a in e.args)
            return f"(list {inner})" if inner else "(list)"
        if e.name == "pair" and len(e.args) == 2:
            return f"(tuple {print_expr(e.args[0])} {print_expr(e.args[1])})"
        inner = " ".join(print_expr(a) for a in e.args)
        return f"(ffi {e.name} {inner})" if inner else f"(ffi {e.name})"
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
