"""Surface syntax: tokens, parsing, printing, and their round trip."""

import pytest

from wysx.lang import App, Bool, Const, FfiInt, Var
from wysx.sexp import ParseError, parse, print_expr, tokenize

from _proggen import gen_program


def test_tokenize_basics():
    toks = tokenize("(add x1 -3)")
    assert [t.kind for t in toks] == ["lparen", "sym", "sym", "int", "rparen"]
    assert toks[3].text == "-3"


def test_tokenize_strings_and_comments():
    toks = tokenize('; header\n(f "a b\\"c")  ; tail')
    kinds = [t.kind for t in toks]
    assert kinds == ["lparen", "sym", "str", "rparen"]
    assert toks[2].text == 'a b"c'


def test_tokenize_tracks_positions():
    toks = tokenize("(f\n  x)")
    x = toks[2]
    assert (x.line, x.col) == (2, 3)


def test_parse_application_curries():
    e = parse("(f x y)")
    assert e == App(App(Var("f"), Var("x")), Var("y"))


def test_parse_literals():
    assert parse("42") == Const(FfiInt(42))
    assert parse("-7") == Const(FfiInt(-7))
    assert parse("true") == Const(Bool(True))
    assert parse('""').v.s == ""


def test_parse_errors():
    bad = [
        "(",                      # unbalanced
        "(let x 1)",              # missing body
        "(lam)",                  # missing binder
        "(lam 3 x)",              # binder must be a name
        "(prins)",                # empty party set
        "(let if 1 2)",           # reserved word as binder
        "(ffi 3 x)",              # op must be a name
        "1 2",                    # trailing input
        "(tuple 1 2 3)",          # pairs are binary
        '"unterminated',
    ]
    for src in bad:
        with pytest.raises(ParseError):
            parse(src)


def test_parse_error_carries_position():
    try:
        parse("(let x\n  (lam) x)")
    except ParseError as ex:
        assert ex.line == 2
    else:
        assert False


def test_reserved_words_stay_reserved():
    with pytest.raises(ParseError):
        parse("(lam reveal reveal)")
    with pytest.raises(ParseError):
        parse("(fix lam x x)")


def test_print_parse_round_trip_on_forms():
    srcs = [
        "(let x 1 (ffi add x 2))",
        "(as_sec (prins a b) (lam _ (reveal q)))",
        "(as_par (prins c) (lam _ (seal (prins c) 9)))",
        '(if true "yes" (list 1 2))',
        "(fix f n (if (ffi eq n 0) 1 (f (ffi sub n 1))))",
        "(tuple 1 (tuple 2 3))",
        "(project (prin a) (mkmap (prins a) m))",
        "(concat m1 m2)",
        "((lam x (x x)) (lam x (x x)))",
    ]
    for src in srcs:
        e = parse(src)
        assert parse(print_expr(e)) == e


def test_print_parse_round_trip_generated():
    for seed in range(300):
        e = gen_program(seed)
        assert parse(print_expr(e)) == e, seed

