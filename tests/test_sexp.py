"""Surface syntax: tokens, parsing, printing, and their round trip."""

import pytest

from wysx.apps import PROGRAM_NAMES, program_source
from wysx.lang import App, Bool, Const, Ffi, FfiInt, FfiStr, Var
from wysx.sexp import (
    MAX_NESTING, ParseError, is_variable, parse, print_expr, tokenize,
)

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


def test_string_escapes_parse_and_print_back():
    src = '"tab\\there\\nnext \\"q\\" \\\\"'
    e = parse(src)
    assert e.v.s == 'tab\there\nnext "q" \\'
    assert print_expr(e) == src
    assert parse(print_expr(e)) == e


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



def test_print_parse_round_trip_bundled():
    for name in PROGRAM_NAMES:
        e = parse(program_source(name))
        assert parse(print_expr(e)) == e, name


# Malformed programs and the exact error each one reports. Every form has a
# missing part, an extra part and an unterminated input.
ERRORS = [
    ("(let x 1)", "1:9: unexpected )"),
    ("(let x 1 2 3)", "1:12: too many parts in (let ...)"),
    ("(let x 1 2", "1:10: expected ), found end of input"),
    ("(let x 1", "1:8: expected an expression, found end of input"),
    ("(let", "1:2: expected a variable name, found end of input"),
    ("(let 1 2 3)", "1:6: (let ...) needs a variable name"),
    ("(lam x)", "1:7: unexpected )"),
    ("(lam x y z)", "1:10: too many parts in (lam ...)"),
    ("(lam x y", "1:8: expected ), found end of input"),
    ('(lam "s" x)', "1:6: (lam ...) needs a variable name"),
    ("(lam)", "1:5: (lam ...) needs a variable name"),
    ("(lam 3 x)", "1:6: (lam ...) needs a variable name"),
    ("(fix f x)", "1:9: unexpected )"),
    ("(fix f x y z)", "1:12: too many parts in (fix ...)"),
    ("(fix f x y", "1:10: expected ), found end of input"),
    ("(fix f", "1:6: expected a variable name, found end of input"),
    ("(if c t)", "1:8: unexpected )"),
    ("(if c t e f)", "1:11: too many parts in (if ...)"),
    ("(if c t e", "1:9: expected ), found end of input"),
    ("(as_par ps)", "1:11: unexpected )"),
    ("(as_par ps f g)", "1:14: too many parts in (as_par ...)"),
    ("(as_par ps f", "1:12: expected ), found end of input"),
    ("(as_sec ps)", "1:11: unexpected )"),
    ("(as_sec ps f g)", "1:14: too many parts in (as_sec ...)"),
    ("(as_sec ps f", "1:12: expected ), found end of input"),
    ("(seal ps)", "1:9: unexpected )"),
    ("(seal ps e f)", "1:12: too many parts in (seal ...)"),
    ("(seal ps e", "1:10: expected ), found end of input"),
    ("(reveal)", "1:8: unexpected )"),
    ("(reveal e f)", "1:11: too many parts in (reveal ...)"),
    ("(reveal e", "1:9: expected ), found end of input"),
    ("(mkmap ps)", "1:10: unexpected )"),
    ("(mkmap ps v w)", "1:13: too many parts in (mkmap ...)"),
    ("(mkmap ps v", "1:11: expected ), found end of input"),
    ("(project p)", "1:11: unexpected )"),
    ("(project p m n)", "1:14: too many parts in (project ...)"),
    ("(project p m", "1:12: expected ), found end of input"),
    ("(concat m)", "1:10: unexpected )"),
    ("(concat m n o)", "1:13: too many parts in (concat ...)"),
    ("(concat m n", "1:11: expected ), found end of input"),
    ("(tuple 1)", "1:9: unexpected )"),
    ("(tuple 1 2 3)", "1:12: too many parts in (tuple ...)"),
    ("(tuple 1 2", "1:10: expected ), found end of input"),
    ("(ffi)", "1:5: (ffi ...) needs a function name"),
    ("(ffi 3 x)", "1:6: (ffi ...) needs a function name"),
    ("(ffi add 1", "1:2: unterminated (ffi"),
    ("(ffi", "1:2: expected a host function name, found end of input"),
    ("(list 1", "1:2: unterminated (list"),
    ("(list", "1:2: unterminated (list"),
    ("(prin)", "1:6: (prin ...) needs principal names"),
    ("(prin a b)", "1:9: too many parts in (prin ...)"),
    ("(prin a", "1:7: expected ), found end of input"),
    ("(prin", "1:2: expected a principal name, found end of input"),
    ("(prin 3)", "1:7: (prin ...) needs principal names"),
    ("(prin if)", "1:7: (prin ...) needs principal names"),
    ("(prins)", "1:2: (prins) needs at least one principal"),
    ("(prins a", "1:2: unterminated (prins"),
    ("(prins a 3)", "1:10: (prins ...) needs principal names"),
    ("(prins a if)", "1:10: (prins ...) needs principal names"),
    ("(lam if x)", "1:6: if is a keyword, not a variable"),
    ("(let true 1 2)", "1:6: true is a keyword, not a variable"),
    ("(fix f lam x)", "1:8: lam is a keyword, not a variable"),
    ("(lam x if)", "1:8: if is a keyword, not a variable"),
    ("(let if 1 2)", "1:6: if is a keyword, not a variable"),
    ("(lam reveal reveal)", "1:6: reveal is a keyword, not a variable"),
    ("(fix lam x x)", "1:6: lam is a keyword, not a variable"),
    ("(f)", "1:1: application needs an argument"),
    ("(f x", "1:1: unterminated ("),
    ("(", "1:1: unterminated ("),
    ("(true 1)", "1:2: true is not a form"),
    ("(false)", "1:2: false is not a form"),
    (")", "1:1: unexpected )"),
    ("1 2", "1:3: trailing input after the program"),
    ("(f x) y", "1:7: trailing input after the program"),
    ("", "1:1: empty program"),
    ('"unterminated', "1:1: unterminated string"),
    ('"ab\\', "1:4: dangling escape"),
    ('(f "a\\q")', "1:6: unknown escape \\q"),
    ('(f\n "a\nb")', "2:4: newline in string"),
    ("(let x\n  (lam) x)", "2:7: (lam ...) needs a variable name"),
]


@pytest.mark.parametrize("src,msg", ERRORS, ids=[s for s, _ in ERRORS])
def test_parse_error_text(src, msg):
    with pytest.raises(ParseError) as info:
        parse(src)
    assert str(info.value) == msg


# Inputs at the edges of the token grammar: each token as (kind, text, line,
# column), and the tree the input parses to.
TOKEN_EDGES = [
    ("1 ", [("int", "1", 1, 1)], Const(FfiInt(1))),
    ("1\t", [("int", "1", 1, 1)], Const(FfiInt(1))),
    ("x ; note", [("sym", "x", 1, 1)], Var("x")),
    ("(f\r\n  x)", [("lparen", "(", 1, 1), ("sym", "f", 1, 2),
                    ("sym", "x", 2, 3), ("rparen", ")", 2, 4)],
     App(Var("f"), Var("x"))),
    ("(f a\fb)", [("lparen", "(", 1, 1), ("sym", "f", 1, 2),
                 ("sym", "a\fb", 1, 4), ("rparen", ")", 1, 7)],
     App(Var("f"), Var("a\fb"))),
    ('  "s\\"t"', [("str", 's"t', 1, 3)], Const(FfiStr('s"t'))),
]


@pytest.mark.parametrize("src, toks, tree", TOKEN_EDGES,
                         ids=[repr(s) for s, _, _ in TOKEN_EDGES])
def test_token_grammar_edges(src, toks, tree):
    assert [(t.kind, t.text, t.line, t.col) for t in tokenize(src)] == toks
    assert parse(src) == tree


@pytest.mark.parametrize("src, msg", [
    ('(f\r\n "a\\q")', "2:4: unknown escape \\q"),
    ('(f\r\n "ab', "2:2: unterminated string"),
    ('(f\r\n "a\r\nb")', "2:5: newline in string"),
])
def test_a_malformed_string_after_crlf_is_placed_on_its_line(src, msg):
    with pytest.raises(ParseError) as info:
        parse(src)
    assert str(info.value) == msg


def test_only_ascii_digits_make_an_integer():
    # "\u00b2" (superscript two) and "\u0663" (Arabic-Indic three) are
    # digits to str.isdigit but not to int()
    toks = tokenize("(ffi add \u00b2 -\u0663 12 -0)")
    assert [t.kind for t in toks[3:7]] == ["sym", "sym", "int", "int"]
    assert parse("(ffi add \u00b2 1)") == \
        Ffi("add", (Var("\u00b2"), Const(FfiInt(1))))
    for word in ("\u00b2", "\u0663", "-\u0663", "x\u00b2"):
        assert is_variable(word), word
    for word in ("12", "-0", "007"):
        assert not is_variable(word), word


def test_integer_literals_fit_the_64_bit_host_word():
    assert parse("(ffi add 9223372036854775807 -9223372036854775808)") == \
        parse("(ffi add 9223372036854775807 -0009223372036854775808)")
    for lit in ("9223372036854775808", "-9223372036854775809",
                "18446744073709551616", "1" * 5000):
        with pytest.raises(ParseError) as info:
            parse(f"(ffi add 1\n  {lit})")
        assert str(info.value) == f"2:3: integer {lit} does not fit 64 bits"


# One template per form with an expression part; "{}" is where it nests.
NESTING = [
    "(let x 1 {})", "(let x {} 2)", "(lam x {})", "(fix f x {})",
    "(if {} 1 2)", "(if c 1 {})", "(as_par {} f)", "(as_sec ps {})",
    "(seal ps {})", "(reveal {})", "(mkmap {} v)", "(project p {})",
    "(concat {} m)", "(ffi add 1 {})", "(list 1 {})", "(tuple {} 2)",
    "(f {})", "({} x)",
]


@pytest.mark.parametrize("template", NESTING)
def test_each_form_parses_at_the_nesting_limit(template):
    src = "(prins a)"
    for _ in range(MAX_NESTING - 1):
        src = template.format(src)
    assert type(parse(src)) is type(parse(template.format("1")))
    with pytest.raises(ParseError, match=f"nesting deeper than {MAX_NESTING}"):
        parse(template.format(src))
