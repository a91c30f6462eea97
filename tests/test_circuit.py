"""Boolean circuits: wire algebra, thunk compilation, clear evaluation."""

import gc
import hashlib
import itertools

import pytest

from wysx import apps, ds, ffi, st
from wysx.ds import ds_run
from wysx.lang import (
    OPAQUE, TRUE, Bool, Env, FfiInt, FfiList, FfiPair, PrinSet, Sealed,
    ShareVal, VMap, slice_env, slice_trace, slice_value,
)
from wysx.sexp import MAX_NESTING, ParseError, parse
from wysx.shares import ShareMint
from wysx.circuit import (
    MAX_CEVAL_DEPTH, Builder, CBit, Circuit, CircuitError, InputDecl,
    MissingInput, NotCircuitable, add_wires, bind_inputs, compile_sec_thunk,
    decode_output, decode_word, dump_circuit, encode_word, eq_wires,
    eval_circuit, gt_wires, mux_wires, sub_wires,
)

from _proggen import base_env, gen_program
from _wires import wire_bits

A = PrinSet.of("a")
B = PrinSet.of("b")
AB = PrinSet.of("a", "b")
ABC = PrinSet.of("a", "b", "c")


def test_word_codec_round_trip():
    for w in (2, 4, 8):
        lo, hi = -(1 << (w - 1)), 1 << (w - 1)
        for n in range(lo, hi):
            assert decode_word(encode_word(n, w), w) == n


def wires_for(b, n, width):
    word = encode_word(n, width)
    return tuple(b.const((word >> i) & 1) for i in range(width))


def word_of(b, wires):
    wv = eval_circuit(b, {})
    return sum(wv[w] << i for i, w in enumerate(wires))


def test_adder_on_all_4bit_pairs():
    width = 4
    for x in range(-8, 8):
        for y in range(-8, 8):
            b = Builder()
            zs = add_wires(b, wires_for(b, x, width), wires_for(b, y, width))
            got = decode_word(word_of(b, zs), width)
            want = decode_word((x + y) & 0xF, width)
            assert got == want, (x, y)


def test_subtractor_on_all_4bit_pairs():
    width = 4
    for x in range(-8, 8):
        for y in range(-8, 8):
            b = Builder()
            zs = sub_wires(b, wires_for(b, x, width), wires_for(b, y, width))
            assert decode_word(word_of(b, zs), width) == decode_word((x - y) & 0xF, width)


def test_signed_comparison_on_all_4bit_pairs():
    width = 4
    for x in range(-8, 8):
        for y in range(-8, 8):
            b = Builder()
            g = gt_wires(b, wires_for(b, x, width), wires_for(b, y, width))
            e = eq_wires(b, wires_for(b, x, width), wires_for(b, y, width))
            wv = eval_circuit(b, {})
            assert wv[g] == int(x > y), (x, y)
            assert wv[e] == int(x == y), (x, y)


def test_mux_picks_by_condition():
    width = 4
    for c in (0, 1):
        b = Builder()
        cw = b.const(c)
        zs = mux_wires(b, cw, wires_for(b, 3, width), wires_for(b, -5, width))
        assert decode_word(word_of(b, zs), width) == (3 if c else -5)


# The checks above build words from constants, so the builder folds every
# gate away. The ones below feed input wires, bound only at evaluation, so
# the gates are really emitted; the constant, repeated and overlapping
# operands reach the folding paths with live wires beside them.

def signed_range(width):
    return range(-(1 << (width - 1)), 1 << (width - 1))


def bind(wires, n):
    word = encode_word(n, len(wires))
    return {w: (word >> i) & 1 for i, w in enumerate(wires)}


def check_word_ops(b, xs, ys, assignments):
    """Replay add, sub, both comparisons, eq and mux over the words ``xs``
    and ``ys`` under each (input bits, x, y) against integer semantics."""
    width = len(xs)
    c = b.input_wire()
    add, sub = add_wires(b, xs, ys), sub_wires(b, xs, ys)
    gt, lt = gt_wires(b, xs, ys), gt_wires(b, ys, xs)
    eq, mux = eq_wires(b, xs, ys), mux_wires(b, c, xs, ys)
    checks = 0
    for bits, x, y in assignments:
        for cv in (0, 1):
            wv = eval_circuit(b, {"": {**bits, c: cv}})

            def val(ws):
                return decode_word(sum(wv[w] << i for i, w in enumerate(ws)),
                                   width)

            case = (width, x, y, cv)
            assert val(add) == decode_word(encode_word(x + y, width),
                                           width), case
            assert val(sub) == decode_word(encode_word(x - y, width),
                                           width), case
            assert (wv[gt], wv[lt], wv[eq]) == (x > y, x < y, x == y), case
            assert val(mux) == (x if cv else y), case
            checks += 1
    return checks


def input_word(b, width):
    return tuple(b.input_wire() for _ in range(width))


@pytest.mark.parametrize("width", range(1, 6))
def test_word_ops_on_two_input_words(width):
    b = Builder()
    xs, ys = input_word(b, width), input_word(b, width)
    checks = check_word_ops(b, xs, ys, (
        ({**bind(xs, x), **bind(ys, y)}, x, y)
        for x in signed_range(width) for y in signed_range(width)))
    assert checks == 2 << (2 * width)


@pytest.mark.parametrize("width", range(1, 6))
def test_word_ops_on_an_input_word_and_a_constant_word(width):
    for y in signed_range(width):
        for const_left in (False, True):
            b = Builder()
            xs, ys = input_word(b, width), wires_for(b, y, width)
            cases = [(bind(xs, x), x, y) for x in signed_range(width)]
            if const_left:
                xs, ys = ys, xs
                cases = [(bits, y, x) for bits, x, y in cases]
            assert check_word_ops(b, xs, ys, cases) == 2 << width


@pytest.mark.parametrize("width", range(1, 6))
def test_word_ops_on_the_same_word_twice(width):
    b = Builder()
    xs = input_word(b, width)
    checks = check_word_ops(b, xs, xs, ((bind(xs, x), x, x)
                                        for x in signed_range(width)))
    assert checks == 2 << width


@pytest.mark.parametrize("width", range(2, 6))
def test_word_ops_on_words_that_share_wires(width):
    for shared in range(1, (1 << width) - 1):  # some bits, never all
        b = Builder()
        xs = input_word(b, width)
        ys = tuple(x if shared >> i & 1 else b.input_wire()
                   for i, x in enumerate(xs))
        own = [i for i in range(width) if not shared >> i & 1]
        cases = []
        for x in signed_range(width):
            xw = encode_word(x, width)
            for free in range(1 << len(own)):
                yw = xw & shared
                for j, i in enumerate(own):
                    yw |= (free >> j & 1) << i
                y = decode_word(yw, width)
                cases.append(({**bind(xs, x), **bind(ys, y)}, x, y))
        assert check_word_ops(b, xs, ys, cases) == 2 * len(cases)


def test_builder_folds_constants():
    b = Builder()
    x = b.input_wire()
    assert b.xor(x, b.const(0)) == x
    assert b.and_(x, b.const(1)) == x
    assert b.and_(x, b.const(0)) == b.const(0)
    assert b.xor(x, x) == b.const(0)
    assert b.and_(x, x) == x


def scalar_and_tree(b, bits):
    while len(bits) > 1:
        nxt = [b.and_(bits[i], bits[i + 1])
               for i in range(0, len(bits) - 1, 2)]
        if len(bits) % 2:
            nxt.append(bits[-1])
        bits = nxt
    return bits[0] if bits else b.const(1)


def scalar_eq(b, xs, ys):
    return scalar_and_tree(b, [b.not_(b.xor(x, y)) for x, y in zip(xs, ys)])


def emitter_operands(b):
    """Operands for the word emitters: input words, constant words, one
    word twice, words sharing wires, and words whose bits sit at different
    AND-depths, at odd and even widths."""
    xs, ys = input_word(b, 5), input_word(b, 5)
    mixed = tuple(b.and_(x, y) if i % 2 else x
                  for i, (x, y) in enumerate(zip(xs, ys)))
    deep = (b.and_(mixed[1], mixed[3]),) + mixed[1:]
    words = [(xs, ys), (xs, wires_for(b, 5, 5)), (wires_for(b, -3, 5), ys),
             (xs, xs), (xs, xs[:2] + ys[2:]), (mixed, ys), (ys, deep),
             (xs[:4], deep[:4]), (xs[:1], ys[:1]), ((), ())]
    trees = [list(xs), [xs[0], xs[1], xs[0]], [xs[0], b.const(1), xs[2]],
             [b.const(0)], list(mixed), list(deep)]
    return words, trees


def test_word_emitters_match_the_scalar_calls_gate_for_gate():
    # same gates, same wire numbers, same layers as one call per gate
    fast, slow = Builder(), Builder()
    words, trees = emitter_operands(fast)
    assert emitter_operands(slow) == (words, trees)
    calls = [(eq_wires, scalar_eq, xs, ys) for xs, ys in words]
    calls += [(Builder.and_tree, scalar_and_tree, bits) for bits in trees]
    for f, ref, *args in calls:
        assert f(fast, *args) == ref(slow, *args), args
        assert (fast.n, fast.gates, fast.depth, fast.layers) == \
            (slow.n, slow.gates, slow.depth, slow.layers), args
    assert len(fast.layers) == 6


def tracked_tuples() -> int:
    return sum(type(o) is tuple for o in gc.get_objects())


def test_a_compile_keeps_no_tuple_per_gate(monkeypatch):
    # a gate is four items of a flat layer list, not a tuple that the cyclic
    # garbage collector must track; the collector is off so that no
    # collection untracks a tuple between the two counts
    seen = []

    def counted(*args):
        before = tracked_tuples()
        circ = compile_sec_thunk(*args)
        seen.append((tracked_tuples() - before, len(circ.gates)))
        return circ

    monkeypatch.setattr(ds, "compile_sec_thunk", counted)
    cell = next(c for c in apps.corpus() if c.name == "psi/overlap")
    enabled = gc.isenabled()
    gc.disable()
    try:
        res = ds_run(apps.load_program(cell.program), cell.env, cell.ps,
                     backend="gmw")
    finally:
        if enabled:
            gc.enable()
    assert res.status == "done"
    [(rise, gates)] = seen
    assert gates == 970
    assert rise < gates / 4, rise


# thunk compilation

def median_like_env():
    return Env({"xa": Sealed(A, FfiInt(5)), "xb": Sealed(B, FfiInt(9))})


def compile_and_run(src, env, width=8, expect_parties=AB):
    circ = compile_sec_thunk(env, parse(src), expect_parties, width, ShareMint(0), {})
    envs = {p: slice_env(p, env) for p in expect_parties}
    wv = eval_circuit(circ, wire_bits(circ, bind_inputs(circ, envs)))
    return circ, {p: decode_output(circ.decode, p, wv) for p in expect_parties}


def test_compile_comparison_thunk():
    circ, out = compile_and_run("(ffi gt (reveal xa) (reveal xb))", median_like_env())
    assert out["a"] == Bool(False) and out["b"] == Bool(False)
    assert circ.and_count > 0


def test_compile_arith_and_mux():
    src = "(if (ffi gt (reveal xa) (reveal xb)) (ffi sub (reveal xa) (reveal xb)) (ffi add (reveal xa) (reveal xb)))"
    circ, out = compile_and_run(src, median_like_env())
    assert out["a"] == FfiInt(14)


def test_compile_pair_result():
    src = "(ffi pair (ffi add (reveal xa) 1) (ffi eq (reveal xa) (reveal xb)))"
    circ, out = compile_and_run(src, median_like_env())
    assert out["b"] == FfiPair(FfiInt(6), Bool(False))


def test_public_subterms_stay_constant():
    # nothing secret flows into 2+3, so it must not cost any gates
    circ, out = compile_and_run("(ffi add 2 3)", Env())
    assert out["a"] == FfiInt(5)
    assert circ.and_count == 0


def test_public_loop_spine_unrolls():
    src = """((fix f n (if (ffi eq n 0) (reveal xa) (f (ffi sub n 1)))) 3)"""
    circ, out = compile_and_run(src, median_like_env())
    assert out["a"] == FfiInt(5)


def test_sealed_result_is_addressed():
    circ, out = compile_and_run("(seal (prins a) (reveal xb))", median_like_env())
    assert out["a"] == Sealed(A, FfiInt(9))
    assert out["b"].ps == A
    assert type(out["b"].v).__name__ == "Opaque"


def test_compile_rejects_unsupported_ops():
    with pytest.raises(NotCircuitable):
        compile_sec_thunk(median_like_env(),
                          parse("(ffi mul (reveal xa) (reveal xb))"),
                          AB, 8, ShareMint(0), {})


def test_compile_rejects_nested_blocks():
    with pytest.raises(NotCircuitable):
        compile_sec_thunk(median_like_env(),
                          parse("(as_par (prins a) (lam _ 1))"),
                          AB, 8, ShareMint(0), {})
    with pytest.raises(NotCircuitable):
        compile_sec_thunk(median_like_env(),
                          parse("(as_sec (prins a b) (lam _ 1))"),
                          AB, 8, ShareMint(0), {})


def test_compile_rejects_secret_branch_with_minting():
    # a handle cannot be created under a secret condition
    src = "(if (ffi gt (reveal xa) (reveal xb)) (ffi mk_sh 1) (ffi mk_sh 2))"
    with pytest.raises(NotCircuitable):
        compile_sec_thunk(median_like_env(), parse(src), AB, 8, ShareMint(0), {})


def test_bind_inputs_requires_concrete_data():
    env = median_like_env()
    circ = compile_sec_thunk(env, parse("(ffi gt (reveal xa) (reveal xb))"),
                             AB, 8, ShareMint(0), {})
    # hand a's role to a party that only holds placeholders
    wrong = {"a": slice_env("b", env), "b": slice_env("b", env)}
    with pytest.raises(MissingInput) as ex:
        bind_inputs(circ, wrong)
    assert str(ex.value) == "a: holds a placeholder on var:xa/unseal"


# a declaration's path, the value a's environment holds at its first step,
# whether the declaration is a bit, and the message that refuses it
BAD_INPUTS = {
    "unseal": ((("var", "x"), ("unseal",)), FfiInt(1), False,
               "a: expected sealed data on var:x/unseal"),
    "entry": ((("var", "x"), ("entry", "b")), VMap((("a", FfiInt(1)),)),
              False, "a: no map entry on var:x/entry:b"),
    "word": ((("var", "x"), ("word",)), FfiInt(1), False,
             "a: expected a handle on var:x/word"),
    "no-word": ((("var", "x"), ("word",)), ShareVal.of(AB, {"b": 5}, 4),
                False, "a: no share word on var:x/word"),
    "cenv": ((("var", "x"), ("cenv", "y")), FfiInt(1), False,
             "a: expected a closure on var:x/cenv:y"),
    "read": ((("var", "x"), ("idx", 3)), FfiList((FfiInt(1),)), False,
             "a: cannot read var:x/idx:3: tuple index out of range"),
    "opaque": ((("var", "x"),), OPAQUE, False,
               "a: holds a placeholder on var:x"),
    "bool": ((("var", "x"), ("fst",)), FfiPair(FfiInt(1), TRUE), True,
             "a: expected a bool on var:x/fst"),
    "int": ((("var", "x"), ("snd",)), FfiPair(FfiInt(1), TRUE), False,
            "a: expected an int on var:x/snd"),
}


@pytest.mark.parametrize("kind", BAD_INPUTS)
def test_bind_inputs_names_the_path_it_cannot_bind(kind):
    path, held, is_bool, message = BAD_INPUTS[kind]
    wires = (0,) if is_bool else (0, 1, 2, 3)
    circ = Circuit(A, 4, 4, [([], [])], [InputDecl("a", path, wires, is_bool)],
                   [(0, frozenset("a"))], CBit(0))
    with pytest.raises(MissingInput) as ex:
        bind_inputs(circ, {"a": Env({"x": held})})
    assert str(ex.value) == message


def test_bind_inputs_writes_each_bit_of_every_word_at_every_width():
    # a's int, b's bool and both words of a handle, against the value
    # itself: two's complement for ints, raw bits for share words; each
    # party's word is its declarations' values side by side, the first
    # lowest, and bit i of each value lands on the declaration's wire i
    body = parse("(ffi pair xa (ffi pair xb h))")
    for w in range(1, 65):
        lo, hi = -(1 << (w - 1)), (1 << (w - 1)) - 1
        top = 1 << (w - 1)
        for n, flag in ((lo, True), (hi, False), (-1, True), (0, False)):
            h = ShareVal.of(AB, {"a": top | (hi & 0x5A5A), "b": top}, w)
            env = Env({"xa": Sealed(A, FfiInt(n)), "xb": Sealed(B, Bool(flag)),
                       "h": h})
            circ = compile_sec_thunk(env, body, AB, w, ShareMint(0), {})
            words = bind_inputs(circ, {p: slice_env(p, env) for p in AB})
            want = {"a": 0, "b": 0}
            want_bits = {"a": {}, "b": {}}
            ends = {"a": 0, "b": 0}
            for decl in circ.inputs:
                x = decl.path[0][1]
                v = (h.word_of(decl.party) if x == "h"
                     else {"xa": n, "xb": flag}[x])
                m = len(decl.wires)
                want[decl.party] |= (v & ((1 << m) - 1)) << ends[decl.party]
                ends[decl.party] += m
                for i, wire in enumerate(decl.wires):
                    want_bits[decl.party][wire] = (v >> i) & 1
            assert sorted(len(d.wires) for d in circ.inputs) == [1, w, w, w]
            assert ends == {"a": 2 * w, "b": w + 1}
            assert words == want, (w, n)
            assert wire_bits(circ, words) == want_bits, (w, n)
        env = Env({"xa": Sealed(A, FfiInt(hi + 1)), "xb": Sealed(B, TRUE),
                   "h": h})
        with pytest.raises(CircuitError, match=(
                rf"^a: input {hi + 1} at var:xa/unseal does not fit {w} "
                rf"bits$")):
            bind_inputs(circ, {p: slice_env(p, env) for p in AB})


def test_secret_condition_costs_and_gates():
    base = "(ffi add (reveal xa) (reveal xb))"
    cond = "(if (ffi gt (reveal xa) (reveal xb)) (reveal xa) (reveal xb))"
    ca, _ = compile_and_run(base, median_like_env())
    cb, _ = compile_and_run(cond, median_like_env())
    assert cb.and_count > ca.and_count


def test_mint_inside_circuit_matches_runtime_mint():
    # compiling (mk_sh v) draws the same mask words the direct machine draws
    from wysx.st import Runtime, run
    src = "(as_sec (prins a b) (lam _ (ffi mk_sh (reveal xa))))"
    env = median_like_env()
    st = run(parse(src), env=env, rt=Runtime(seed=4, width=8))
    assert st.status == "done"
    circ = compile_sec_thunk(env, parse("(ffi mk_sh (reveal xa))"),
                             AB, 8, ShareMint(4), {})
    envs = {p: slice_env(p, env) for p in AB}
    wv = eval_circuit(circ, wire_bits(circ, bind_inputs(circ, envs)))
    for p in AB:
        got = decode_output(circ.decode, p, wv)
        assert got.word_of(p) == st.value.word_of(p), p


def test_dump_circuit_is_readable():
    circ, _ = compile_and_run("(ffi gt (reveal xa) (reveal xb))", median_like_env())
    text = dump_circuit(circ)
    assert "circuit parties=a,b" in text
    assert "ands=" in text
    assert "INPUT a" in text and "INPUT b" in text
    assert "OUT " in text


# Private branches over public arms: ``mux`` reads the false arm's bit
# before the true arm's, and that order decides which CONST wire is emitted
# first. The masked-list arms pin the presence-bit multiplexers.

def mux_env():
    return Env({"cb": Sealed(B, Bool(True)),
                "la": Sealed(A, FfiList((FfiInt(1), FfiInt(-2)))),
                "lb": Sealed(B, FfiList((FfiInt(-2), FfiInt(0))))})


BOOL_MUX_DUMPS = {
    "(if (reveal cb) true false)": (
        "circuit parties=a,b width=2 wires=3 ands=0 depth=0\n"
        "INPUT b bool var:cb/unseal x0\n"
        "CONST x1 <- 0\n"
        "CONST x2 <- 1\n"
        "OUT x0 -> a,b\n", Bool(True)),
    "(if (reveal cb) false true)": (
        "circuit parties=a,b width=2 wires=4 ands=0 depth=0\n"
        "INPUT b bool var:cb/unseal x0\n"
        "CONST x1 <- 1\n"
        "CONST x2 <- 0\n"
        "NOT x3 <- x0\n"
        "OUT x3 -> a,b\n", Bool(False)),
}


@pytest.mark.parametrize("src", BOOL_MUX_DUMPS)
def test_private_branch_over_public_bools_is_pinned(src):
    circ, out = compile_and_run(src, mux_env(), width=2)
    text, want = BOOL_MUX_DUMPS[src]
    assert dump_circuit(circ) == text
    assert out == {"a": want, "b": want}


MASKED_MUX_DIGEST = \
    "953174aee68169e66a9838bef259193193ded1facb8ba7a447f3b38044ac0f36"


def test_private_branch_over_masked_lists_is_pinned():
    src = ("(if (reveal cb) (ffi list_intersect (reveal la) (reveal lb)) "
           "(ffi list_intersect (reveal lb) (reveal la)))")
    circ, out = compile_and_run(src, mux_env(), width=2)
    text = dump_circuit(circ)
    assert text.count("\nOUT ") == 6  # 2 presence bits, 2 words of 2 bits
    assert hashlib.sha256(text.encode()).hexdigest() == MASKED_MUX_DIGEST
    assert out == {"a": FfiList((FfiInt(-2),)), "b": FfiList((FfiInt(-2),))}


# every result shape decodes to the reference machine's per-party view

SHAPES = {
    "public int": "(ffi add 2 3)",
    "public string": '"hi"',
    "unit": "()",
    "wire int": "(ffi add (reveal xa) (reveal xb))",
    "pair of wire and public": "(tuple (ffi gt (reveal xa) (reveal xb)) 7)",
    "list": "(list (reveal xa) (reveal xb) 1)",
    "map": "(concat (mkmap (prins a) (reveal xb)) (mkmap (prins b) 4))",
    "seal to one party": "(seal (prins a) (reveal xb))",
    "map sealed for another party": "(seal (prins a) (mkmap (prins b) (reveal xa)))",
    "minted handle": "(ffi mk_sh (reveal xa))",
    "handle echo": "h",
    "handle minted and recombined": "(ffi comb_sh (ffi mk_sh (reveal xa)))",
    "handle in a map": "(mkmap (prins a) h)",
    "minted handle in a map": "(mkmap (prins a) (ffi mk_sh (reveal xa)))",
    "masked list": "(ffi list_intersect (reveal la) (reveal lb))",
    "private if over pairs": "(if (ffi gt (reveal xa) (reveal xb)) "
                             "(tuple (reveal xa) true) (tuple (reveal xb) false))",
}


def shapes_env():
    return Env({
        "xa": Sealed(A, FfiInt(5)), "xb": Sealed(B, FfiInt(9)),
        "la": Sealed(A, FfiList((FfiInt(1), FfiInt(2), FfiInt(3)))),
        "lb": Sealed(B, FfiList((FfiInt(2), FfiInt(3), FfiInt(4)))),
        "h": ShareVal.of(AB, {"a": 3, "b": 10}, 8),
    })


@pytest.mark.parametrize("body", SHAPES.values(), ids=SHAPES.keys())
def test_decoded_result_matches_reference_slices(body):
    from wysx.st import Runtime, run
    env = shapes_env()
    ref = run(parse(f"(as_sec (prins a b) (lam _ {body}))"), env=env,
              rt=Runtime(seed=4, width=8))
    assert ref.status == "done"
    circ = compile_sec_thunk(env, parse(body), AB, 8, ShareMint(4), {})
    wv = eval_circuit(circ, wire_bits(circ, bind_inputs(
        circ, {p: slice_env(p, env) for p in AB})))
    for p in AB:
        assert decode_output(circ.decode, p, wv) == slice_value(p, ref.value), p


class _WireReads(dict):
    """Wire bits that remember every wire read. Each reads 1, so a masked
    list reads all of its items."""

    def __missing__(self, w):
        self[w] = 1
        return 1


def compiled_blocks():
    """(name, circuit) for every block of the corpus at width 32 and at each
    cell's least width, of the ``SHAPES`` bodies at width 8, and of the
    generated programs 0-299 on {a,b} and on {a,b,c}."""
    narrow = sorted({cell.min_width for cell in apps.corpus()})
    for w in (32, *narrow):
        for cell in apps.corpus(w):
            if w in (32, cell.min_width):
                res = ds_run(apps.load_program(cell.program), cell.env,
                             cell.ps, st.Runtime(0, w), backend="gmw")
                for name, circ in res.circuits:
                    yield f"{cell.name}@{w} {name}", circ
    for key, body in SHAPES.items():
        yield key, compile_sec_thunk(shapes_env(), parse(body), AB, 8,
                                     ShareMint(4), {})
    for seed in range(300):
        for ps in (AB, ABC):
            res = ds_run(gen_program(seed), base_env(), ps, backend="gmw")
            for name, circ in res.circuits:
                yield f"proggen/{seed} {name}", circ


def test_each_party_is_sent_exactly_the_wires_its_view_reads():
    # add_outputs and decode_output walk the same result; the wires a party
    # is sent must be the ones its slice of the result reads, no more, and
    # no wire is registered that no party is sent
    n = 0
    for name, circ in compiled_blocks():
        assert all(to for _, to in circ.outputs), name
        for p in circ.parties:
            reads = _WireReads()
            decode_output(circ.decode, p, reads)
            sent = {w for w, to in circ.outputs if p in to}
            assert sent == reads.keys(), (name, p)
        n += 1
    assert n == 275


SWEEP_ARGS = ("2", "(reveal xa)", "(ffi gt (reveal xb) 3)", "(reveal la)",
              "(tuple (reveal xa) 1)")


def test_every_builtin_call_under_gmw_matches_the_reference_or_sticks():
    env = shapes_env()
    for name in ffi.BUILTINS:
        for k in range(4):
            for args in itertools.product(SWEEP_ARGS, repeat=k):
                call = " ".join((name,) + args)
                src = f"(as_sec (prins a b) (lam _ (ffi {call})))"
                res = ds_run(parse(src), env, AB, backend="gmw")
                if res.status != "done":
                    continue
                ref = st.run(parse(src), env, AB)
                assert ref.status == "done", src
                for p in AB:
                    assert res.parties[p] == (slice_value(p, ref.value),
                                              slice_trace(p, ref.trace)), src


def test_only_the_share_primitives_have_no_host_body():
    # mk_sh and comb_sh run in the interpreters and the gate compiler
    assert [n for n, hf in ffi.BUILTINS.items() if hf.fn is None] == \
        ["mk_sh", "comb_sh"]
    for name in ("mk_sh", "comb_sh"):
        with pytest.raises(ffi.FfiTypeError) as ex:
            ffi.exec_ffi(name, (FfiInt(1),))
        assert str(ex.value) == f"{name} must be handled by the interpreter"


def test_private_list_index_is_not_circuitable():
    with pytest.raises(NotCircuitable):
        compile_sec_thunk(shapes_env(),
                          parse("(ffi nth (list 1 2) (reveal xa))"),
                          AB, 8, ShareMint(0), {})


def test_gmw_stuck_reason_names_a_wire_bundle_briefly():
    # a wire bundle names its width, not every wire number
    e = parse("(as_sec (prins a b) (lam _ (ffi nth (list 1 2) (reveal xa))))")
    res = ds_run(e, shapes_env(), AB, backend="gmw")
    assert res.status == "stuck"
    assert "CInt(32 wires)" in res.reason
    assert len(res.reason) <= 100, res.reason


def test_sealing_a_handle_for_a_subset_is_stuck_on_every_path():
    e = parse("(as_sec (prins a b) (lam _ (seal (prins a) (ffi mk_sh 1))))")
    assert st.run(e, Env(), AB).status == "stuck"
    for backend in ("ideal", "gmw"):
        assert ds_run(e, Env(), AB, backend=backend).status == "stuck", backend


SHARED_RULE_BODIES = (
    "(seal (prins c) 1)", "(seal 5 1)",
    "(reveal 5)", "(reveal (seal (prins c) 1))",
    "(mkmap (prins c) 1)", "(mkmap 5 1)",
    "(project (prin c) (mkmap (prins a) 1))",
    "(project 5 (mkmap (prins a) 1))",
    "(project (prin b) (mkmap (prins a) 1))",
    "(concat (mkmap (prins a) 1) (mkmap (prins a) 2))",
    "(concat 5 (mkmap (prins a) 2))",
)


@pytest.mark.parametrize("body", SHARED_RULE_BODIES)
def test_joint_value_rules_stick_alike_on_every_backend(body):
    # the gate compiler applies the reference machine's seal, reveal, map,
    # projection and concatenation rules, so it sticks for the same reason
    e = parse(f"(as_sec (prins a b) (lam _ {body}))")
    ref = st.run(e, Env(), AB)
    assert ref.status == "stuck"
    for backend in ("ideal", "gmw"):
        res = ds_run(e, Env(), AB, backend=backend)
        assert res.status == "stuck", backend
        assert ref.stuck_reason in res.reason, backend


# closures built outside a joint block and applied in it, and closures built
# in it: each reaches the gate compiler's closure conversion or application
CLOSURE_BLOCKS = (
    ("(let g (as_par (prins a) (lam _ (let v (reveal xa) (lam y (ffi add v y)))))"
     " (as_sec (prins a b) (lam _ ((reveal g) (reveal xb)))))", 34),
    ("(let g (as_par (prins a) (lam _ (let v (reveal xa)"
     " (fix f y (if (ffi eq y 0) v (f (ffi sub y 1)))))))"
     " (as_sec (prins a b) (lam _ (ffi add ((reveal g) 2) (reveal xb)))))", 34),
    ("(as_sec (prins a b) (lam _ ((lam y (ffi add y (reveal xb))) (reveal xa))))",
     34),
    ("(as_sec (prins a b) (lam _ ((fix f n (if (ffi eq n 0) (reveal xa)"
     " (ffi add 1 (f (ffi sub n 1))))) 3)))", 14),
)


def test_closures_run_alike_through_gmw_blocks():
    env = Env({"xa": Sealed(A, FfiInt(11)), "xb": Sealed(B, FfiInt(23))})
    for src, want in CLOSURE_BLOCKS:
        for w in (32, 9):
            ideal, gmw = (ds_run(parse(src), env, AB, st.Runtime(0, w),
                                 backend=backend)
                          for backend in ("ideal", "gmw"))
            assert gmw.status == ideal.status == "done", (src, w, gmw.reason)
            assert gmw.parties == ideal.parties, (src, w)
            for p in AB:
                assert ideal.parties[p][0] == FfiInt(want), (src, w, p)


def test_inputs_and_constants_outside_the_width_stick():
    # at 4 bits the gates hold -8..7; anything else would wrap
    def gmw(x, body):
        e = parse(f"(as_sec (prins a b) (lam _ {body}))")
        env = Env({"xa": Sealed(A, FfiInt(x))})
        return ds_run(e, env, AB, st.Runtime(0, 4), backend="gmw")
    assert gmw(7, "(ffi sub (reveal xa) -8)").status == "done"
    assert gmw(-8, "(ffi add (reveal xa) 7)").parties["a"][0] == FfiInt(-1)
    assert gmw(8, "(ffi add (reveal xa) 1)").reason == \
        "joint block {a,b}: a: input 8 at var:xa/unseal does not fit 4 bits"
    assert gmw(1, "(ffi add (reveal xa) -9)").reason == \
        "joint block {a,b}: constant -9 does not fit 4 bits"


# a recursion that stops on a private condition: the reference machine ends
# it, while the gates, which compile both arms, would unroll it forever
PRIVATE_STOP = ("(let g (as_par (prins a) (lam _ (let v (reveal xa)"
                " (fix f y (if (ffi gt y v) y (f (ffi add y 5)))))))"
                " (as_sec (prins a b) (lam _ ((reveal g) 1))))")
DEPTH_REASON = (f"joint block {{a,b}}: block nests deeper than "
                f"{MAX_CEVAL_DEPTH} evaluation levels under gates")


def test_unrolling_past_the_depth_bound_sticks():
    env = Env({"xa": Sealed(A, FfiInt(11))})
    e = parse(PRIVATE_STOP)
    assert st.run(e, env, AB).value == FfiInt(16)
    assert ds_run(e, env, AB).parties["a"][0] == FfiInt(16)
    res = ds_run(e, env, AB, backend="gmw")
    assert (res.status, res.reason) == ("stuck", DEPTH_REASON)


def test_a_block_nested_to_the_parse_limit_compiles():
    # as_sec, lam and reveal take three of the parser's nesting levels
    def block(depth):
        body = "(reveal xa)"
        for _ in range(depth):
            body = f"(ffi add 1 {body})"
        return f"(as_sec (prins a b) (lam _ {body}))"
    depth = MAX_NESTING - 3
    with pytest.raises(ParseError):
        parse(block(depth + 1))
    env = Env({"xa": Sealed(A, FfiInt(11))})
    res = ds_run(parse(block(depth)), env, AB, backend="gmw")
    assert res.status == "done", res.reason
    assert res.parties["b"][0] == FfiInt(11 + depth)


def corpus_digests() -> dict[str, str]:
    """Per corpus cell and width: a digest of every joint block's gates and
    every party's status, value and trace under the GMW backend."""
    out = {}
    narrow = sorted({cell.min_width for cell in apps.corpus()})
    for w in (32, *narrow):
        for cell in apps.corpus(w):
            if w not in (32, cell.min_width):
                continue
            res = ds_run(apps.load_program(cell.program), cell.env, cell.ps,
                         st.Runtime(0, w), backend="gmw")
            text = [res.status] + [dump_circuit(c) for _, c in res.circuits]
            text += [f"{p} {v!r} {t!r}" for p, (v, t) in res.parties.items()]
            out[f"{cell.name}@{w}"] = hashlib.sha256(
                "\n".join(text).encode()).hexdigest()[:16]
    return out


CORPUS_DIGESTS = {
    "median/low@32": "63ba8700472fefca",
    "median/high@32": "4e5a9c6b448f3219",
    "median_opt/low@32": "9df5a0b9898b2e64",
    "median_opt/high@32": "43be2ec1d8a07743",
    "psi/overlap@32": "4e8ace2a05b196ee",
    "psi/disjoint@32": "46352ef31400be87",
    "psi/empty@32": "8f9fc867b66296bc",
    "psi_interim/overlap@32": "a8fbc3f2e869c694",
    "psi_interim/empty@32": "7965cadd15b080d1",
    "psi_opt/overlap@32": "671756ee295b493f",
    "psi_opt/dup@32": "0faa561f904f8c13",
    "check_fresh/hit@32": "c48eb81abb2327ef",
    "check_fresh/miss@32": "f7272fa8bebf5da5",
    "check_fresh/empty@32": "5732127f347ab53c",
    "deal/empty-51@32": "d18fc822eb45f52c",
    "deal/fresh@32": "5a8d668cce1b4a0a",
    "deal/repeat@32": "a3ec6437d6a3e72c",
    "median/low@4": "d779169dfb030a58",
    "median/high@4": "844dd8ffb16da4d4",
    "median_opt/low@4": "d07f8d8f2d3624cd",
    "median_opt/high@4": "4c28847877ce8061",
    "psi/overlap@4": "141ac8a0eaa06195",
    "psi/disjoint@4": "e47c28dbf0275882",
    "psi/empty@4": "5b7d8db2adab9be7",
    "psi_interim/overlap@4": "1dd4ba906eeafaf0",
    "psi_interim/empty@4": "7965cadd15b080d1",
    "psi_opt/overlap@4": "45e9c0d77b2cfc22",
    "psi_opt/dup@4": "e900644536ce0150",
    "check_fresh/hit@4": "57f7873f15ab1599",
    "check_fresh/miss@4": "e3a863f9bffb9120",
    "check_fresh/empty@4": "5732127f347ab53c",
    "deal/empty-51@9": "4b26fc9c439344eb",
    "deal/fresh@9": "b13454bffda67652",
    "deal/repeat@9": "587c7ebc442de4cd",
}


def test_corpus_circuits_and_results_are_pinned():
    assert corpus_digests() == CORPUS_DIGESTS
