"""Single-machine reference semantics: reductions, blocks, stuck states."""

import hashlib

import pytest

from _proggen import base_env, gen_program
from wysx import apps
from wysx.ds import ds_run
from wysx.lang import (
    AsPar, AsSec, Bool, Const, Env, FfiInt, FfiList, FfiPair, Lam, Mode,
    OPAQUE, PAR, PrinSet, PrinsVal, SEC, Sealed, ShareVal, TMsg, TScope,
    Value, VMap,
)
from wysx.sexp import parse
from wysx.st import DEFAULT_FUEL, Runtime, Stuck, machine_step, run

A = PrinSet.of("a")
B = PrinSet.of("b")
AB = PrinSet.of("a", "b")


def go(src, env=None, **kw):
    return run(parse(src), env=env, **kw)


def done(src, env=None, **kw):
    r = go(src, env, **kw)
    assert r.status == "done", (r.stuck_rule, r.stuck_reason)
    return r


def stuck(src, env=None, **kw):
    r = go(src, env, **kw)
    assert r.status == "stuck", r.status
    return r


def test_literals_and_arith():
    assert done("42").value == FfiInt(42)
    assert done("(ffi add 2 3)").value == FfiInt(5)
    assert done("(ffi sub 2 5)").value == FfiInt(-3)
    assert done("(ffi mul 6 7)").value == FfiInt(42)
    assert done("true").value == Bool(True)
    assert done('"hi"').value.s == "hi"


@pytest.mark.parametrize("src, n", [
    ("(ffi add 9223372036854775807 1)", -2 ** 63),
    ("(ffi sub -9223372036854775808 1)", 2 ** 63 - 1),
    ("(ffi mul 4611686018427387904 2)", -2 ** 63),
    ("(ffi mul 4611686018427387904 4)", 0),
    ("(ffi mul -1 -9223372036854775808)", -2 ** 63),
])
def test_host_arithmetic_wraps_at_64_bits(src, n):
    assert done(src).value == FfiInt(n)


def test_let_if_app():
    assert done("(let x 3 (ffi add x x))").value == FfiInt(6)
    assert done("(if (ffi gt 3 2) 10 20)").value == FfiInt(10)
    assert done("(if false 10 20)").value == FfiInt(20)
    assert done("((lam x (ffi mul x x)) 9)").value == FfiInt(81)


def test_if_only_takes_booleans():
    r = stuck("(if 5 1 2)")
    assert r.stuck_rule == "if-branch"


def test_unbound_variable():
    r = stuck("(ffi add oops 1)")
    assert r.stuck_rule == "var"


def test_fix_factorial():
    src = "((fix f n (if (ffi eq n 0) 1 (ffi mul n (f (ffi sub n 1))))) 6)"
    assert done(src).value == FfiInt(720)


def test_fuel_runs_out():
    r = go("((fix f n (f n)) 0)", fuel=500)
    assert r.status == "fuel"
    assert r.steps == 500


def test_fuel_counts_steps():
    # 19 steps need exactly 19 units of fuel: the last step ends the run
    src = "(let x (ffi add 1 2) (let y (ffi add x 3) (ffi add y x)))"
    r = go(src, ps=PrinSet.of("a", "b", "c"), fuel=19)
    assert (r.status, r.steps, r.value) == ("done", 19, FfiInt(9))
    r = go(src, ps=PrinSet.of("a", "b", "c"), fuel=18)
    assert (r.status, r.steps) == ("fuel", 18)


def test_pairs_and_lists():
    assert done("(ffi fst (ffi pair 1 2))").value == FfiInt(1)
    assert done("(ffi snd (ffi pair 1 2))").value == FfiInt(2)
    r = done("(ffi cons 1 (list 2 3))")
    assert r.value == FfiList((FfiInt(1), FfiInt(2), FfiInt(3)))
    assert done("(ffi length (list 1 2 3))").value == FfiInt(3)
    assert done("(ffi is_nil (list))").value == Bool(True)
    assert done("(ffi hd (list 7 8))").value == FfiInt(7)
    assert done("(ffi tl (list 7 8))").value == FfiList((FfiInt(8),))


def test_list_membership_and_difference():
    assert done("(ffi list_mem 2 (list 1 2 3))").value == Bool(True)
    assert done("(ffi list_mem 4 (list 1 2 3))").value == Bool(False)
    assert done("(ffi list_mem 1 (list))").value == Bool(False)
    # order and repeats of the first list are kept
    r = done("(ffi list_diff (list 3 1 3 2 4) (list 2 4))")
    assert r.value == FfiList((FfiInt(3), FfiInt(1), FfiInt(3)))
    assert done("(ffi list_diff (list 1 2) (list))").value == FfiList(
        (FfiInt(1), FfiInt(2)))
    assert done("(ffi list_diff (list) (list 1))").value == FfiList(())
    assert stuck("(ffi list_diff 1 (list))").stuck_rule == "ffi-apply"
    assert stuck("(ffi list_mem 1 2)").stuck_rule == "ffi-apply"


def test_ffi_errors_get_stuck():
    assert stuck("(ffi add 1)").stuck_rule == "ffi-apply"
    assert stuck("(ffi bogus 1)").stuck_rule == "ffi-apply"
    assert stuck("(ffi hd (list))").stuck_rule == "ffi-apply"
    assert stuck("(ffi add 1 true)").stuck_rule == "ffi-apply"


def test_ffi_refuses_placeholder_arguments():
    env = Env({"y": FfiPair(FfiInt(1), OPAQUE)})
    r = stuck("(ffi fst y)", env)
    assert r.stuck_rule == "ffi-apply"
    assert "OpaqueArg" in r.stuck_reason


# sealing and revealing

def test_seal_makes_sealed_value():
    assert done("(seal (prins a) 5)").value == Sealed(A, FfiInt(5))


def test_seal_outside_mode_is_stuck():
    r = stuck("(seal (prins a c) 5)")
    assert r.stuck_rule == "seal"


def test_reveal_in_par_needs_full_audience():
    env = Env({"xa": Sealed(A, FfiInt(5)), "xab": Sealed(AB, FfiInt(6))})
    assert done("(reveal xab)", env).value == FfiInt(6)
    assert stuck("(reveal xa)", env).stuck_rule == "reveal"
    # inside the owner's own block the audience matches
    r = done("(as_par (prins a) (lam _ (reveal xa)))", env)
    assert r.value == Sealed(A, FfiInt(5))


def test_reveal_in_sec_needs_a_member():
    env = Env({"xa": Sealed(A, FfiInt(5)), "xc": Sealed(PrinSet.of("c"), FfiInt(9))})
    r = done("(as_sec (prins a b) (lam _ (reveal xa)))", env)
    assert r.value == FfiInt(5)
    assert r.trace == (TMsg(FfiInt(5)),)
    assert stuck("(as_sec (prins a b) (lam _ (reveal xc)))", env).stuck_rule == "reveal"


def test_reveal_non_sealed_is_stuck():
    assert stuck("(reveal 5)").stuck_rule == "reveal"


# per-principal blocks

def test_as_par_wraps_and_scopes():
    r = done("(as_par (prins a) (lam _ (ffi add 1 2)))")
    assert r.value == Sealed(A, FfiInt(3))
    assert r.trace == (TScope(A, ()),)


def test_as_par_nested_scopes():
    r = done("(as_par (prins a) (lam _ (as_par (prins a) (lam _ 1))))")
    assert r.trace == (TScope(A, (TScope(A, ()),)),)
    assert r.value == Sealed(A, Sealed(A, FfiInt(1)))


def test_as_par_outside_mode_is_stuck():
    assert stuck("(as_par (prins a c) (lam _ 1))").stuck_rule == "par-enter"


def test_as_par_rejects_non_function():
    assert stuck("(as_par (prins a) 5)").stuck_rule == "par-enter"


def test_par_return_must_be_sealable():
    # a handle held by both parties cannot be boxed up for one of them
    env = Env({"x": ShareVal.of(AB, {"a": 1, "b": 2}, 32)})
    r = stuck("(as_par (prins a) (lam _ x))", env)
    assert r.stuck_rule == "par-return"


def test_par_inside_sec_is_stuck():
    r = stuck("(as_sec (prins a b) (lam _ (as_par (prins a) (lam _ 1))))")
    assert r.stuck_rule == "par-enter"


# joint blocks

def test_as_sec_publishes_result():
    r = done("(as_sec (prins a b) (lam _ (ffi add 20 22)))")
    assert r.value == FfiInt(42)
    assert r.trace == (TMsg(FfiInt(42)),)
    assert r.sec_entries == 1


def test_as_sec_requires_exact_party_set():
    assert stuck("(as_sec (prins a) (lam _ 1))").stuck_rule == "sec-enter"


def test_sec_inside_sec_is_stuck():
    r = stuck("(as_sec (prins a b) (lam _ (as_sec (prins a b) (lam _ 1))))")
    assert r.stuck_rule == "sec-enter"


def test_sec_entry_counter():
    src = """(let x (as_sec (prins a b) (lam _ 1))
              (let y (as_sec (prins a b) (lam _ 2))
               (ffi add x y)))"""
    r = done(src)
    assert r.value == FfiInt(3)
    assert r.sec_entries == 2
    assert r.trace == (TMsg(FfiInt(1)), TMsg(FfiInt(2)))


def test_empty_party_set_is_stuck():
    # the parser already refuses (prins), so build the term directly
    empty = Const(PrinsVal(PrinSet.of()))
    thunk = Lam("_", Const(FfiInt(1)))
    r = run(AsSec(empty, thunk))
    assert r.status == "stuck" and r.stuck_rule == "sec-ps"
    r = run(AsPar(empty, thunk))
    assert r.status == "stuck" and r.stuck_rule == "par-ps"


# maps

def test_mkmap_and_project_in_par():
    src = """(as_par (prins a) (lam _
               (project (prin a) (mkmap (prins a) (seal (prins a) 7)))))"""
    assert done(src).value == Sealed(A, FfiInt(7))


def test_mkmap_at_top_distributes_sealed_contents():
    r = done("(mkmap (prins a) (seal (prins a) 3))")
    assert r.value == VMap.of({"a": FfiInt(3)})


def test_mkmap_needs_sealed_argument_in_par():
    assert stuck("(mkmap (prins a) 3)").stuck_rule == "mkmap"


def test_mkmap_in_sec_takes_any_value():
    r = done("(as_sec (prins a b) (lam _ (mkmap (prins a) 7)))")
    assert r.trace == (TMsg(VMap.of({"a": FfiInt(7)})),)


def test_project_needs_singleton_mode():
    src = "(let m (mkmap (prins a) (seal (prins a) 7)) (project (prin a) m))"
    assert stuck(src).stuck_rule == "project"


def test_project_missing_entry():
    env = Env({"m": VMap.of({"b": FfiInt(1)})})
    r = stuck("(as_par (prins a) (lam _ (project (prin a) m)))", env)
    assert r.stuck_rule == "project"


def test_concat_merges_disjoint_maps():
    src = """(concat (mkmap (prins a) (seal (prins a) 1))
                     (mkmap (prins b) (seal (prins b) 2)))"""
    assert done(src).value == VMap.of({"a": FfiInt(1), "b": FfiInt(2)})


def test_concat_rejects_overlap():
    src = """(concat (mkmap (prins a) (seal (prins a) 1))
                     (mkmap (prins a) (seal (prins a) 2)))"""
    assert stuck(src).stuck_rule == "concat"


# Sticks with the exact reason each gives: party None runs the joint
# machine in mode {a,b}, a party name that party's own machine under
# ``ds_run``.
STICKS = [
    ("(mkmap (prins a b) x)", {"x": Sealed(A, FfiInt(5))}, None, "mkmap",
     "{a,b} outside mode {a,b} or seal set {a}"),
    ("(ffi add)", {}, None, "ffi-apply",
     "ArityError: add: expected 2 args, got 0"),
    ("(mkmap (prins a) 5)", {}, "a", "mkmap",
     "expected a sealed value, got FfiInt(n=5)"),
    ("(mkmap (prins a) x)", {"x": Sealed(B, FfiInt(5))}, "a", "mkmap",
     "a cannot open seal for {b}"),
    ("(project (prin b) m)", {"m": VMap.of({"a": FfiInt(1), "b": FfiInt(2)})},
     "a", "project", "a projecting b"),
]


@pytest.mark.parametrize("src, binds, party, rule, reason", STICKS,
                         ids=[f"{s}-{p}" for s, _, p, _, _ in STICKS])
def test_each_stick_gives_its_exact_reason(src, binds, party, rule, reason):
    if party is None:
        r = stuck(src, Env(binds))
        assert (r.stuck_rule, r.stuck_reason) == (rule, reason)
    else:
        r = ds_run(parse(src), Env(binds), AB)
        assert (r.status, r.reason) == (
            "stuck", f"party {party} stuck at {rule}: {reason}")


@pytest.mark.parametrize("code, rule, reason", [
    ("x", "descend", "not an expression: 'x'"),
    (FfiInt(1), "halt", "no frame to return to"),
])
def test_machine_step_refuses_registers_no_run_reaches(code, rule, reason):
    # a code register that is no expression, and a finished run
    regs = (Mode(PAR, AB), (), Env(), (), code)
    assert machine_step(regs, Runtime()) == Stuck(rule, reason)


# share handles

def test_shares_only_inside_joint_blocks():
    r = stuck("(ffi mk_sh 5)")
    assert "ModeError" in r.stuck_reason
    env = Env({"h": ShareVal.of(AB, {"a": 1, "b": 2}, 32)})
    assert "ModeError" in stuck("(ffi comb_sh h)", env).stuck_reason


def test_share_mint_and_combine_round_trip():
    r = done("(as_sec (prins a b) (lam _ (ffi comb_sh (ffi mk_sh 5))))")
    assert r.value == FfiInt(5)


def test_comb_sh_rejects_a_handle_missing_a_word():
    env = Env({"h": ShareVal.of(AB, {"a": 1}, 32)})
    r = stuck("(as_sec (prins a b) (lam _ (ffi comb_sh h)))", env)
    assert r.stuck_reason == ("PartySetMismatch: handle missing words "
                              "for ['b']")


def test_share_words_xor_to_value():
    rt = Runtime(seed=3, width=8)
    r = run(parse("(as_sec (prins a b) (lam _ (ffi mk_sh 200)))"), rt=rt)
    assert r.status == "done"
    sh = r.value
    assert sh.ps == AB and sh.width == 8
    acc = 0
    for _, w in sh.words:
        assert 0 <= w < 256
        acc ^= w
    assert acc == 200


def test_share_mint_is_deterministic():
    src = "(as_sec (prins a b) (lam _ (ffi mk_sh 77)))"
    a = run(parse(src), rt=Runtime(seed=5)).value
    b = run(parse(src), rt=Runtime(seed=5)).value
    c = run(parse(src), rt=Runtime(seed=6)).value
    assert a == b
    assert a != c


def test_minted_values_reduce_to_signed_residue():
    rt = Runtime(width=4)
    r = run(parse("(as_sec (prins a b) (lam _ (ffi comb_sh (ffi mk_sh 200))))"), rt=rt)
    # 200 mod 16 = 8, and 8 reads as -8 in 4-bit two's complement
    assert r.value == FfiInt(-8)


# assorted whole programs

def test_two_party_pipeline():
    src = """(let xa (as_par (prins a) (lam _ 10))
              (let xb (as_par (prins b) (lam _ 4))
               (as_sec (prins a b) (lam _
                 (ffi sub (reveal xa) (reveal xb))))))"""
    r = done(src)
    assert r.value == FfiInt(6)
    assert r.trace == (TScope(A, ()), TScope(B, ()), TMsg(FfiInt(6)))


def test_default_fuel_is_generous():
    assert DEFAULT_FUEL >= 10 ** 5


def test_tuple_sugar_is_a_pair():
    r = done("(tuple 1 (tuple 2 3))")
    v = r.value
    assert v.fst == FfiInt(1)
    assert v.snd.fst == FfiInt(2)
    assert v.snd.snd == FfiInt(3)


# pinned reference runs

XA_XAB = Env({"xa": Sealed(A, FfiInt(5)), "xab": Sealed(AB, FfiInt(6))})
XA_XC = Env({"xa": Sealed(A, FfiInt(5)),
             "xc": Sealed(PrinSet.of("c"), FfiInt(9))})
HANDLE_AB = ShareVal.of(AB, {"a": 1, "b": 2}, 32)
EMPTY_SET = Const(PrinsVal(PrinSet.of()))

# The stuck, unbound-variable and fuel cases above: (source or term, env,
# fuel).
EDGE_CASES = [
    ("(if 5 1 2)", None, DEFAULT_FUEL),
    ("(ffi add oops 1)", None, DEFAULT_FUEL),
    ("((fix f n (f n)) 0)", None, 500),
    ("(ffi add 1)", None, DEFAULT_FUEL),
    ("(ffi bogus 1)", None, DEFAULT_FUEL),
    ("(ffi hd (list))", None, DEFAULT_FUEL),
    ("(ffi add 1 true)", None, DEFAULT_FUEL),
    ("(ffi fst y)", Env({"y": FfiPair(FfiInt(1), OPAQUE)}), DEFAULT_FUEL),
    ("(seal (prins a c) 5)", None, DEFAULT_FUEL),
    ("(reveal xa)", XA_XAB, DEFAULT_FUEL),
    ("(as_sec (prins a b) (lam _ (reveal xc)))", XA_XC, DEFAULT_FUEL),
    ("(reveal 5)", None, DEFAULT_FUEL),
    ("(as_par (prins a c) (lam _ 1))", None, DEFAULT_FUEL),
    ("(as_par (prins a) 5)", None, DEFAULT_FUEL),
    ("(as_par (prins a) (lam _ x))", Env({"x": HANDLE_AB}), DEFAULT_FUEL),
    ("(as_sec (prins a b) (lam _ (as_par (prins a) (lam _ 1))))", None,
     DEFAULT_FUEL),
    ("(as_sec (prins a) (lam _ 1))", None, DEFAULT_FUEL),
    ("(as_sec (prins a b) (lam _ (as_sec (prins a b) (lam _ 1))))", None,
     DEFAULT_FUEL),
    ("(mkmap (prins a) 3)", None, DEFAULT_FUEL),
    ("(let m (mkmap (prins a) (seal (prins a) 7)) (project (prin a) m))",
     None, DEFAULT_FUEL),
    ("(as_par (prins a) (lam _ (project (prin a) m)))",
     Env({"m": VMap.of({"b": FfiInt(1)})}), DEFAULT_FUEL),
    ("(concat (mkmap (prins a) (seal (prins a) 1)) "
     "(mkmap (prins a) (seal (prins a) 2)))", None, DEFAULT_FUEL),
    ("(ffi mk_sh 5)", None, DEFAULT_FUEL),
    ("(ffi comb_sh h)", Env({"h": HANDLE_AB}), DEFAULT_FUEL),
    (AsSec(EMPTY_SET, Lam("_", Const(FfiInt(1)))), None, DEFAULT_FUEL),
    (AsPar(EMPTY_SET, Lam("_", Const(FfiInt(1)))), None, DEFAULT_FUEL),
]


def run_digest(results) -> str:
    h = hashlib.sha256()
    for r in results:
        h.update(repr((r.status, r.steps, r.sec_entries, repr(r.value),
                       repr(r.trace), r.stuck_rule,
                       r.stuck_reason)).encode())
    return h.hexdigest()[:16]


def reference_run_digests() -> dict[str, str]:
    """Digests of every ``run`` result over the corpus at width 32 and at
    each cell's ``min_width``, 200 generated programs and the edge cases."""
    def corpus_runs():
        narrow = sorted({cell.min_width for cell in apps.corpus()})
        for w in (32, *narrow):
            for cell in apps.corpus(w):
                if w in (32, cell.min_width):
                    yield run(apps.load_program(cell.program), cell.env,
                              cell.ps, Runtime(0, w))

    env = base_env()
    return {
        "corpus": run_digest(corpus_runs()),
        "proggen": run_digest(run(gen_program(seed), env, AB)
                              for seed in range(200)),
        "edge": run_digest(
            run(parse(e) if type(e) is str else e, case_env, fuel=fuel)
            for e, case_env, fuel in EDGE_CASES),
    }


REFERENCE_RUN_DIGESTS = {
    "corpus": "cd8f10ddf3cc9e55",
    "proggen": "2a823c0c167cd874",
    "edge": "851e55e795957fec",
}


def test_reference_runs_are_pinned():
    assert reference_run_digests() == REFERENCE_RUN_DIGESTS


# ``run`` and ``machine_step`` drive the same rules from two loops

def stepped(e, env, ps, rt, fuel=DEFAULT_FUEL):
    """``run``'s result fields, from ``machine_step`` on the registers by
    hand: (status, steps, sec_entries, final registers, stuck rule,
    reason)."""
    regs = (Mode(PAR, ps), (), env, (), e)
    secs = 0
    for steps in range(fuel + 1):
        mode, stack, _, _, code = regs
        if not stack and isinstance(code, Value) and mode.tag == PAR:
            return "done", steps, secs, regs, None, None
        if steps == fuel:
            break
        out = machine_step(regs, rt)
        if type(out) is Stuck:
            return "stuck", steps, secs, regs, out.rule, out.reason
        if out[0].tag == SEC and mode.tag == PAR:
            secs += 1
        regs = out
    return "fuel", fuel, secs, regs, None, None


def fields(r):
    return (r.status, r.steps, r.sec_entries, r.config, r.stuck_rule,
            r.stuck_reason)


def test_run_and_machine_step_agree_step_for_step():
    cases = [(apps.load_program(cell.program), cell.env, cell.ps,
              DEFAULT_FUEL) for cell in apps.corpus()]
    env = base_env()
    cases += [(gen_program(seed), env, AB, DEFAULT_FUEL)
              for seed in range(300)]
    cases += [(parse(e) if type(e) is str else e, case_env or Env(), AB, fuel)
              for e, case_env, fuel in EDGE_CASES]
    statuses = set()
    for e, case_env, ps, fuel in cases:
        r = run(e, case_env, ps, Runtime(0, 32), fuel)
        assert fields(r) == stepped(e, case_env, ps, Runtime(0, 32),
                                    fuel), e
        statuses.add(r.status)
    assert statuses == {"done", "stuck", "fuel"}


def test_run_with_fuel_k_ends_where_k_steps_by_hand_do():
    e = apps.load_program("deal_round")
    cell, = [c for c in apps.corpus() if c.name == "deal/fresh"]
    n = run(e, cell.env, cell.ps, Runtime(0, 32)).steps
    for k in range(n + 1):
        r = run(e, cell.env, cell.ps, Runtime(0, 32), fuel=k)
        want = stepped(e, cell.env, cell.ps, Runtime(0, 32), fuel=k)
        assert fields(r) == want, k
        assert r.status == ("done" if k == n else "fuel"), k
