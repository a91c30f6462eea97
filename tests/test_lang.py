"""Core data model: principal sets, values, environments, slicing, combining."""

import pytest

from wysx.lang import (
    Bool, Clos, CombineConflict, Config, DomainMismatch, Env, FfiInt,
    FfiList, FfiPair, FfiStr, Frame, Mode, ModeError, OPAQUE, PAR, PrinSet,
    PrinVal, PrinsVal, SEC, Sealed, ShareVal, TMsg, TScope, UNIT,
    UnboundVariable, Var, VMap, can_seal, combine_envs, combine_many,
    combine_values, contains_bare_opaque, flatten_trace, free_vars,
    slice_config, slice_trace, slice_value,
)
from wysx.lang import App, AsPar, Const, Ffi, If, Lam, Let, Fix

from _proggen import gen_value, UNIVERSE

A = PrinSet.of("a")
B = PrinSet.of("b")
AB = PrinSet.of("a", "b")
ABC = PrinSet.of("a", "b", "c")


def test_prinset_sorted_dedup():
    assert PrinSet.of("b", "a", "b").names == ("a", "b")
    assert str(PrinSet.of("c", "a")) == "{a,c}"


def test_prinset_relations():
    assert A.subset_of(AB)
    assert not AB.subset_of(A)
    assert AB.intersects(PrinSet.of("b", "c"))
    assert not A.intersects(B)
    assert A.union(B) == AB
    assert A.is_singleton() and not AB.is_singleton()


def test_prinset_iteration_and_membership():
    assert list(ABC) == ["a", "b", "c"]
    assert "a" in ABC
    assert "z" not in ABC


def test_env_lookup_and_extend():
    e = Env({"x": FfiInt(1)})
    assert e.get("x") == FfiInt(1)
    e2 = e.extend("y", Bool(True))
    assert e2.get("y") == Bool(True)
    assert not e.has("y")
    with pytest.raises(UnboundVariable):
        e.get("zzz")


def test_env_restrict_and_eq():
    e = Env({"x": FfiInt(1), "y": FfiInt(2)})
    r = e.restrict({"x"})
    assert r.names() == {"x"}
    assert Env({"x": FfiInt(1)}) == r


def test_env_never_shares_bindings():
    b = {"x": FfiInt(1)}
    e = Env(b)
    b["y"] = FfiInt(2)  # the caller's dict stays the caller's
    assert e.names() == {"x"}
    e.extend("z", FfiInt(3))
    e.restrict(set())
    assert e.names() == {"x"} and e.get("x") == FfiInt(1)


def test_free_vars():
    e = Let("x", Var("y"), App(Lam("z", Var("z")), Var("x")))
    assert free_vars(e) == {"y"}
    f = Fix("f", "n", If(Var("p"), Var("n"), App(Var("f"), Var("n"))))
    assert free_vars(f) == {"p"}


# slicing

def test_slice_sealed_member_vs_outsider():
    v = Sealed(A, FfiInt(5))
    assert slice_value("a", v) == Sealed(A, FfiInt(5))
    assert slice_value("b", v) == Sealed(A, OPAQUE)


def test_slice_recurses_into_sealed_contents():
    v = Sealed(AB, Sealed(A, FfiInt(3)))
    assert slice_value("b", v) == Sealed(AB, Sealed(A, OPAQUE))


def test_slice_map_keeps_own_entry_only():
    m = VMap.of({"a": FfiInt(1), "b": FfiInt(2)})
    assert slice_value("a", m) == VMap.of({"a": FfiInt(1)})
    assert slice_value("c", m) == VMap.of({})


def test_slice_share_keeps_own_word():
    sh = ShareVal.of(AB, {"a": 3, "b": 5}, 8)
    sa = slice_value("a", sh)
    assert sa.word_of("a") == 3 and sa.word_of("b") is None
    sc = slice_value("c", sh)
    assert sc.words == ()


def test_slice_containers_and_closures():
    v = FfiPair(Sealed(A, FfiInt(1)), FfiList((Sealed(B, FfiInt(2)),)))
    sv = slice_value("a", v)
    assert sv.fst == Sealed(A, FfiInt(1))
    assert sv.snd.items[0] == Sealed(B, OPAQUE)
    c = Clos(Env({"x": Sealed(B, FfiInt(9))}), "y", Var("x"))
    assert slice_value("a", c).env.get("x") == Sealed(B, OPAQUE)


def test_slice_trace_scopes():
    t = (TMsg(FfiInt(1)),
         TScope(A, (TMsg(Sealed(A, FfiInt(2))),)),
         TScope(B, (TMsg(FfiInt(3)),)))
    # members see their scope contents inline, outsiders lose the scope
    assert slice_trace("a", t) == (TMsg(FfiInt(1)), TMsg(Sealed(A, FfiInt(2))))
    assert slice_trace("b", t) == (TMsg(FfiInt(1)), TMsg(FfiInt(3)))


def test_flatten_trace_returns_payloads():
    t = (TScope(A, (TMsg(FfiInt(1)), TScope(B, (TMsg(FfiInt(2)),)))),)
    assert flatten_trace(t) == (FfiInt(1), FfiInt(2))


def test_slice_config_requires_matching_par_mode():
    c = Config(Mode(SEC, AB), (), Env(), (), Const(UNIT))
    with pytest.raises(ModeError):
        slice_config(AB, c)


def test_slice_config_projects_stack():
    # (as_par (prins a) (lam _ (pair s t))) running its body, and the body
    # suspended after the pair's first operand, a value sealed for a
    e = Ffi("pair", (Var("s"), Var("t")))
    body = AsPar(Const(PrinsVal(A)), Lam("_", e))
    thunk = Clos(Env({"x": Sealed(A, FfiInt(7))}), "_", e)
    outer = Frame(Mode(PAR, AB), Env(), (), body, (PrinsVal(A), thunk), ())
    frame = Frame(Mode(PAR, AB), Env({"x": Sealed(A, FfiInt(7))}),
                  (TMsg(FfiInt(1)),), e, (Sealed(A, FfiInt(7)),),
                  (Var("t"),))
    c = Config(Mode(PAR, AB), (outer, frame), Env(), (), Const(UNIT))
    par = slice_config(AB, c)
    oa, fa = par["a"].stack
    ob, fb = par["b"].stack
    assert fa.env.get("x") == Sealed(A, FfiInt(7))
    assert fb.env.get("x") == Sealed(A, OPAQUE)
    assert (fa.e, fa.pending) == (fb.e, fb.pending) == (e, (Var("t"),))
    assert fa.done == (Sealed(A, FfiInt(7)),)
    assert fb.done == (Sealed(A, OPAQUE),)
    assert fa.mode == Mode(PAR, A) and fb.mode == Mode(PAR, B)
    # each party's copy of the body frame keeps the node and the set, and
    # its thunk's environment is that party's slice
    for of in (oa, ob):
        assert (of.e, of.pending, of.done[0]) == (body, (), PrinsVal(A))
    assert oa.done[1] == thunk
    assert ob.done[1] == Clos(Env({"x": Sealed(A, OPAQUE)}), "_", e)


# combining

def test_combine_opaque_yields():
    assert combine_values(OPAQUE, FfiInt(3)) == FfiInt(3)
    assert combine_values(FfiInt(3), OPAQUE) == FfiInt(3)
    assert combine_values(OPAQUE, OPAQUE) == OPAQUE


def test_combine_sealed_and_conflict():
    assert combine_values(Sealed(A, FfiInt(5)), Sealed(A, OPAQUE)) == Sealed(A, FfiInt(5))
    with pytest.raises(CombineConflict):
        combine_values(Sealed(A, FfiInt(5)), Sealed(B, FfiInt(5)))
    with pytest.raises(CombineConflict):
        combine_values(FfiInt(1), FfiInt(2))


def test_combine_maps_union():
    m1 = VMap.of({"a": FfiInt(1)})
    m2 = VMap.of({"b": FfiInt(2)})
    assert combine_values(m1, m2) == VMap.of({"a": FfiInt(1), "b": FfiInt(2)})


def test_combine_share_words():
    sa = ShareVal.of(AB, {"a": 3}, 8)
    sb = ShareVal.of(AB, {"b": 5}, 8)
    assert combine_values(sa, sb) == ShareVal.of(AB, {"a": 3, "b": 5}, 8)
    with pytest.raises(CombineConflict):
        combine_values(ShareVal.of(AB, {"a": 3}, 8), ShareVal.of(AB, {"a": 4}, 8))


def test_combine_closures_merges_envs():
    c1 = Clos(Env({"x": Sealed(A, FfiInt(1))}), "y", Var("x"))
    c2 = Clos(Env({"x": Sealed(A, OPAQUE)}), "y", Var("x"))
    assert combine_values(c1, c2).env.get("x") == Sealed(A, FfiInt(1))
    other = Clos(Env({"x": Sealed(A, OPAQUE)}), "z", Var("x"))
    with pytest.raises(CombineConflict):
        combine_values(c1, other)


def test_combine_envs_domain_check():
    with pytest.raises(DomainMismatch):
        combine_envs([Env({"x": FfiInt(1)}), Env({"y": FfiInt(1)})])


def test_combine_lists_length_check():
    with pytest.raises(CombineConflict):
        combine_values(FfiList((FfiInt(1),)), FfiList(()))


def test_slice_combine_round_trip_samples():
    samples = [
        FfiInt(42),
        Sealed(A, FfiPair(FfiInt(1), Bool(False))),
        VMap.of({"a": Sealed(A, FfiInt(1)), "b": FfiInt(2)}),
        ShareVal.of(ABC, {"a": 1, "b": 2, "c": 3}, 4),
        FfiList((Sealed(B, FfiStr("s")), UNIT)),
        Sealed(AB, VMap.of({"a": FfiInt(1), "b": FfiInt(2)})),
    ]
    for v in samples:
        slices = [slice_value(p, v) for p in ABC.names]
        assert combine_many(slices) == v


def test_slice_combine_round_trip_generated():
    for seed in range(500):
        v = gen_value(seed)
        slices = [slice_value(p, v) for p in UNIVERSE.names]
        assert combine_many(slices) == v
        for p in UNIVERSE.names:
            s = slice_value(p, v)
            assert slice_value(p, s) == s


# sealing permission

def test_can_seal_plain_values():
    assert can_seal(A, FfiInt(1))
    assert can_seal(A, FfiList((Bool(True), UNIT)))


def test_can_seal_share_needs_exact_set():
    sh = ShareVal.of(ABC, {"a": 1, "b": 2, "c": 3}, 8)
    assert can_seal(ABC, sh)
    assert not can_seal(AB, sh)


def test_can_seal_nested_seal_is_fine():
    # plain nested seals are addressed boxes, slicing protects the contents
    assert can_seal(A, Sealed(A, FfiInt(5)))
    assert can_seal(AB, Sealed(A, FfiInt(5)))
    assert can_seal(AB, Sealed(A, OPAQUE))


def test_can_seal_closure_captures():
    # a captured concrete seal must be readable by the whole audience
    good = Clos(Env({"x": Sealed(AB, FfiInt(1))}), "y", Var("x"))
    assert can_seal(A, good)
    bad = Clos(Env({"x": Sealed(B, FfiInt(1))}), "y", Var("x"))
    assert not can_seal(A, bad)
    # an already-blank capture carries nothing, so it may travel
    blanked = Clos(Env({"x": Sealed(B, OPAQUE)}), "y", Var("x"))
    assert can_seal(A, blanked)


def test_contains_bare_opaque():
    assert contains_bare_opaque(OPAQUE)
    assert contains_bare_opaque(FfiPair(FfiInt(1), OPAQUE))
    # placeholders under a seal are addressed, not bare
    assert not contains_bare_opaque(Sealed(A, OPAQUE))
    assert not contains_bare_opaque(FfiInt(3))


def test_contains_bare_opaque_looks_past_leaves_and_wrappers():
    hist = [ShareVal.of(ABC, {"a": i, "b": 2 * i, "c": 3}, 32)
            for i in range(5)]
    # a placeholder after a run of share handles is still found
    assert contains_bare_opaque(FfiList((*hist, OPAQUE)))
    assert not contains_bare_opaque(FfiList(tuple(hist)))
    # in a map entry or a closure environment it is bare
    assert contains_bare_opaque(VMap.of({"a": FfiInt(1), "b": OPAQUE}))
    assert contains_bare_opaque(
        Clos(Env({"h": hist[0], "x": OPAQUE}), "y", Var("x")))
    assert contains_bare_opaque(Clos(
        Env({"p": FfiPair(FfiInt(1), OPAQUE)}), "y", Var("p"), "f"))
    # a seal or a share handle protects what it holds
    assert not contains_bare_opaque(FfiList((Sealed(AB, OPAQUE), *hist)))
    assert not contains_bare_opaque(VMap.of({"a": Sealed(A, OPAQUE)}))
    assert not contains_bare_opaque(ShareVal.of(AB, {"a": 1}, 32))
    for leaf in (UNIT, Bool(False), FfiStr("s"), PrinVal("a"), PrinsVal(AB)):
        assert not contains_bare_opaque(leaf)
        assert not contains_bare_opaque(FfiPair(leaf, FfiList((leaf,))))


def test_host_call_on_a_bare_placeholder_sticks():
    from wysx.sexp import parse
    from wysx.st import run
    hist = FfiList(tuple(ShareVal.of(ABC, {"a": i, "b": i, "c": i}, 32)
                         for i in range(3)))
    env = Env({"hist": hist, "o": OPAQUE, "tail": FfiList((OPAQUE,))})
    for src, name in (("(ffi append hist (list o))", "list"),
                      ("(ffi append hist tail)", "append")):
        r = run(parse(src), env, ABC)
        assert r.status == "stuck" and r.stuck_rule == "ffi-apply"
        assert r.stuck_reason == \
            f"OpaqueArg: {name} applied to another party's data"


def test_values_hashable():
    vs = {FfiInt(1), Bool(True), Sealed(A, FfiInt(1)),
          VMap.of({"a": FfiInt(1)}), UNIT, OPAQUE, PrinVal("a"), PrinsVal(AB)}
    assert len(vs) == 8
