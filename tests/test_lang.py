"""Core data model: principal sets, values, environments, slicing, combining."""

import ast
import importlib
import pkgutil
from pathlib import Path
from types import SimpleNamespace

import pytest

import wysx
from wysx.apps import CorpusCell
from wysx.circuit import CBit, CInt, CMaskedList, Circuit, InputDecl
from wysx.ds import DsResult
from wysx.ffi import HostFn
from wysx.gmw import GmwResult
from wysx.lang import (
    Bool, Clos, CombineConflict, Env, FfiInt, FfiList,
    FfiPair, FfiStr, Mode, ModeError, OPAQUE, PAR, PrinSet,
    PrinVal, PrinsVal, SEC, Sealed, ShareVal, TMsg, TScope, UNIT,
    UnboundVariable, Var, VMap, WORD_BITS, can_seal, combine_envs,
    combine_many, combine_values, contains_bare_opaque, decode_word,
    encode_word, fits, free_vars, slice_config, slice_trace,
    slice_value,
)
from wysx.lang import (
    App, AsPar, AsSec, Concat, Const, Ffi, Fix, If, Lam, Let, MkMap, Project,
    Reveal, Seal,
)
from wysx.sexp import Tok
from wysx.st import CheckReport, NeedsSec, RunResult, Stuck

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


def test_prinset_iteration_and_membership():
    assert list(ABC) == ["a", "b", "c"]
    assert "a" in ABC
    assert "z" not in ABC


def test_word_codec_agrees_with_python_ints_at_every_width():
    assert WORD_BITS == 64
    for w in range(1, 65):
        lo, hi = -2 ** (w - 1), 2 ** (w - 1) - 1
        for n in (lo, hi, lo - 1, hi + 1, 0, -1):
            wrapped = (n - lo) % 2 ** w + lo
            assert fits(n, w) == (lo <= n <= hi), (w, n)
            assert encode_word(n, w) == n % 2 ** w, (w, n)
            assert decode_word(encode_word(n, w), w) == wrapped, (w, n)
            assert decode_word(n, w) == wrapped, (w, n)


def test_env_lookup_and_extend():
    e = Env({"x": FfiInt(1)})
    assert e.get("x") == FfiInt(1)
    e2 = e.extend("y", Bool(True))
    assert e2.get("y") == Bool(True)
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
    with pytest.raises(TypeError, match="^not an expression: FfiInt"):
        free_vars(FfiInt(1))


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


def test_slice_config_requires_matching_par_mode():
    regs = (Mode(SEC, AB), (), Env(), (), Const(UNIT))
    with pytest.raises(ModeError):
        slice_config(AB, regs)


def test_slice_config_projects_stack():
    # (as_par (prins a) (lam _ (pair s t))) running its body, and the body
    # suspended after the pair's first operand, a value sealed for a
    e = Ffi("pair", (Var("s"), Var("t")))
    body = AsPar(Const(PrinsVal(A)), Lam("_", e))
    thunk = Clos(Env({"x": Sealed(A, FfiInt(7))}), "_", e)
    outer = (Mode(PAR, AB), Env(), (), body, (PrinsVal(A), thunk), ())
    frame = (Mode(PAR, AB), Env({"x": Sealed(A, FfiInt(7))}),
             (TMsg(FfiInt(1)),), e, (Sealed(A, FfiInt(7)),), (Var("t"),))
    regs = (Mode(PAR, AB), (outer, frame), Env(), (), Const(UNIT))
    par = slice_config(AB, regs)
    assert list(par) == ["a", "b"]
    for p, q in (("a", A), ("b", B)):
        assert par[p][0] == Mode(PAR, q)
        assert par[p][2:] == (Env(), (), Const(UNIT))
    (oa, fa), (ob, fb) = par["a"][1], par["b"][1]
    # a frame is (mode, env, trace, e, done, pending)
    assert fa[1].get("x") == Sealed(A, FfiInt(7))
    assert fb[1].get("x") == Sealed(A, OPAQUE)
    assert fa[2] == fb[2] == (TMsg(FfiInt(1)),)
    assert (fa[3], fa[5]) == (fb[3], fb[5]) == (e, (Var("t"),))
    assert fa[4] == (Sealed(A, FfiInt(7)),)
    assert fb[4] == (Sealed(A, OPAQUE),)
    assert fa[0] == Mode(PAR, A) and fb[0] == Mode(PAR, B)
    # each party's copy of the body frame keeps the node and the set, and
    # its thunk's environment is that party's slice
    for of in (oa, ob):
        assert (of[3], of[5], of[4][0]) == (body, (), PrinsVal(A))
    assert oa[4][1] == thunk
    assert ob[4][1] == Clos(Env({"x": Sealed(A, OPAQUE)}), "_", e)


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
    # a shared key combines its two values
    m3 = VMap.of({"a": Sealed(A, FfiInt(1))})
    m4 = VMap.of({"a": Sealed(A, OPAQUE), "b": FfiInt(2)})
    assert combine_values(m3, m4) == VMap.of({"a": Sealed(A, FfiInt(1)),
                                              "b": FfiInt(2)})


def test_combine_share_words():
    sa = ShareVal.of(AB, {"a": 3}, 8)
    sb = ShareVal.of(AB, {"b": 5}, 8)
    assert combine_values(sa, sb) == ShareVal.of(AB, {"a": 3, "b": 5}, 8)
    with pytest.raises(CombineConflict):
        combine_values(ShareVal.of(AB, {"a": 3}, 8), ShareVal.of(AB, {"a": 4}, 8))
    for other in (ShareVal.of(ABC, {"b": 5}, 8), ShareVal.of(AB, {"b": 5}, 4)):
        with pytest.raises(CombineConflict, match="party set or width"):
            combine_values(sa, other)


def test_combine_closures_merges_envs():
    c1 = Clos(Env({"x": Sealed(A, FfiInt(1))}), "y", Var("x"))
    c2 = Clos(Env({"x": Sealed(A, OPAQUE)}), "y", Var("x"))
    assert combine_values(c1, c2).env.get("x") == Sealed(A, FfiInt(1))
    other = Clos(Env({"x": Sealed(A, OPAQUE)}), "z", Var("x"))
    with pytest.raises(CombineConflict):
        combine_values(c1, other)


def test_combine_envs_domain_check():
    with pytest.raises(CombineConflict, match=r"^\['x'\] vs \['y'\]$"):
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


# ---------------------------------------------------------------------------
# record classes: constructor, equality, hash, repr and slots

def record_classes() -> set[type]:
    """Every record class the package defines, found by walking its
    modules."""
    found = set()
    for m in pkgutil.iter_modules(wysx.__path__):
        mod = importlib.import_module(f"wysx.{m.name}")
        found |= {c for c in vars(mod).values()
                  if isinstance(c, type) and c.__module__ == mod.__name__
                  and "_fields" in vars(c)}
    return found


MODE = Mode(PAR, AB)
CLOS = Clos(Env({"z": FfiInt(1)}), "y", Var("z"))
DECL = InputDecl("a", (("var", "x"),), (2,), True)

# one instance of every record class, with its pinned repr
RECORDS = [
    (AB, "PrinSet(names=('a', 'b'))"),
    (PrinVal("a"), "PrinVal(name='a')"),
    (PrinsVal(A), "PrinsVal(ps=PrinSet(names=('a',)))"),
    (UNIT, "Unit()"),
    (Bool(True), "Bool(b=True)"),
    (FfiInt(5), "FfiInt(n=5)"),
    (FfiStr("s"), "FfiStr(s='s')"),
    (FfiPair(FfiInt(1), UNIT), "FfiPair(fst=FfiInt(n=1), snd=Unit())"),
    (FfiList((FfiInt(1),)), "FfiList(items=(FfiInt(n=1),))"),
    (Sealed(A, FfiInt(1)), "Sealed(ps=PrinSet(names=('a',)), v=FfiInt(n=1))"),
    (VMap.of({"a": FfiInt(1)}), "VMap(entries=(('a', FfiInt(n=1)),))"),
    (OPAQUE, "Opaque()"),
    (ShareVal.of(A, {"a": 1}, 4),
     "ShareVal(ps=PrinSet(names=('a',)), words=(('a', 1),), width=4)"),
    (Const(FfiInt(1)), "Const(v=FfiInt(n=1))"),
    (Var("x"), "Var(x='x')"),
    (Let("x", Var("y"), Var("x")),
     "Let(x='x', bound=Var(x='y'), body=Var(x='x'))"),
    (Lam("x", Var("y")), "Lam(x='x', body=Var(x='y'))"),
    (Fix("f", "x", Var("f")), "Fix(f='f', x='x', body=Var(x='f'))"),
    (App(Var("f"), Var("x")), "App(fn=Var(x='f'), arg=Var(x='x'))"),
    (If(Var("c"), Var("t"), Var("e")),
     "If(cond=Var(x='c'), then=Var(x='t'), els=Var(x='e'))"),
    (AsPar(Var("s"), Var("f")), "AsPar(ps=Var(x='s'), fn=Var(x='f'))"),
    (AsSec(Var("s"), Var("f")), "AsSec(ps=Var(x='s'), fn=Var(x='f'))"),
    (Seal(Var("s"), Var("x")), "Seal(ps=Var(x='s'), body=Var(x='x'))"),
    (Reveal(Var("x")), "Reveal(e=Var(x='x'))"),
    (MkMap(Var("s"), Var("x")), "MkMap(ps=Var(x='s'), v=Var(x='x'))"),
    (Project(Var("p"), Var("m")), "Project(prin=Var(x='p'), m=Var(x='m'))"),
    (Concat(Var("m"), Var("n")), "Concat(m1=Var(x='m'), m2=Var(x='n'))"),
    (Ffi("add", (Var("x"),)), "Ffi(name='add', args=(Var(x='x'),))"),
    (CLOS, "Clos(env=Env(z=FfiInt(n=1)), x='y', body=Var(x='z'), f=None)"),
    (TMsg(UNIT), "TMsg(v=Unit())"),
    (TScope(A, (TMsg(UNIT),)),
     "TScope(ps=PrinSet(names=('a',)), t=(TMsg(v=Unit()),))"),
    (MODE, "Mode(tag='par', ps=PrinSet(names=('a', 'b')))"),
    (DECL, "InputDecl(party='a', path=(('var', 'x'),), wires=(2,), "
           "is_bool=True)"),
    (CInt((1, 2)), "CInt(2 wires)"),
    (CBit(2), "CBit(wire 2)"),
    (CMaskedList((3,), (CBit(4),)),
     "CMaskedList(present=(3,), items=(CBit(wire 4),))"),
    (Circuit(A, 4, 3, [([], [])], [DECL], [(2, frozenset("a"))], CBit(2)),
     "Circuit(parties=PrinSet(names=('a',)), width=4, n_wires=3, "
     "inputs=[InputDecl(party='a', path=(('var', 'x'),), wires=(2,), "
     "is_bool=True)], outputs=[(2, frozenset({'a'}))], decode=CBit(wire 2), "
     "and_count=0, and_depth=0)"),
    (HostFn("add", 2, None), "HostFn(name='add', arity=2, fn=None)"),
    (Tok("sym", "x", 1, 2), "Tok(kind='sym', text='x', line=1, col=2)"),
    (Stuck("apply", "why"), "Stuck(rule='apply', reason='why')"),
    (NeedsSec(A, CLOS),
     "NeedsSec(ps=PrinSet(names=('a',)), clos=Clos(env=Env(z=FfiInt(n=1)), "
     "x='y', body=Var(x='z'), f=None))"),
    (RunResult("done", UNIT, (), "config", 3, 0),
     "RunResult(status='done', value=Unit(), trace=(), config='config', "
     "steps=3, sec_entries=0, stuck_rule=None, stuck_reason=None)"),
    (CheckReport("pass", checked=3),
     "CheckReport(status='pass', detail='', checked=3, groups=0)"),
    (DsResult("done", {}, {}, 5),
     "DsResult(status='done', parties={}, par={}, ticks=5, reason=None, "
     "sec_entries=0, circuits=())"),
    (GmwResult({"a": {2: 1}}, 1, 0, 0, {}),
     "GmwResult(outputs={'a': {2: 1}}, rounds=1, and_rounds=0, "
     "triples_used=0, channels={})"),
    (CorpusCell("c", "prog", Env(), A),
     "CorpusCell(name='c', program='prog', env=Env(), "
     "ps=PrinSet(names=('a',)), min_width=4)"),
]

def test_every_record_class_has_a_sample():
    assert {type(x) for x, _ in RECORDS} == record_classes()
    assert len(RECORDS) == 46


@pytest.mark.parametrize("x, text", RECORDS,
                         ids=[type(x).__name__ for x, _ in RECORDS])
def test_record_semantics(x, text):
    cls = type(x)
    assert repr(x) == text
    compared = cls._fields  # the constructor's fields, in its order
    same = cls(*(getattr(x, k) for k in compared))
    assert same == x and not same != x
    assert same == cls(**{k: getattr(x, k) for k in compared})
    for k in compared:
        other = cls(*(getattr(x, k) for k in compared))
        object.__setattr__(other, k, object())
        assert other != x
    # equality wants the exact class, whatever the fields hold
    assert x.__eq__(SimpleNamespace(**{k: getattr(x, k) for k in compared})) \
        is NotImplemented
    assert not hasattr(x, "__dict__")
    key = tuple(getattr(x, k) for k in compared)
    try:
        want = hash(key)
    except TypeError:  # a field has no hash: an ``Env``, a list or a dict
        with pytest.raises(TypeError):
            hash(x)
    else:
        assert hash(x) == want


# ---------------------------------------------------------------------------
# no record is changed once it is built: a check of the sources

ROOT = Path(__file__).resolve().parent.parent
WRITERS = {"setattr", "delattr", "__setattr__", "__delattr__"}


def is_record(cls: ast.ClassDef) -> bool:
    return any(isinstance(d, ast.Name) and d.id == "record"
               for d in cls.decorator_list)


def record_writes(sources: dict[str, str], fields: set[str]) -> list[str]:
    """``file:line .name`` for each assignment, augmented assignment or
    ``del`` of an attribute named like a record field in ``sources`` (file
    name -> text), and for each ``setattr``, ``delattr`` or
    ``object.__setattr__`` of such a name given as a literal.

    Two receivers are plain objects and exempt: ``self`` in a class that is
    not a record, and a name that the same function binds to a new instance
    of a class, defined in ``sources``, that is not a record."""
    trees = {f: ast.parse(text) for f, text in sources.items()}
    plain = {c.name for t in trees.values() for c in ast.walk(t)
             if isinstance(c, ast.ClassDef) and not is_record(c)}
    hits = []

    def visit(node, f, cls, own):
        if isinstance(node, ast.ClassDef):
            cls = node
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            own = {t.id for a in ast.walk(node) if isinstance(a, ast.Assign)
                   and isinstance(a.value, ast.Call)
                   and isinstance(a.value.func, ast.Name)
                   and a.value.func.id in plain
                   for t in a.targets if isinstance(t, ast.Name)}
            if cls is not None and not is_record(cls):
                own.add("self")
        target = None
        if isinstance(node, ast.Attribute) and type(node.ctx) is not ast.Load:
            target = node.value, node.attr
        elif isinstance(node, ast.Call) and len(node.args) >= 2:
            fn, name = node.func, node.args[1]
            if (getattr(fn, "id", getattr(fn, "attr", None)) in WRITERS
                    and isinstance(name, ast.Constant)):
                target = node.args[0], name.value
        if target is not None:
            obj, attr = target
            if attr in fields and getattr(obj, "id", None) not in own:
                hits.append(f"{f}:{node.lineno} .{attr}")
        for child in ast.iter_child_nodes(node):
            visit(child, f, cls, own)

    for f, tree in trees.items():
        visit(tree, f, None, set())
    return hits


def test_no_record_is_changed_after_it_is_built():
    fields = {k for c in record_classes() for k in c._fields}
    sources = {p.relative_to(ROOT).as_posix(): p.read_text(encoding="utf-8")
               for d in ("src", "bench", "tools")
               for p in sorted((ROOT / d).rglob("*.py"))}
    assert record_writes(sources, fields) == []


def test_record_write_is_reported():
    src = ("@record\n"
           "class Inst:\n"
           "    n: int\n"
           "    done: bool\n"
           "    def finish(self):\n"
           "        self.done = True\n"
           "class Builder:\n"
           "    def __init__(self, w):\n"
           "        self.n = w\n"
           "def run(inst, v, name):\n"
           "    inst.done = True\n"
           "    setattr(v, 'n', 1)\n"
           "    object.__setattr__(v, 'n', 1)\n"
           "    del v.n\n"
           "    v.n += 1\n"
           "    delattr(v, 'done')\n"
           "    b = Builder(1)\n"
           "    b.n = 2\n"
           "    v.other = 3\n"
           "    v.n.items[0] = 4\n")
    assert record_writes({"m.py": src}, {"n", "done"}) == [
        "m.py:6 .done", "m.py:11 .done", "m.py:12 .n", "m.py:13 .n",
        "m.py:14 .n", "m.py:15 .n", "m.py:16 .done"]


def test_record_equality_ignores_class_fields_and_free_vars():
    assert PrinVal("a") != FfiStr("a")
    assert CInt(5) != FfiInt(5)
    lam = Lam("x", App(Var("x"), Var("y")))
    assert lam.fv == {"y"} and Fix("f", "x", Var("z")).fv == {"z"}
    other = Lam("x", App(Var("x"), Var("y")))
    object.__setattr__(other, "fv", frozenset())
    assert other == lam and hash(other) == hash(lam)
    assert Lam.f is None and lam.f is None
    assert Lam._fields == ("x", "body") and Fix._fields == ("f", "x", "body")
    assert Clos._fields == ("env", "x", "body", "f")
    assert Circuit._fields == ("parties", "width", "n_wires", "layers",
                               "inputs", "outputs", "decode")
