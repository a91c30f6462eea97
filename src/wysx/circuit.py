"""Boolean-circuit compilation of joint blocks.

A joint block's thunk is evaluated symbolically: public data stays concrete,
private data becomes wires. The result is a flat gate list (CONST/XOR/AND/
NOT) plus input declarations saying which party feeds which wires from
where in its local environment, and a decode tree mapping output wires back
to each party's view of the block result.

Integers are two's complement at a fixed width. Branching on private
booleans compiles both arms and multiplexes them, so control flow never
depends on secrets; branching on public booleans follows the taken arm
only, which keeps compile-time effects (share minting) aligned with the
reference semantics.

Share handles get special treatment. A handle flowing in becomes per-party
input wires, one word per holder. A handle minted inside the block uses the
same deterministic mask stream as the reference interpreter: every holder
but the canonically last gets a pure mask as its word, and the last word is
computed in circuit as the value xored with those masks, revealed only to
the last holder. The handles all backends produce are therefore identical
bit for bit.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from typing import Optional, Union

from . import ffi as ffi_mod
from .lang import (
    App, AsPar, AsSec, Bool, Clos, Concat, Const, Env, Expr, Ffi, FfiInt,
    FfiList, FfiPair, FfiStr, Fix, FixClos, If, Lam, Let, MkMap, Opaque,
    PrinSet, PrinVal, PrinsVal, Project, Reveal, Seal, Sealed, ShareVal,
    UNIT, Unit, Value, VMap, Var, WysError, free_vars,
)
from .shares import ShareMint, decode_word, encode_word


class CircuitError(WysError):
    pass


class NotCircuitable(CircuitError):
    """The block does something the gate-level backend cannot express."""


class MissingInput(CircuitError):
    """A party's local environment lacks data it must feed to the circuit."""


# ---------------------------------------------------------------------------
# gates and the builder

CONST, XOR, AND, NOT = "CONST", "XOR", "AND", "NOT"


@dataclass(slots=True)
class Gate:
    op: str
    out: int
    a: int = -1
    b: int = -1
    bit: int = 0


Path = tuple  # steps: ("var", x) ("unseal",) ("fst",) ("snd",) ("idx", i)
#               ("entry", p) ("word",) ("cenv", x)


@dataclass(frozen=True, slots=True)
class InputDecl:
    party: str
    path: Path
    wires: tuple[int, ...]
    is_bool: bool


class Builder:
    """Wire allocator with light constant folding."""

    def __init__(self):
        self.gates: list[Gate] = []
        self.n = 0
        self.known: dict[int, int] = {}
        self._const_wire: dict[int, int] = {}
        self.input_wires: set[int] = set()

    def fresh(self) -> int:
        w = self.n
        self.n += 1
        return w

    def input_wire(self) -> int:
        w = self.fresh()
        self.input_wires.add(w)
        return w

    def const(self, bit: int) -> int:
        bit &= 1
        got = self._const_wire.get(bit)
        if got is not None:
            return got
        w = self.fresh()
        self.gates.append(Gate(CONST, w, bit=bit))
        self.known[w] = bit
        self._const_wire[bit] = w
        return w

    def xor(self, a: int, b: int) -> int:
        ka, kb = self.known.get(a), self.known.get(b)
        if ka is not None and kb is not None:
            return self.const(ka ^ kb)
        if ka == 0:
            return b
        if kb == 0:
            return a
        if ka == 1:
            return self.not_(b)
        if kb == 1:
            return self.not_(a)
        if a == b:
            return self.const(0)
        w = self.fresh()
        self.gates.append(Gate(XOR, w, a, b))
        return w

    def and_(self, a: int, b: int) -> int:
        ka, kb = self.known.get(a), self.known.get(b)
        if ka == 0 or kb == 0:
            return self.const(0)
        if ka == 1:
            return b
        if kb == 1:
            return a
        if a == b:
            return a
        w = self.fresh()
        self.gates.append(Gate(AND, w, a, b))
        return w

    def not_(self, a: int) -> int:
        ka = self.known.get(a)
        if ka is not None:
            return self.const(1 - ka)
        w = self.fresh()
        self.gates.append(Gate(NOT, w, a))
        return w

    def or_(self, a: int, b: int) -> int:
        return self.xor(self.xor(a, b), self.and_(a, b))

    def const_word(self, n: int, width: int) -> tuple[int, ...]:
        n = encode_word(n, width)
        return tuple(self.const((n >> i) & 1) for i in range(width))


def add_wires(b: Builder, xs, ys, carry_in=None):
    out = []
    c = b.const(0) if carry_in is None else carry_in
    for x, y in zip(xs, ys):
        xy = b.xor(x, y)
        out.append(b.xor(xy, c))
        c = b.xor(b.and_(x, y), b.and_(c, xy))
    return tuple(out)


def sub_wires(b: Builder, xs, ys):
    return add_wires(b, xs, tuple(b.not_(y) for y in ys), carry_in=b.const(1))


def gt_wires(b: Builder, xs, ys) -> int:
    """Signed greater-than: flip sign bits, then ripple an unsigned compare."""
    xs2 = xs[:-1] + (b.not_(xs[-1]),)
    ys2 = ys[:-1] + (b.not_(ys[-1]),)
    gt = b.const(0)
    for x, y in zip(xs2, ys2):  # low to high; later bits dominate
        here = b.and_(x, b.not_(y))
        same = b.not_(b.xor(x, y))
        gt = b.xor(here, b.and_(same, gt))
    return gt


def eq_wires(b: Builder, xs, ys) -> int:
    bits = [b.not_(b.xor(x, y)) for x, y in zip(xs, ys)]
    while len(bits) > 1:
        nxt = []
        for i in range(0, len(bits) - 1, 2):
            nxt.append(b.and_(bits[i], bits[i + 1]))
        if len(bits) % 2:
            nxt.append(bits[-1])
        bits = nxt
    return bits[0] if bits else b.const(1)


def mux_wires(b: Builder, c: int, ts, fs):
    return tuple(b.xor(f, b.and_(c, b.xor(t, f))) for t, f in zip(ts, fs))


# ---------------------------------------------------------------------------
# compile-time values

class CV:
    __slots__ = ()


@dataclass(frozen=True, slots=True)
class CPubInt(CV):
    n: int


@dataclass(frozen=True, slots=True)
class CPubBool(CV):
    b: bool


@dataclass(frozen=True, slots=True)
class CPubStr(CV):
    s: str


@dataclass(frozen=True, slots=True)
class CUnit(CV):
    pass


@dataclass(frozen=True, slots=True)
class CPrin(CV):
    name: str


@dataclass(frozen=True, slots=True)
class CPrins(CV):
    ps: PrinSet


@dataclass(frozen=True, slots=True)
class CInt(CV):
    wires: tuple[int, ...]


@dataclass(frozen=True, slots=True)
class CBit(CV):
    wire: int


@dataclass(frozen=True, slots=True)
class CPair(CV):
    fst: CV
    snd: CV


@dataclass(frozen=True, slots=True)
class CList(CV):
    items: tuple[CV, ...]


@dataclass(frozen=True, slots=True)
class CMap(CV):
    entries: tuple[tuple[str, CV], ...]


@dataclass(frozen=True, slots=True)
class CSealed(CV):
    ps: PrinSet
    inner: Optional[CV]  # None when no block member holds the contents


@dataclass(frozen=True, slots=True)
class CShareIn(CV):
    """A handle fed into the block: each holder contributes its word."""

    ps: PrinSet
    width: int
    words: tuple[tuple[str, tuple[int, ...]], ...]


@dataclass(frozen=True, slots=True)
class CShareOut(CV):
    """A handle minted inside the block."""

    ps: PrinSet
    width: int
    masks: tuple[tuple[str, int], ...]  # all holders but the last
    last: str
    value_wires: tuple[int, ...]
    last_wires: tuple[int, ...]


@dataclass(frozen=True, slots=True)
class CMaskedList(CV):
    """List of private length: presence bits plus presence-masked items."""

    present: tuple[int, ...]
    items: tuple[CV, ...]


@dataclass(frozen=True, slots=True)
class CClos(CV):
    cenv: tuple[tuple[str, CV], ...]
    x: str
    body: Expr


@dataclass(frozen=True, slots=True)
class CFixClos(CV):
    cenv: tuple[tuple[str, CV], ...]
    f: str
    x: str
    body: Expr


# ---------------------------------------------------------------------------
# decode trees: output wires back to per-party values

class Decode:
    __slots__ = ()


@dataclass(frozen=True, slots=True)
class DConst(Decode):
    v: Value


@dataclass(frozen=True, slots=True)
class DInt(Decode):
    wires: tuple[int, ...]


@dataclass(frozen=True, slots=True)
class DBool(Decode):
    wire: int


@dataclass(frozen=True, slots=True)
class DPair(Decode):
    fst: Decode
    snd: Decode


@dataclass(frozen=True, slots=True)
class DList(Decode):
    items: tuple[Decode, ...]


@dataclass(frozen=True, slots=True)
class DMap(Decode):
    entries: tuple[tuple[str, Decode], ...]


@dataclass(frozen=True, slots=True)
class DSealed(Decode):
    ps: PrinSet
    inner: Optional[Decode]


@dataclass(frozen=True, slots=True)
class DShare(Decode):
    ps: PrinSet
    width: int
    masks: tuple[tuple[str, int], ...]
    last: str
    last_wires: tuple[int, ...]


@dataclass(frozen=True, slots=True)
class DShareEcho(Decode):
    ps: PrinSet
    width: int
    words: tuple[tuple[str, tuple[int, ...]], ...]


@dataclass(frozen=True, slots=True)
class DMaskedList(Decode):
    present: tuple[int, ...]
    items: tuple[Decode, ...]


@dataclass
class Circuit:
    parties: PrinSet
    width: int
    gates: list[Gate]
    n_wires: int
    inputs: list[InputDecl]
    outputs: list[tuple[int, frozenset]]  # wire, recipients
    decode: Decode
    and_count: int = field(init=False)
    and_depth: int = field(init=False)
    # layers[r]: (local gates at AND-depth r, AND gates at depth r + 1),
    # each in builder order; the last layer has no AND gates
    layers: list[tuple[list[Gate], list[Gate]]] = field(init=False,
                                                        repr=False)

    def __post_init__(self):
        """Layer the gates by AND-depth in one pass. Builder order is a
        topological order, so a wire's depth is known before any gate that
        reads it."""
        depth = [0] * self.n_wires
        layers: list[tuple[list[Gate], list[Gate]]] = [([], [])]
        for g in self.gates:
            op = g.op
            if op == AND:
                d = depth[g.a]
                if depth[g.b] > d:
                    d = depth[g.b]
                layers[d][1].append(g)
                d += 1
                if d == len(layers):
                    layers.append(([], []))
            else:
                if op == XOR:
                    d = depth[g.a]
                    if depth[g.b] > d:
                        d = depth[g.b]
                elif op == NOT:
                    d = depth[g.a]
                else:
                    d = 0
                layers[d][0].append(g)
            depth[g.out] = d
        self.layers = layers
        self.and_count = sum(len(ands) for _, ands in layers)
        self.and_depth = len(layers) - 1


# ---------------------------------------------------------------------------
# the compiler

_INT_LIKE = (CInt, CPubInt)
_BOOL_LIKE = (CBit, CPubBool)


class Compiler:
    def __init__(self, parties: PrinSet, width: int, mint: ShareMint):
        self.parties = parties
        self.width = width
        self.mint = mint
        self.b = Builder()
        self.inputs: list[InputDecl] = []
        self.outputs: list[tuple[int, frozenset]] = []

    # -- turning environment values into compile-time values ----------------

    def convert(self, v: Value, path: Path, vis: frozenset) -> CV:
        """vis = block members whose local view holds this subvalue."""
        t = type(v)
        all_parties = frozenset(self.parties.names)
        if t is FfiInt:
            if vis == all_parties:
                return CPubInt(v.n)
            return CInt(self._secret_int(path, vis))
        if t is Bool:
            if vis == all_parties:
                return CPubBool(v.b)
            return CBit(self._secret_bit(path, vis))
        if t is FfiStr:
            if vis == all_parties:
                return CPubStr(v.s)
            raise NotCircuitable("private strings have no gate encoding")
        if t is Unit:
            return CUnit()
        if t is PrinVal:
            return CPrin(v.name)
        if t is PrinsVal:
            return CPrins(v.ps)
        if t is Sealed:
            vis2 = vis & frozenset(v.ps.names)
            if not vis2:
                return CSealed(v.ps, None)
            return CSealed(v.ps, self.convert(v.v, path + (("unseal",),), vis2))
        if t is FfiPair:
            return CPair(self.convert(v.fst, path + (("fst",),), vis),
                         self.convert(v.snd, path + (("snd",),), vis))
        if t is FfiList:
            return CList(tuple(self.convert(it, path + (("idx", i),), vis)
                               for i, it in enumerate(v.items)))
        if t is VMap:
            entries = []
            for q, w in v.entries:
                entries.append((q, self.convert(w, path + (("entry", q),),
                                                vis & {q})))
            return CMap(tuple(entries))
        if t is ShareVal:
            words = []
            wpath = path + (("word",),)
            for p in v.ps:
                if p in vis:
                    wires = tuple(self.b.input_wire() for _ in range(v.width))
                    self.inputs.append(InputDecl(p, wpath, wires, False))
                    words.append((p, wires))
            return CShareIn(v.ps, v.width, tuple(words))
        if t is Clos:
            cenv = tuple((x, self.convert(w, path + (("cenv", x),), vis))
                         for x, w in v.env.items())
            return CClos(cenv, v.x, v.body)
        if t is FixClos:
            cenv = tuple((x, self.convert(w, path + (("cenv", x),), vis))
                         for x, w in v.env.items())
            return CFixClos(cenv, v.f, v.x, v.body)
        if t is Opaque:
            raise NotCircuitable("placeholder reached the gate compiler")
        raise NotCircuitable(f"no gate encoding for {v!r}")

    def _secret_int(self, path: Path, vis: frozenset) -> tuple[int, ...]:
        owner = sorted(vis)[0]
        wires = tuple(self.b.input_wire() for _ in range(self.width))
        self.inputs.append(InputDecl(owner, path, wires, False))
        return wires

    def _secret_bit(self, path: Path, vis: frozenset) -> int:
        owner = sorted(vis)[0]
        w = self.b.input_wire()
        self.inputs.append(InputDecl(owner, path, (w,), True))
        return w

    # -- public round trips --------------------------------------------------

    def cv_to_value(self, cv: CV) -> Optional[Value]:
        t = type(cv)
        if t is CPubInt:
            return FfiInt(cv.n)
        if t is CPubBool:
            return Bool(cv.b)
        if t is CPubStr:
            return FfiStr(cv.s)
        if t is CUnit:
            return UNIT
        if t is CPrin:
            return PrinVal(cv.name)
        if t is CPrins:
            return PrinsVal(cv.ps)
        if t is CPair:
            f = self.cv_to_value(cv.fst)
            s = self.cv_to_value(cv.snd)
            return FfiPair(f, s) if f is not None and s is not None else None
        if t is CList:
            items = [self.cv_to_value(i) for i in cv.items]
            if any(i is None for i in items):
                return None
            return FfiList(tuple(items))
        if t is CSealed:
            if cv.inner is None:
                return None
            inner = self.cv_to_value(cv.inner)
            return Sealed(cv.ps, inner) if inner is not None else None
        if t is CMap:
            entries = {}
            for q, w in cv.entries:
                got = self.cv_to_value(w)
                if got is None:
                    return None
                entries[q] = got
            return VMap.of(entries)
        return None

    def value_to_cv(self, v: Value) -> CV:
        t = type(v)
        if t is FfiInt:
            return CPubInt(v.n)
        if t is Bool:
            return CPubBool(v.b)
        if t is FfiStr:
            return CPubStr(v.s)
        if t is Unit:
            return CUnit()
        if t is PrinVal:
            return CPrin(v.name)
        if t is PrinsVal:
            return CPrins(v.ps)
        if t is FfiPair:
            return CPair(self.value_to_cv(v.fst), self.value_to_cv(v.snd))
        if t is FfiList:
            return CList(tuple(self.value_to_cv(i) for i in v.items))
        if t is Sealed:
            return CSealed(v.ps, self.value_to_cv(v.v))
        if t is VMap:
            return CMap(tuple((q, self.value_to_cv(w)) for q, w in v.entries))
        raise NotCircuitable(f"host produced {v!r}, which has no gate encoding")

    # -- coercions -----------------------------------------------------------

    def as_int_wires(self, cv: CV) -> tuple[int, ...]:
        t = type(cv)
        if t is CInt:
            if len(cv.wires) != self.width:
                raise NotCircuitable("mixed word widths")
            return cv.wires
        if t is CPubInt:
            return self.b.const_word(cv.n, self.width)
        raise NotCircuitable(f"expected an integer, got {type(cv).__name__}")

    def as_bit(self, cv: CV) -> int:
        t = type(cv)
        if t is CBit:
            return cv.wire
        if t is CPubBool:
            return self.b.const(1 if cv.b else 0)
        raise NotCircuitable(f"expected a boolean, got {type(cv).__name__}")

    def as_list(self, cv: CV) -> CList:
        if type(cv) is CList:
            return cv
        raise NotCircuitable(f"expected a list, got {type(cv).__name__}")

    # -- multiplexing --------------------------------------------------------

    def mux(self, c: int, t: CV, f: CV) -> CV:
        tt, tf = type(t), type(f)
        if tt in _INT_LIKE and tf in _INT_LIKE:
            return CInt(mux_wires(self.b, c, self.as_int_wires(t),
                                  self.as_int_wires(f)))
        if tt in _BOOL_LIKE and tf in _BOOL_LIKE:
            return CBit(self.b.xor(self.as_bit(f),
                                   self.b.and_(c, self.b.xor(self.as_bit(t),
                                                             self.as_bit(f)))))
        if tt is CPair and tf is CPair:
            return CPair(self.mux(c, t.fst, f.fst), self.mux(c, t.snd, f.snd))
        if tt is CList and tf is CList:
            if len(t.items) != len(f.items):
                raise NotCircuitable("branches build lists of different lengths")
            return CList(tuple(self.mux(c, a, b)
                               for a, b in zip(t.items, f.items)))
        if tt is CMaskedList and tf is CMaskedList:
            if len(t.items) != len(f.items):
                raise NotCircuitable("branches build lists of different lengths")
            present = tuple(self.b.xor(pf, self.b.and_(c, self.b.xor(pt, pf)))
                            for pt, pf in zip(t.present, f.present))
            return CMaskedList(present, tuple(self.mux(c, a, b)
                                              for a, b in zip(t.items, f.items)))
        if tt is CUnit and tf is CUnit:
            return t
        if t == f:
            return t
        if tt is CSealed and tf is CSealed and t.ps == f.ps:
            if t.inner is None or f.inner is None:
                raise NotCircuitable("branch seals contents nobody here holds")
            return CSealed(t.ps, self.mux(c, t.inner, f.inner))
        if tt is CMap and tf is CMap:
            if tuple(q for q, _ in t.entries) != tuple(q for q, _ in f.entries):
                raise NotCircuitable("branches build maps over different parties")
            return CMap(tuple((q, self.mux(c, a, b))
                              for (q, a), (_, b) in zip(t.entries, f.entries)))
        raise NotCircuitable(
            f"cannot merge {type(t).__name__} with {type(f).__name__} "
            f"under a private branch")

    # -- host call lowerings ---------------------------------------------------

    def lower_ffi(self, name: str, args: list[CV]) -> CV:
        b = self.b
        if name == "mk_sh":
            if len(args) != 1:
                raise NotCircuitable("mk_sh takes one argument")
            vw = self.as_int_wires(args[0])
            masks = self.mint.draw_masks(self.parties, self.width)
            acc = 0
            for m in masks.values():
                acc ^= m
            last_wires = tuple(b.xor(w, b.const((acc >> i) & 1))
                               for i, w in enumerate(vw))
            return CShareOut(self.parties, self.width,
                             tuple(sorted(masks.items())),
                             self.parties.names[-1], vw, last_wires)
        if name == "comb_sh":
            if len(args) != 1:
                raise NotCircuitable("comb_sh takes one argument")
            h = args[0]
            if type(h) is CShareOut:
                return CInt(h.value_wires)
            if type(h) is CShareIn:
                if h.ps != self.parties:
                    raise NotCircuitable(
                        f"handle for {h.ps} recombined by {self.parties}")
                if h.width != self.width:
                    raise NotCircuitable("mixed word widths")
                words = dict(h.words)
                if set(words) != set(self.parties.names):
                    raise NotCircuitable("handle is missing words")
                out = []
                for i in range(h.width):
                    acc = None
                    for p in self.parties:
                        wi = words[p][i]
                        acc = wi if acc is None else b.xor(acc, wi)
                    out.append(acc)
                return CInt(tuple(out))
            raise NotCircuitable("comb_sh applied to a non-handle")

        # anything fully public runs on the host, exactly like the reference
        vals = [self.cv_to_value(a) for a in args]
        if all(v is not None for v in vals):
            try:
                out = ffi_mod.exec_ffi(name, tuple(vals))
            except WysError as ex:
                raise NotCircuitable(f"host call failed: {ex}") from None
            return self.value_to_cv(out)

        if name in ("add", "sub"):
            xs = self.as_int_wires(args[0])
            ys = self.as_int_wires(args[1])
            return CInt(add_wires(b, xs, ys) if name == "add"
                        else sub_wires(b, xs, ys))
        if name in ("gt", "lt", "ge"):
            xs = self.as_int_wires(args[0])
            ys = self.as_int_wires(args[1])
            if name == "gt":
                return CBit(gt_wires(b, xs, ys))
            if name == "lt":
                return CBit(gt_wires(b, ys, xs))
            return CBit(b.not_(gt_wires(b, ys, xs)))
        if name == "eq":
            return CBit(self._eq_bit(args[0], args[1]))
        if name == "not":
            return CBit(b.not_(self.as_bit(args[0])))
        if name == "and":
            return CBit(b.and_(self.as_bit(args[0]), self.as_bit(args[1])))
        if name == "or":
            return CBit(b.or_(self.as_bit(args[0]), self.as_bit(args[1])))
        if name == "pair":
            return CPair(args[0], args[1])
        if name == "fst":
            if type(args[0]) is CPair:
                return args[0].fst
            raise NotCircuitable("fst of a non-pair")
        if name == "snd":
            if type(args[0]) is CPair:
                return args[0].snd
            raise NotCircuitable("snd of a non-pair")
        if name == "list":
            return CList(tuple(args))
        if name == "cons":
            return CList((args[0],) + self.as_list(args[1]).items)
        if name == "hd":
            items = self.as_list(args[0]).items
            if not items:
                raise NotCircuitable("hd of an empty list")
            return items[0]
        if name == "tl":
            items = self.as_list(args[0]).items
            if not items:
                raise NotCircuitable("tl of an empty list")
            return CList(items[1:])
        if name == "is_nil":
            return CPubBool(not self.as_list(args[0]).items)
        if name == "length":
            return CPubInt(len(self.as_list(args[0]).items))
        if name == "append":
            return CList(self.as_list(args[0]).items +
                         self.as_list(args[1]).items)
        if name == "nth":
            if type(args[1]) is not CPubInt:
                raise NotCircuitable("list index depends on private data")
            items = self.as_list(args[0]).items
            i = args[1].n
            if not 0 <= i < len(items):
                raise NotCircuitable("list index out of range")
            return items[i]
        if name == "list_mem":
            return CBit(self._mem_bit(args[0], self.as_list(args[1]).items))
        if name == "list_intersect":
            return self._intersect(self.as_list(args[0]),
                                   self.as_list(args[1]))
        raise NotCircuitable(f"no secure lowering for host call {name}")

    def _eq_bit(self, x: CV, y: CV) -> int:
        tx, ty = type(x), type(y)
        if tx in _INT_LIKE and ty in _INT_LIKE:
            return eq_wires(self.b, self.as_int_wires(x), self.as_int_wires(y))
        if tx in _BOOL_LIKE and ty in _BOOL_LIKE:
            return self.b.not_(self.b.xor(self.as_bit(x), self.as_bit(y)))
        raise NotCircuitable(
            f"no private equality over {type(x).__name__} and {type(y).__name__}")

    def _mem_bit(self, x: CV, items: tuple[CV, ...]) -> int:
        acc = self.b.const(0)
        for it in items:
            acc = self.b.or_(acc, self._eq_bit(x, it))
        return acc

    def _intersect(self, la: CList, lb: CList) -> CV:
        if not la.items or not lb.items:
            return CList(())
        present = []
        masked = []
        for x in la.items:
            pbit = self._mem_bit(x, lb.items)
            present.append(pbit)
            masked.append(self._mask_item(pbit, x))
        return CMaskedList(tuple(present), tuple(masked))

    def _mask_item(self, pbit: int, cv: CV) -> CV:
        t = type(cv)
        if t in _INT_LIKE:
            return CInt(tuple(self.b.and_(pbit, w)
                              for w in self.as_int_wires(cv)))
        if t in _BOOL_LIKE:
            return CBit(self.b.and_(pbit, self.as_bit(cv)))
        raise NotCircuitable(
            f"list elements of {type(cv).__name__} cannot be masked")

    # -- the symbolic evaluator ----------------------------------------------

    def ceval(self, env: dict, e: Expr) -> CV:
        t = type(e)
        if t is Const:
            return self.value_to_cv(e.v)
        if t is Var:
            try:
                return env[e.x]
            except KeyError:
                raise NotCircuitable(f"unbound variable {e.x}") from None
        if t is Let:
            bound = self.ceval(env, e.bound)
            env2 = dict(env)
            env2[e.x] = bound
            return self.ceval(env2, e.body)
        if t is Lam:
            fv = free_vars(e)
            return CClos(tuple(sorted((x, cv) for x, cv in env.items()
                                      if x in fv)), e.x, e.body)
        if t is Fix:
            fv = free_vars(e)
            return CFixClos(tuple(sorted((x, cv) for x, cv in env.items()
                                         if x in fv)), e.f, e.x, e.body)
        if t is App:
            fn = self.ceval(env, e.fn)
            arg = self.ceval(env, e.arg)
            return self.apply(fn, arg)
        if t is If:
            cond = self.ceval(env, e.cond)
            if type(cond) is CPubBool:
                return self.ceval(env, e.then if cond.b else e.els)
            if type(cond) is CBit:
                tv = self.ceval(env, e.then)
                fv_ = self.ceval(env, e.els)
                return self.mux(cond.wire, tv, fv_)
            raise NotCircuitable("branch condition is not a boolean")
        if t is Ffi:
            args = [self.ceval(env, a) for a in e.args]
            return self.lower_ffi(e.name, args)
        if t is Seal:
            ps = self.ceval(env, e.ps)
            if type(ps) is not CPrins:
                raise NotCircuitable("seal set is not a principal set")
            if not ps.ps.subset_of(self.parties):
                raise NotCircuitable(f"sealing for {ps.ps} inside {self.parties}")
            return CSealed(ps.ps, self.ceval(env, e.body))
        if t is Reveal:
            cv = self.ceval(env, e.e)
            if type(cv) is not CSealed:
                raise NotCircuitable("revealing a value that is not sealed")
            if not cv.ps.intersects(self.parties):
                raise NotCircuitable(f"no block member may open a seal for {cv.ps}")
            if cv.inner is None:
                raise NotCircuitable("no block member holds the sealed contents")
            return cv.inner
        if t is MkMap:
            ps = self.ceval(env, e.ps)
            if type(ps) is not CPrins:
                raise NotCircuitable("map domain is not a principal set")
            if not ps.ps.subset_of(self.parties):
                raise NotCircuitable(f"map domain {ps.ps} outside {self.parties}")
            cv = self.ceval(env, e.v)
            return CMap(tuple((p, cv) for p in ps.ps))
        if t is Project:
            pv = self.ceval(env, e.prin)
            if type(pv) is not CPrin:
                raise NotCircuitable("projection key is not a principal")
            m = self.ceval(env, e.m)
            if type(m) is not CMap:
                raise NotCircuitable("projecting from a non-map")
            if pv.name not in self.parties:
                raise NotCircuitable(f"{pv.name} is outside the block")
            for q, cv in m.entries:
                if q == pv.name:
                    return cv
            raise NotCircuitable(f"no map entry for {pv.name}")
        if t is Concat:
            m1 = self.ceval(env, e.m1)
            m2 = self.ceval(env, e.m2)
            if type(m1) is not CMap or type(m2) is not CMap:
                raise NotCircuitable("concatenating non-maps")
            ks1 = {q for q, _ in m1.entries}
            ks2 = {q for q, _ in m2.entries}
            if ks1 & ks2:
                raise NotCircuitable("map domains overlap")
            return CMap(tuple(sorted(m1.entries + m2.entries)))
        if t is AsPar or t is AsSec:
            raise NotCircuitable("nested blocks cannot run under gates")
        raise NotCircuitable(f"no gate translation for {type(e).__name__}")

    def apply(self, fn: CV, arg: CV) -> CV:
        if type(fn) is CClos:
            env = dict(fn.cenv)
            env[fn.x] = arg
            return self.ceval(env, fn.body)
        if type(fn) is CFixClos:
            env = dict(fn.cenv)
            env[fn.f] = fn
            env[fn.x] = arg
            return self.ceval(env, fn.body)
        raise NotCircuitable("calling a non-function")

    # -- outputs ---------------------------------------------------------------

    def build_output(self, cv: CV, recipients: frozenset) -> Decode:
        t = type(cv)
        if t in (CPubInt, CPubBool, CPubStr, CUnit, CPrin, CPrins):
            return DConst(self.cv_to_value(cv))
        if t is CInt:
            for w in cv.wires:
                self.outputs.append((w, recipients))
            return DInt(cv.wires)
        if t is CBit:
            self.outputs.append((cv.wire, recipients))
            return DBool(cv.wire)
        if t is CPair:
            return DPair(self.build_output(cv.fst, recipients),
                         self.build_output(cv.snd, recipients))
        if t is CList:
            return DList(tuple(self.build_output(i, recipients)
                               for i in cv.items))
        if t is CMap:
            entries = []
            for q, w in cv.entries:
                entries.append((q, self.build_output(w, recipients & {q})))
            return DMap(tuple(entries))
        if t is CSealed:
            if cv.inner is None:
                return DSealed(cv.ps, None)
            inner = self.build_output(cv.inner,
                                      recipients & frozenset(cv.ps.names))
            return DSealed(cv.ps, inner)
        if t is CShareOut:
            for w in cv.last_wires:
                self.outputs.append((w, frozenset((cv.last,))))
            return DShare(cv.ps, cv.width, cv.masks, cv.last, cv.last_wires)
        if t is CShareIn:
            for p, wires in cv.words:
                for w in wires:
                    self.outputs.append((w, frozenset((p,))))
            return DShareEcho(cv.ps, cv.width, cv.words)
        if t is CMaskedList:
            for w in cv.present:
                self.outputs.append((w, recipients))
            return DMaskedList(cv.present,
                               tuple(self.build_output(i, recipients)
                                     for i in cv.items))
        raise NotCircuitable(
            f"a block cannot return a {type(cv).__name__}")


def compile_sec_thunk(env: Env, body: Expr, parties: PrinSet, width: int,
                      mint: ShareMint) -> Circuit:
    # symbolic evaluation recurses once per nesting level of the block
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(limit, 20000))
    try:
        comp = Compiler(parties, width, mint)
        fv = free_vars(body)
        cenv = {}
        vis = frozenset(parties.names)
        for x, v in env.items():
            if x in fv:
                cenv[x] = comp.convert(v, (("var", x),), vis)
        result = comp.ceval(cenv, body)
        decode = comp.build_output(result, frozenset(parties.names))
    finally:
        sys.setrecursionlimit(limit)
    return Circuit(parties, width, comp.b.gates, comp.b.n, comp.inputs,
                   comp.outputs, decode)


# ---------------------------------------------------------------------------
# binding party inputs and direct evaluation

def _walk(env: Env, path: Path, party: str) -> Value:
    v: Value = None
    for step in path:
        tag = step[0]
        if tag == "var":
            v = env.get(step[1])
        elif tag == "unseal":
            if type(v) is not Sealed:
                raise MissingInput(f"{party}: expected sealed data on {path}")
            v = v.v
        elif tag == "fst":
            v = v.fst
        elif tag == "snd":
            v = v.snd
        elif tag == "idx":
            v = v.items[step[1]]
        elif tag == "entry":
            v = v.get(step[1])
            if v is None:
                raise MissingInput(f"{party}: no map entry on {path}")
        elif tag == "word":
            if type(v) is not ShareVal:
                raise MissingInput(f"{party}: expected a handle on {path}")
            w = v.word_of(party)
            if w is None:
                raise MissingInput(f"{party}: handle holds no word for them")
            return FfiInt(w)  # already raw bits, caller slices
        elif tag == "cenv":
            if type(v) not in (Clos, FixClos):
                raise MissingInput(f"{party}: expected a closure on {path}")
            v = v.env.get(step[1])
        else:
            raise MissingInput(f"unknown path step {step!r}")
    return v


def bind_inputs(circ: Circuit, party_envs: dict[str, Env]) -> dict[str, dict[int, int]]:
    """Per-party wire assignments pulled from each party's local environment."""
    out: dict[str, dict[int, int]] = {p: {} for p in circ.parties}
    for decl in circ.inputs:
        env = party_envs.get(decl.party)
        if env is None:
            raise MissingInput(f"no environment for {decl.party}")
        try:
            v = _walk(env, decl.path, decl.party)
        except (MissingInput,) as ex:
            raise
        except Exception as ex:
            raise MissingInput(f"{decl.party}: cannot read {decl.path}: {ex}") from None
        if type(v) is Opaque:
            raise MissingInput(f"{decl.party}: holds a placeholder on {decl.path}")
        if decl.is_bool:
            if type(v) is not Bool:
                raise MissingInput(f"{decl.party}: expected a bool on {decl.path}")
            out[decl.party][decl.wires[0]] = 1 if v.b else 0
        else:
            if type(v) is not FfiInt:
                raise MissingInput(f"{decl.party}: expected an int on {decl.path}")
            word = encode_word(v.n, len(decl.wires))
            for i, w in enumerate(decl.wires):
                out[decl.party][w] = (word >> i) & 1
    return out


def eval_circuit(circ: Circuit, party_bits: dict[str, dict[int, int]]) -> dict[int, int]:
    """Plain in-the-clear evaluation; the protocol-free reference for tests."""
    wv: dict[int, int] = {}
    for bits in party_bits.values():
        wv.update(bits)
    for g in circ.gates:
        if g.op == CONST:
            wv[g.out] = g.bit
        elif g.op == XOR:
            wv[g.out] = wv[g.a] ^ wv[g.b]
        elif g.op == AND:
            wv[g.out] = wv[g.a] & wv[g.b]
        else:
            wv[g.out] = 1 - wv[g.a]
    return wv


def decode_output(d: Decode, party: str, wv: dict[int, int]) -> Value:
    t = type(d)
    if t is DConst:
        return d.v
    if t is DInt:
        word = 0
        for i, w in enumerate(d.wires):
            word |= wv[w] << i
        return FfiInt(decode_word(word, len(d.wires)))
    if t is DBool:
        return Bool(bool(wv[d.wire]))
    if t is DPair:
        return FfiPair(decode_output(d.fst, party, wv),
                       decode_output(d.snd, party, wv))
    if t is DList:
        return FfiList(tuple(decode_output(i, party, wv) for i in d.items))
    if t is DMap:
        entries = tuple((q, decode_output(sub, party, wv))
                        for q, sub in d.entries if q == party)
        return VMap(entries)
    if t is DSealed:
        if party in d.ps and d.inner is not None:
            return Sealed(d.ps, decode_output(d.inner, party, wv))
        return Sealed(d.ps, Opaque())
    if t is DShare:
        if party == d.last:
            word = 0
            for i, w in enumerate(d.last_wires):
                word |= wv[w] << i
        else:
            word = dict(d.masks)[party]
        return ShareVal(d.ps, ((party, word),), d.width)
    if t is DShareEcho:
        words = dict(d.words)
        if party not in words:
            return ShareVal(d.ps, (), d.width)
        word = 0
        for i, w in enumerate(words[party]):
            word |= wv[w] << i
        return ShareVal(d.ps, ((party, word),), d.width)
    if t is DMaskedList:
        out = []
        for pw, sub in zip(d.present, d.items):
            if wv[pw]:
                out.append(decode_output(sub, party, wv))
        return FfiList(tuple(out))
    raise CircuitError(f"bad decode node {d!r}")


def dump_circuit(circ: Circuit) -> str:
    lines = [f"circuit parties={','.join(circ.parties.names)} "
             f"width={circ.width} wires={circ.n_wires} "
             f"ands={circ.and_count} depth={circ.and_depth}"]
    for decl in circ.inputs:
        path = "/".join(":".join(str(p) for p in step) for step in decl.path)
        kind = "bool" if decl.is_bool else "int"
        ws = ",".join(f"x{w}" for w in decl.wires)
        lines.append(f"INPUT {decl.party} {kind} {path} {ws}")
    for g in circ.gates:
        if g.op == CONST:
            lines.append(f"CONST x{g.out} <- {g.bit}")
        elif g.op == NOT:
            lines.append(f"NOT x{g.out} <- x{g.a}")
        else:
            lines.append(f"{g.op} x{g.out} <- x{g.a} x{g.b}")
    for w, recips in circ.outputs:
        lines.append(f"OUT x{w} -> {','.join(sorted(recips))}")
    return "\n".join(lines) + "\n"
