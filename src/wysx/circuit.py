"""Boolean-circuit compilation of joint blocks.

A joint block's thunk is evaluated symbolically over the interpreters' own
values: public data stays a plain ``lang`` value, private data becomes a
wire node, and pairs, lists, maps and seals hold either. The result is a
list of AND layers, each two flat lists of gates ``[op, out, a, b, op, out,
a, b, ...]`` (op CONST/XOR/AND/NOT) filled as the builder emits them, so no
gate is an object of its own; input declarations saying which
party feeds which wires from where in its local environment; and the
block's result value. That value is also the decode tree: each party's
view of the block result is its slice (``lang.slice_value``, as on the
ideal backend) with the wire nodes read back from output wires.

Fully public host calls and the shape-only builtins of ``ffi.SHAPE_ONLY``
run on their host bodies, exactly as on the reference machine; only the
other builtins have gate lowerings. Sealing, revealing, map building,
projection and concatenation apply the reference machine's own
``st.check_first_operand`` and ``st.apply_rule`` in the block's joint
mode, so a block sticks for the same reason on every backend. The compiler
adds one check of its own: a revealed seal's contents must be held by a
member.

Integers are two's complement at a fixed width. Branching on private
booleans compiles both arms and multiplexes them, so control flow never
depends on secrets; branching on public booleans follows the taken arm
only, which keeps compile-time effects (share minting) aligned with the
reference semantics.

Share handles stay ``ShareVal``s. A handle flowing in becomes per-party
input wires, one word per holder. A handle minted inside the block starts
from the mint's handle of 0 (``ShareMint.mint_words``), drawn from the same
deterministic mask stream as the reference interpreter's: every holder but
the canonically last has a pure mask as its word, and the last holder's
word, the XOR of those masks, is XORed with the value in gates and revealed
only to that holder. The handles all backends produce are therefore
identical bit for bit.

A circuit is public: private data enter it only through input wires, so a
compile is a function of the block's code, the party set, the width and
the environment's public shape (``public_shape``: public values as they
are, and each private value's kind and the members that see it). The one
exception is ``mk_sh``, which draws masks from the mint and folds them into
the gates. ``compile_sec_thunk`` therefore lets a distributed run reuse a
compile that drew nothing for every later entry of the same shape, found
before anything is converted; each entry still binds its own inputs and
runs the protocol with a fresh dealer seed.
"""

from __future__ import annotations

from itertools import repeat
from operator import eq, itemgetter

from . import ffi as ffi_mod
from .lang import (
    OPAQUE, OPERANDS, SEC, App, AsPar, AsSec, Bool, Clos, Concat, Const, Env,
    Expr, Ffi, FfiInt, FfiList, FfiPair, FfiStr, Fix, If, Lam, Let, MkMap,
    Mode, Opaque, PrinSet, PrinVal, PrinsVal, Project, Reveal, Seal, Sealed,
    ShareVal, UnboundVariable, Unit, Value, VMap, Var, WysError, children,
    decode_word, encode_word, fits, free_vars, record, slice_value,
    with_children,
)
from .shares import ShareMint
from .st import Stuck, apply_rule, check_first_operand


class CircuitError(WysError):
    pass


class NotCircuitable(CircuitError):
    """The block does something the gate-level backend cannot express."""


class MissingInput(CircuitError):
    """A party's local environment lacks data it must feed to the circuit."""


# ---------------------------------------------------------------------------
# gates and the builder

CONST, XOR, AND, NOT = "CONST", "XOR", "AND", "NOT"

# A gate is four items (op, out, a, b) of its layer's flat list. CONST keeps
# its bit in a; CONST and NOT have b = -1.


Path = tuple  # steps: ("var", x) ("unseal",) ("fst",) ("snd",) ("idx", i)
#               ("entry", p) ("word",) ("cenv", x)


@record
class InputDecl:
    party: str
    path: Path
    wires: tuple[int, ...]
    is_bool: bool


def gate_tuples(self) -> list[tuple]:
    """The ``(op, out, a, b)`` gates of ``self.layers`` in builder order:
    every gate's output is the next fresh wire, so that is the order of
    output wires. Built on each call, for dumps, tests and counts."""
    gates = []
    for local, ands in self.layers:
        for flat in (local, ands):
            it = iter(flat)
            gates += zip(it, it, it, it)
    gates.sort(key=itemgetter(1))
    return gates


class Builder:
    """Wire allocator with light constant folding.

    Every gate is filed under its AND layer as it is emitted. The builder
    knows each wire's AND-depth, and ``layers[r]`` holds the local gates of
    depth r and the AND gates of depth r + 1, each a flat list of four
    items per gate in builder order; the last layer has no AND gates.
    Builder order is a topological order, so an operand's depth is always
    known when a gate reads it."""

    gates = property(gate_tuples)

    def __init__(self):
        self.n = 0
        self.depth: list[int] = []  # AND-depth of each wire
        self.layers: list[tuple[list, list]] = [([], [])]
        self.known: dict[int, int] = {}  # the constant wires and their bits
        self._const_wire: dict[int, int] = {}

    def input_word(self, width: int) -> tuple[int, ...]:
        w = self.n
        self.n = w + width
        self.depth += repeat(0, width)
        return tuple(range(w, w + width))

    def input_wire(self) -> int:
        return self.input_word(1)[0]

    def const(self, bit: int) -> int:
        bit &= 1
        got = self._const_wire.get(bit)
        if got is not None:
            return got
        w = self.n
        self.n = w + 1
        self.depth.append(0)
        self.layers[0][0].extend((CONST, w, bit, -1))
        self.known[w] = bit
        self._const_wire[bit] = w
        return w

    def xor(self, a: int, b: int) -> int:
        known = self.known
        if a in known or b in known or a == b:
            ka, kb = known.get(a), known.get(b)
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
            return self.const(0)
        w = self.n
        self.n = w + 1
        depth = self.depth
        d = depth[a]
        if depth[b] > d:
            d = depth[b]
        depth.append(d)
        self.layers[d][0].extend((XOR, w, a, b))
        return w

    def and_(self, a: int, b: int) -> int:
        known = self.known
        if a in known or b in known or a == b:
            ka, kb = known.get(a), known.get(b)
            if ka == 0 or kb == 0:
                return self.const(0)
            if ka == 1:
                return b
            return a
        w = self.n
        self.n = w + 1
        depth = self.depth
        d = depth[a]
        if depth[b] > d:
            d = depth[b]
        depth.append(d + 1)
        layers = self.layers
        layers[d][1].extend((AND, w, a, b))
        if d + 1 == len(layers):
            layers.append(([], []))
        return w

    def not_(self, a: int) -> int:
        ka = self.known.get(a)
        if ka is not None:
            return self.const(1 - ka)
        w = self.n
        self.n = w + 1
        d = self.depth[a]
        self.depth.append(d)
        self.layers[d][0].extend((NOT, w, a, -1))
        return w

    def or_(self, a: int, b: int) -> int:
        return self.xor(self.xor(a, b), self.and_(a, b))

    def const_word(self, n: int, width: int) -> tuple[int, ...]:
        n = encode_word(n, width)
        return tuple(self.const((n >> i) & 1) for i in range(width))

    # word emitters: the same gates, in the same order, as the scalar calls
    # they stand for, emitted in one call once no operand can fold

    def xnor_word(self, xs, ys) -> list[int]:
        """``not_(xor(x, y))`` for each bit pair, XOR and NOT interleaved."""
        keys = self.known.keys()
        if (not keys.isdisjoint(xs) or not keys.isdisjoint(ys)
                or any(map(eq, xs, ys))):
            return [self.not_(self.xor(x, y)) for x, y in zip(xs, ys)]
        depth, layers = self.depth, self.layers
        w = self.n
        out = []
        for x, y in zip(xs, ys):
            d = depth[x]
            if depth[y] > d:
                d = depth[y]
            depth += (d, d)
            v = w + 1
            layers[d][0].extend((XOR, w, x, y, NOT, v, w, -1))
            out.append(v)
            w = v + 1
        self.n = w
        return out

    def and_tree(self, bits) -> int:
        """AND of ``bits`` as a balanced tree, emitted level by level; an odd
        bit out moves up a level unchanged."""
        if not bits:
            return self.const(1)
        if (len(set(bits)) < len(bits)
                or not self.known.keys().isdisjoint(bits)):
            while len(bits) > 1:
                nxt = [self.and_(bits[i], bits[i + 1])
                       for i in range(0, len(bits) - 1, 2)]
                if len(bits) % 2:
                    nxt.append(bits[-1])
                bits = nxt
            return bits[0]
        # fresh outputs are distinct and unknown, so no level can fold
        depth, layers = self.depth, self.layers
        w = self.n
        while len(bits) > 1:
            nxt = []
            for i in range(0, len(bits) - 1, 2):
                x, y = bits[i], bits[i + 1]
                d = depth[x]
                if depth[y] > d:
                    d = depth[y]
                depth.append(d + 1)
                layers[d][1].extend((AND, w, x, y))
                if d + 1 == len(layers):
                    layers.append(([], []))
                nxt.append(w)
                w += 1
            if len(bits) % 2:
                nxt.append(bits[-1])
            bits = nxt
        self.n = w
        return bits[0]


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
    return b.and_tree(b.xnor_word(xs, ys))


def mux_wires(b: Builder, c: int, ts, fs):
    return tuple(b.xor(f, b.and_(c, b.xor(t, f))) for t, f in zip(ts, fs))


# ---------------------------------------------------------------------------
# wire nodes
#
# Compile-time data are ``lang`` values. Public scalars stay as they are;
# pairs, lists, maps and seals may also hold the wire nodes below, and a
# share handle is a ``ShareVal`` whose words are ints (masks known at
# compile time) or ``CInt`` wire nodes (input words, or the last holder's
# minted word). A seal that no block member can open is
# ``Sealed(ps, OPAQUE)``, and a closure is a ``Clos`` over an ``Env`` of
# compile-time values. The block's result is also its decode tree:
# ``decode_output`` takes a party's slice of it, as the ideal backend does,
# and reads the wire nodes left back from output wires.

@record
class CInt(Value):
    wires: tuple[int, ...]

    def __repr__(self) -> str:  # short enough for a one-line stuck reason
        return f"CInt({len(self.wires)} wires)"


@record
class CBit(Value):
    wire: int

    def __repr__(self) -> str:
        return f"CBit(wire {self.wire})"


@record
class CMaskedList(Value):
    """List of private length: presence bits plus presence-masked items."""

    present: tuple[int, ...]
    items: tuple[Value, ...]


_PUBLIC_SCALARS = (FfiInt, Bool, FfiStr, Unit, PrinVal, PrinsVal)


def is_public(v: Value) -> bool:
    """No wire, closure or unopenable seal inside: a host call on ``v`` runs
    exactly as on the reference machine."""
    t = type(v)
    if t in _PUBLIC_SCALARS:
        return True
    if t is FfiPair or t is FfiList or t is VMap or t is Sealed:
        return all(is_public(w) for w in children(v))
    return False


@record
class Circuit:
    __slots__ = ("and_count", "and_depth")  # set once, from ``layers``
    parties: PrinSet
    width: int
    n_wires: int
    # layers[r]: (local gates at AND-depth r, AND gates at depth r + 1),
    # each flat and in builder order, as ``Builder`` files them
    layers: list[tuple[list, list]]
    inputs: list[InputDecl]
    outputs: list[tuple[int, frozenset]]  # wire, recipients
    decode: Value  # the block's result, wire nodes included
    gates = property(gate_tuples)
    # the repr shows the two counts in place of the gates
    _shown = ("parties", "width", "n_wires", "inputs", "outputs", "decode",
              "and_count", "and_depth")

    def __post_init__(self):
        self.and_count = sum(len(ands) for _, ands in self.layers) // 4
        self.and_depth = len(self.layers) - 1


# ---------------------------------------------------------------------------
# the compiler

_INT_LIKE = (CInt, FfiInt)
_BOOL_LIKE = (CBit, Bool)
_VALUE_RULES = (Seal, Reveal, MkMap, Project, Concat)

# How deep ``ceval`` may nest. Any block body the parser accepts fits
# (``sexp.MAX_NESTING``), and as a level takes at most two frames, a compile
# stays inside the default recursion limit of 1000. A block that nests
# deeper sticks: a recursion unrolled past the bound, or one that never ends
# because its stop condition is private and both arms are compiled.
MAX_CEVAL_DEPTH = 400


class Compiler:
    def __init__(self, parties: PrinSet, width: int, mint: ShareMint):
        self.parties = parties
        self.members = frozenset(parties.names)
        self.mode = Mode(SEC, parties)
        self.width = width
        self.mint = mint
        self.b = Builder()
        self.inputs: list[InputDecl] = []
        self.outputs: list[tuple[int, frozenset]] = []
        self.minted = False  # drew masks: the gates hold them

    # -- turning environment values into compile-time values ----------------

    def convert(self, v: Value, path: Path, vis: frozenset) -> Value:
        """vis = block members whose local view holds this subvalue.
        ``public_shape`` keys reuse on what this reads: keep them in step."""
        t = type(v)
        if t in _PUBLIC_SCALARS and vis == self.members:
            return v
        if t is FfiInt:
            return CInt(self._input(sorted(vis)[0], path, self.width, False))
        if t is Bool:
            return CBit(self._input(sorted(vis)[0], path, 1, True)[0])
        if t is FfiStr:
            raise NotCircuitable("private strings have no gate encoding")
        if t is Unit or t is PrinVal or t is PrinsVal:
            return v
        if t is Sealed:
            vis2 = vis & frozenset(v.ps.names)
            if not vis2:
                return Sealed(v.ps, OPAQUE)
            return Sealed(v.ps, self.convert(v.v, path + (("unseal",),), vis2))
        if t is FfiPair:
            return FfiPair(self.convert(v.fst, path + (("fst",),), vis),
                           self.convert(v.snd, path + (("snd",),), vis))
        if t is FfiList:
            return FfiList(tuple(self.convert(it, path + (("idx", i),), vis)
                                 for i, it in enumerate(v.items)))
        if t is VMap:
            entries = []
            for q, w in v.entries:
                entries.append((q, self.convert(w, path + (("entry", q),),
                                                vis & {q})))
            return VMap(tuple(entries))
        if t is ShareVal:  # each holder in view feeds its word
            wpath = path + (("word",),)
            return ShareVal(v.ps, tuple(
                (p, CInt(self._input(p, wpath, v.width, False)))
                for p in v.ps if p in vis), v.width)
        if t is Clos:
            cenv = Env({x: self.convert(w, path + (("cenv", x),), vis)
                        for x, w in v.env.items()})
            return Clos(cenv, v.x, v.body, v.f)
        if t is Opaque:
            raise NotCircuitable("placeholder reached the gate compiler")
        raise NotCircuitable(f"no gate encoding for {v!r}")

    def _input(self, owner: str, path: Path, n: int,
               is_bool: bool) -> tuple[int, ...]:
        """``n`` fresh input wires that ``owner`` feeds from ``path``."""
        wires = self.b.input_word(n)
        self.inputs.append(InputDecl(owner, path, wires, is_bool))
        return wires

    # -- coercions -----------------------------------------------------------

    def as_int_wires(self, v: Value) -> tuple[int, ...]:
        t = type(v)
        if t is CInt:
            if len(v.wires) != self.width:
                raise NotCircuitable("mixed word widths")
            return v.wires
        if t is FfiInt:
            # the gates compute at this width, where it would wrap
            if not fits(v.n, self.width):
                raise NotCircuitable(
                    f"constant {v.n} does not fit {self.width} bits")
            return self.b.const_word(v.n, self.width)
        raise NotCircuitable(f"expected an integer, got {t.__name__}")

    def as_bit(self, v: Value) -> int:
        t = type(v)
        if t is CBit:
            return v.wire
        if t is Bool:
            return self.b.const(1 if v.b else 0)
        raise NotCircuitable(f"expected a boolean, got {t.__name__}")

    def as_list(self, v: Value) -> FfiList:
        if type(v) is FfiList:
            return v
        raise NotCircuitable(f"expected a list, got {type(v).__name__}")

    # -- multiplexing --------------------------------------------------------

    def mux(self, c: int, t: Value, f: Value) -> Value:
        tt, tf = type(t), type(f)
        if tt in _INT_LIKE and tf in _INT_LIKE:
            return CInt(mux_wires(self.b, c, self.as_int_wires(t),
                                  self.as_int_wires(f)))
        if tt in _BOOL_LIKE and tf in _BOOL_LIKE:
            fw = self.as_bit(f)  # first: either call may emit a CONST wire
            return CBit(mux_wires(self.b, c, (self.as_bit(t),), (fw,))[0])
        if tt is FfiPair and tf is FfiPair:
            return FfiPair(self.mux(c, t.fst, f.fst),
                           self.mux(c, t.snd, f.snd))
        if tt is FfiList and tf is FfiList:
            if len(t.items) != len(f.items):
                raise NotCircuitable("branches build lists of different lengths")
            return FfiList(tuple(self.mux(c, a, b)
                                 for a, b in zip(t.items, f.items)))
        if tt is CMaskedList and tf is CMaskedList:
            if len(t.items) != len(f.items):
                raise NotCircuitable("branches build lists of different lengths")
            return CMaskedList(mux_wires(self.b, c, t.present, f.present),
                               tuple(self.mux(c, a, b)
                                     for a, b in zip(t.items, f.items)))
        if t == f:
            return t
        if tt is Sealed and tf is Sealed and t.ps == f.ps:
            if type(t.v) is Opaque or type(f.v) is Opaque:
                raise NotCircuitable("branch seals contents nobody here holds")
            return Sealed(t.ps, self.mux(c, t.v, f.v))
        if tt is VMap and tf is VMap:
            if t.keys() != f.keys():
                raise NotCircuitable("branches build maps over different parties")
            return VMap(tuple((q, self.mux(c, a, b))
                              for (q, a), (_, b) in zip(t.entries, f.entries)))
        raise NotCircuitable(
            f"cannot merge {tt.__name__} with {tf.__name__} "
            f"under a private branch")

    # -- host call lowerings ---------------------------------------------------

    def lower_ffi(self, name: str, args: list[Value]) -> Value:
        b = self.b
        try:
            hf = ffi_mod.check_call(name, args)
            if hf.fn is not None and (name in ffi_mod.SHAPE_ONLY or
                                      all(is_public(a) for a in args)):
                return ffi_mod.exec_ffi(name, tuple(args))
        except WysError as ex:
            raise NotCircuitable(f"host call failed: {ex}") from None

        if name == "mk_sh":
            vw = self.as_int_wires(args[0])
            # the mint's handle of 0; the gates XOR the value into the last word
            words = self.mint.mint_words(self.parties, 0, self.width)
            self.minted = True
            last = self.parties.names[-1]
            acc = words[last]
            words[last] = CInt(tuple(
                b.xor(w, b.const((acc >> i) & 1)) for i, w in enumerate(vw)))
            return ShareVal.of(self.parties, words, self.width)
        if name == "comb_sh":
            h = args[0]
            if type(h) is not ShareVal:
                raise NotCircuitable("comb_sh applied to a non-handle")
            if h.ps != self.parties:
                raise NotCircuitable(
                    f"handle for {h.ps} recombined by {self.parties}")
            if h.width > self.width:
                raise NotCircuitable(f"a {h.width}-bit handle does not fit "
                                     f"{self.width} bits")
            if len(h.words) != len(h.ps):
                raise NotCircuitable("handle is missing words")
            out = []
            for i in range(h.width):
                acc = None
                for _, w in h.words:
                    wi = w.wires[i] if type(w) is CInt else b.const(w >> i)
                    acc = wi if acc is None else b.xor(acc, wi)
                out.append(acc)
            # sign-extended to the block's width, as ``decode_word`` reads it
            return CInt(tuple(out) + (out[-1],) * (self.width - h.width))

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
        if name == "list_mem":
            return CBit(self._mem_bit(args[0], self.as_list(args[1]).items))
        if name == "list_intersect":
            return self._intersect(self.as_list(args[0]),
                                   self.as_list(args[1]))
        raise NotCircuitable(f"no secure lowering for host call {name}")

    def _eq_bit(self, x: Value, y: Value) -> int:
        tx, ty = type(x), type(y)
        if tx in _INT_LIKE and ty in _INT_LIKE:
            return eq_wires(self.b, self.as_int_wires(x), self.as_int_wires(y))
        if tx in _BOOL_LIKE and ty in _BOOL_LIKE:
            return self.b.not_(self.b.xor(self.as_bit(x), self.as_bit(y)))
        raise NotCircuitable(
            f"no private equality over {tx.__name__} and {ty.__name__}")

    def _mem_bit(self, x: Value, items: tuple[Value, ...]) -> int:
        acc = self.b.const(0)
        for it in items:
            acc = self.b.or_(acc, self._eq_bit(x, it))
        return acc

    def _intersect(self, la: FfiList, lb: FfiList) -> Value:
        if not la.items or not lb.items:
            return FfiList(())
        present = []
        masked = []
        for x in la.items:
            pbit = self._mem_bit(x, lb.items)
            present.append(pbit)
            masked.append(self._mask_item(pbit, x))
        return CMaskedList(tuple(present), tuple(masked))

    def _mask_item(self, pbit: int, v: Value) -> Value:
        t = type(v)
        if t in _INT_LIKE:
            return CInt(tuple(self.b.and_(pbit, w)
                              for w in self.as_int_wires(v)))
        if t in _BOOL_LIKE:
            return CBit(self.b.and_(pbit, self.as_bit(v)))
        raise NotCircuitable(
            f"list elements of {t.__name__} cannot be masked")

    # -- the symbolic evaluator ----------------------------------------------

    def ceval(self, env: Env, e: Expr, depth: int = 0) -> Value:
        if depth == MAX_CEVAL_DEPTH:
            raise NotCircuitable(f"block nests deeper than {MAX_CEVAL_DEPTH} "
                                 f"evaluation levels under gates")
        d = depth + 1
        t = type(e)
        if t is Const:
            return e.v
        if t is Var:
            try:
                return env.get(e.x)
            except UnboundVariable:
                raise NotCircuitable(f"unbound variable {e.x}") from None
        if t is Let:
            return self.ceval(env.extend(e.x, self.ceval(env, e.bound, d)),
                              e.body, d)
        if t is Lam or t is Fix:
            return Clos(env.restrict(e.fv), e.x, e.body, e.f)
        if t is App:
            fn = self.ceval(env, e.fn, d)
            arg = self.ceval(env, e.arg, d)
            if type(fn) is not Clos:
                raise NotCircuitable("calling a non-function")
            return self.ceval(fn.bind(arg), fn.body, d)
        if t is If:
            cond = self.ceval(env, e.cond, d)
            if type(cond) is Bool:
                return self.ceval(env, e.then if cond.b else e.els, d)
            if type(cond) is CBit:
                tv = self.ceval(env, e.then, d)
                fv_ = self.ceval(env, e.els, d)
                return self.mux(cond.wire, tv, fv_)
            raise NotCircuitable("branch condition is not a boolean")
        if t is Ffi:
            args = [self.ceval(env, a, d) for a in e.args]
            return self.lower_ffi(e.name, args)
        if t in _VALUE_RULES:
            # the reference machine's checks and rules, in the block's mode
            args = []
            for a in OPERANDS[t](e):
                v = self.ceval(env, a, d)
                if not args:
                    stuck = check_first_operand(e, v)
                    if stuck is not None:
                        raise NotCircuitable(stuck.reason)
                args.append(v)
            out = apply_rule(e, tuple(args), self.mode, None)
            if type(out) is Stuck:
                raise NotCircuitable(out.reason)
            if t is Reveal and type(out) is Opaque:
                raise NotCircuitable("no block member holds the sealed contents")
            return out
        if t is AsPar or t is AsSec:
            raise NotCircuitable("nested blocks cannot run under gates")
        raise NotCircuitable(f"no gate translation for {type(e).__name__}")

    # -- outputs ---------------------------------------------------------------

    def add_outputs(self, v: Value, recipients: frozenset) -> None:
        """Register every output wire of the result ``v`` with the block
        members who may read it. A wire no member may read is not
        registered, but the walk goes on, so an unsupported result still
        raises."""
        t = type(v)
        if t in _PUBLIC_SCALARS:
            return
        if t is CInt:
            self._send(v.wires, recipients)
        elif t is CBit:
            self._send((v.wire,), recipients)
        elif t is FfiPair or t is FfiList:
            for w in children(v):
                self.add_outputs(w, recipients)
        elif t is VMap:
            for q, w in v.entries:
                self.add_outputs(w, recipients & {q})
        elif t is Sealed:
            if type(v.v) is not Opaque:
                self.add_outputs(v.v, recipients & frozenset(v.ps.names))
        elif t is ShareVal:  # a wire word goes to its holder alone
            for p, w in v.words:
                if type(w) is CInt:
                    self.add_outputs(w, recipients & {p})
        elif t is CMaskedList:
            self._send(v.present, recipients)
            for i in v.items:
                self.add_outputs(i, recipients)
        else:
            raise NotCircuitable(f"a block cannot return a {t.__name__}")

    def _send(self, wires, recipients: frozenset) -> None:
        if recipients:
            self.outputs += zip(wires, repeat(recipients))


def public_shape(v: Value, vis: frozenset, members: frozenset):
    """What ``Compiler.convert`` reads of ``v``: public values themselves,
    the structure around them, and each private leaf's kind with the
    members that see it. Values of equal shape convert alike, to the same
    compile-time value and the same input declarations, so a compile
    keyed on this is a compile of every value of the shape."""
    t = type(v)
    if t is Unit or t is PrinVal or t is PrinsVal or (
            t in _PUBLIC_SCALARS and vis == members):
        return v
    if t is Sealed:
        vis2 = vis & frozenset(v.ps.names)
        return (t, v.ps, public_shape(v.v, vis2, members) if vis2 else None)
    if t is FfiPair:
        return (t, public_shape(v.fst, vis, members),
                public_shape(v.snd, vis, members))
    if t is FfiList:
        return (t, *[public_shape(it, vis, members) for it in v.items])
    if t is VMap:
        return (t, *[(q, public_shape(w, vis & {q}, members))
                     for q, w in v.entries])
    if t is ShareVal:
        return (t, v.ps, v.width, vis)
    if t is Clos:
        return (t, v.x, id(v.body), v.f,
                *[(x, public_shape(w, vis, members))
                  for x, w in v.env.items()])
    # a private int or bool; anything else fails to convert, so no compile
    # is ever kept under its shape
    return (t, vis)


def compile_sec_thunk(env: Env, body: Expr, parties: PrinSet, width: int,
                      mint: ShareMint, cache: dict) -> Circuit:
    """Compile a block's thunk. ``cache``, a dict that lives for one
    distributed run, keeps the body's free variables under ``id(body)``,
    with every compile of the body that drew nothing from the mint, keyed
    on the party set, the width and the ``public_shape`` of each free
    variable's value. An entry with an equal key gets that circuit back
    before anything is converted."""
    members = frozenset(parties.names)
    # the run holds its program and environment, and so every code node,
    # until it ends: an id names one node for the cache's life
    got = cache.get(id(body))
    if got is None:
        got = cache[id(body)] = (free_vars(body), {})
    fv, kept = got
    key = (parties, width, *[(x, public_shape(v, members, members))
                             for x, v in env.items() if x in fv])
    circ = kept.get(key)
    if circ is not None:
        return circ
    comp = Compiler(parties, width, mint)
    cenv = Env({x: comp.convert(v, (("var", x),), members)
                for x, v in env.items() if x in fv})
    result = comp.ceval(cenv, body)
    comp.add_outputs(result, members)
    b = comp.b
    circ = Circuit(parties, width, b.n, b.layers, comp.inputs, comp.outputs,
                   result)
    if not comp.minted:
        kept[key] = circ
    return circ


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
                raise MissingInput(f"{party}: expected sealed data on "
                                   f"{path_text(path)}")
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
                raise MissingInput(f"{party}: no map entry on "
                                   f"{path_text(path)}")
        elif tag == "word":
            if type(v) is not ShareVal:
                raise MissingInput(f"{party}: expected a handle on "
                                   f"{path_text(path)}")
            w = v.word_of(party)
            if w is None:
                raise MissingInput(f"{party}: no share word on "
                                   f"{path_text(path)}")
            return FfiInt(w)  # already raw bits, caller slices
        elif tag == "cenv":
            if type(v) is not Clos:
                raise MissingInput(f"{party}: expected a closure on "
                                   f"{path_text(path)}")
            v = v.env.get(step[1])
        else:
            raise MissingInput(f"unknown path step {step!r}")
    return v


def path_text(path: Path) -> str:
    return "/".join(":".join(str(p) for p in step) for step in path)


def input_wires(circ: Circuit) -> dict[str, list[int]]:
    """Each party's input wires in word order, its declarations taken in
    ``circ.inputs`` order: bit j of its input word is its bit on wires[j]."""
    wires: dict[str, list[int]] = {p: [] for p in circ.parties.names}
    for decl in circ.inputs:
        wires[decl.party] += decl.wires
    return wires


def bind_inputs(circ: Circuit, party_envs: dict[str, Env]) -> dict[str, int]:
    """Each party's input word (``input_wires``) from its local environment."""
    words = dict.fromkeys(circ.parties.names, 0)
    ends = dict(words)  # each party's bits so far
    for decl in circ.inputs:
        env = party_envs.get(decl.party)
        if env is None:
            raise MissingInput(f"no environment for {decl.party}")
        try:
            v = _walk(env, decl.path, decl.party)
        except (MissingInput,):
            raise
        except Exception as ex:
            raise MissingInput(f"{decl.party}: cannot read "
                               f"{path_text(decl.path)}: {ex}") from None
        if type(v) is Opaque:
            raise MissingInput(f"{decl.party}: holds a placeholder on "
                               f"{path_text(decl.path)}")
        n = len(decl.wires)
        if decl.is_bool:
            if type(v) is not Bool:
                raise MissingInput(f"{decl.party}: expected a bool on "
                                   f"{path_text(decl.path)}")
            word = 1 if v.b else 0
        else:
            if type(v) is not FfiInt:
                raise MissingInput(f"{decl.party}: expected an int on "
                                   f"{path_text(decl.path)}")
            # a share word is raw bits; anything else is a signed int
            if decl.path[-1] != ("word",) and not fits(v.n, n):
                raise CircuitError(f"{decl.party}: input {v.n} at "
                                   f"{path_text(decl.path)} does not fit "
                                   f"{n} bits")
            word = encode_word(v.n, n)
        words[decl.party] |= word << ends[decl.party]
        ends[decl.party] += n
    return words


def eval_circuit(circ: Circuit, party_bits: dict[str, dict[int, int]]) -> dict[int, int]:
    """Plain in-the-clear evaluation; the protocol-free reference for tests."""
    wv: dict[int, int] = {}
    for bits in party_bits.values():
        wv.update(bits)
    for op, o, a, b in circ.gates:
        if op == CONST:
            wv[o] = a
        elif op == XOR:
            wv[o] = wv[a] ^ wv[b]
        elif op == AND:
            wv[o] = wv[a] & wv[b]
        else:
            wv[o] = 1 - wv[a]
    return wv


def _word(wires, wv: dict[int, int]) -> int:
    word = 0
    for i, w in enumerate(wires):
        word |= wv[w] << i
    return word


def _read(v: Value, wv: dict[int, int]) -> Value:
    """``v`` with its wire nodes read back from the wire bits ``wv``."""
    t = type(v)
    if t in _PUBLIC_SCALARS:
        return v
    if t is CInt:
        return FfiInt(decode_word(_word(v.wires, wv), len(v.wires)))
    if t is CBit:
        return Bool(bool(wv[v.wire]))
    if t is ShareVal:  # a word is raw bits, not a signed int
        return ShareVal(v.ps, tuple((p, _word(w.wires, wv) if type(w) is CInt
                                     else w) for p, w in v.words), v.width)
    if t is CMaskedList:
        return FfiList(tuple(_read(i, wv)
                             for pw, i in zip(v.present, v.items) if wv[pw]))
    return with_children(v, tuple(map(_read, children(v), repeat(wv))))


def decode_output(v: Value, party: str, wv: dict[int, int]) -> Value:
    """``party``'s view of a block result: its slice, as the ideal backend
    takes it, read from its output wires."""
    return _read(slice_value(party, v), wv)


def dump_circuit(circ: Circuit) -> str:
    lines = [f"circuit parties={','.join(circ.parties.names)} "
             f"width={circ.width} wires={circ.n_wires} "
             f"ands={circ.and_count} depth={circ.and_depth}"]
    for decl in circ.inputs:
        kind = "bool" if decl.is_bool else "int"
        ws = ",".join(f"x{w}" for w in decl.wires)
        lines.append(f"INPUT {decl.party} {kind} {path_text(decl.path)} {ws}")
    for op, o, a, b in circ.gates:
        if op == CONST:
            lines.append(f"CONST x{o} <- {a}")
        elif op == NOT:
            lines.append(f"NOT x{o} <- x{a}")
        else:
            lines.append(f"{op} x{o} <- x{a} x{b}")
    for w, recips in circ.outputs:
        lines.append(f"OUT x{w} -> {','.join(sorted(recips))}")
    return "\n".join(lines) + "\n"
