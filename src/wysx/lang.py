"""Core language objects shared by every interpreter backend.

Programs are expression trees, runtime data are immutable value trees, and
observable behaviour is a trace of published messages.  Both interpreters
(the single-machine reference one and the per-party distributed one) run the
same small-step machine shape: a focused expression or value, a stack of
suspended frames, an environment, a mode, and a trace. That state is one
plain tuple of registers, ``Regs``, from the step loops to the checkers.

The per-party projection of joint data is done by ``slice_value`` and
friends; ``combine_values`` merges per-party views back together.  These two
families are the workhorses of the simulation and confluence checks.

Values, expression nodes and the package's result types are records:
``record`` writes each one's constructor, equality and hash once, when its
class is defined. Like the paper's terms, a record is never changed once
built; slicing, combining and stepping build new ones.
"""

from __future__ import annotations

from functools import partial
from typing import ClassVar, Optional, Union


# ---------------------------------------------------------------------------
# errors

class WysError(Exception):
    """Base for every interpreter-level error."""


class UnboundVariable(WysError):
    pass


class CombineConflict(WysError):
    """Per-party views, or the variables they bind, disagree."""


class ModeError(WysError):
    pass


class UnknownFfi(WysError):
    pass


class ArityError(WysError):
    pass


class FfiTypeError(WysError):
    pass


class OpaqueArg(WysError):
    """A host call received a placeholder for another party's data.

    Reaching this means the source program asks a party to compute on data
    it cannot see, a realizability bug in the program rather than a bug in
    the interpreter.
    """


# ---------------------------------------------------------------------------
# records

def _record_repr(self) -> str:
    args = ", ".join(f"{k}={getattr(self, k)!r}" for k in self._shown)
    return f"{type(self).__qualname__}({args})"


def record(cls):
    """Class decorator for a record: its annotated names, less any
    ``ClassVar``, are its fields, kept in order in ``_fields``.

    The class is rebuilt with its fields, and any names its body lists in
    ``__slots__``, as slots. It gets an ``__init__`` taking the fields, with
    the class body's values as trailing defaults, that ends by calling
    ``__post_init__`` if the class has one; an ``__eq__`` on the exact class
    and the fields; a ``__hash__`` of the field tuple, which like a tuple's
    raises ``TypeError`` when a field has no hash; and a ``repr`` of the
    fields in ``_shown``, all of them unless the class names its own.
    Nothing assigns a record's fields once it is built, and a test of the
    sources holds to that.
    """
    ns = dict(cls.__dict__)
    fields = tuple(k for k, t in ns.get("__annotations__", {}).items()
                   if not t.startswith("ClassVar"))
    defaults = {k: ns.pop(k) for k in fields if k in ns}
    params = ", ".join(f"{k}=_d[{k!r}]" if k in defaults else k
                       for k in fields)
    init = [f"self.{k} = {k}" for k in fields]
    if "__post_init__" in ns:
        init.append("self.__post_init__()")
    own = "".join(f"self.{k}," for k in fields)
    their = "".join(f"other.{k}," for k in fields)
    src = f"""
def __init__(self, {params}):
 {'; '.join(init) or 'pass'}
def __eq__(self, other):
 if other.__class__ is self.__class__:
  return ({own}) == ({their})
 return NotImplemented
def __hash__(self):
 return hash(({own}))
"""
    exec(src, {"_d": defaults}, ns)
    for k in ("__init__", "__eq__", "__hash__"):
        ns[k].__qualname__ = f"{cls.__qualname__}.{k}"
    extra = ns.pop("__slots__", ())
    for k in (*extra, "__dict__", "__weakref__"):
        ns.pop(k, None)
    ns["__slots__"] = fields + extra
    ns.setdefault("__repr__", _record_repr)
    ns.setdefault("_shown", fields)
    ns["_fields"] = fields
    return type(cls)(cls.__name__, cls.__bases__, ns)


# ---------------------------------------------------------------------------
# principals

Principal = str  # short name token, compared case-sensitively


@record
class PrinSet:
    """Non-empty-by-convention set of principals in canonical sorted order."""

    names: tuple[Principal, ...]

    @staticmethod
    def of(*names: Principal) -> "PrinSet":
        return PrinSet(tuple(sorted(set(names))))

    def __contains__(self, p: Principal) -> bool:
        return p in self.names

    def __iter__(self):
        return iter(self.names)

    def __len__(self) -> int:
        return len(self.names)

    def subset_of(self, other: "PrinSet") -> bool:
        return all(p in other.names for p in self.names)

    def intersects(self, other: "PrinSet") -> bool:
        return any(p in other.names for p in self.names)

    def __str__(self) -> str:
        return "{" + ",".join(self.names) + "}"


# ---------------------------------------------------------------------------
# values

class Value:
    __slots__ = ()


@record
class PrinVal(Value):
    name: Principal


@record
class PrinsVal(Value):
    ps: PrinSet


@record
class Unit(Value):
    pass


@record
class Bool(Value):
    b: bool


@record
class FfiInt(Value):
    n: int


@record
class FfiStr(Value):
    s: str


@record
class FfiPair(Value):
    fst: Value
    snd: Value


@record
class FfiList(Value):
    items: tuple[Value, ...]


@record
class Sealed(Value):
    """A value addressed to the parties in ``ps``; others see a placeholder."""

    ps: PrinSet
    v: Value


@record
class VMap(Value):
    """Per-principal map, entries kept sorted by principal name."""

    entries: tuple[tuple[Principal, Value], ...]

    @staticmethod
    def of(d: dict[Principal, Value]) -> "VMap":
        return VMap(tuple(sorted(d.items())))

    def get(self, p: Principal) -> Optional[Value]:
        for q, v in self.entries:
            if q == p:
                return v
        return None

    def keys(self) -> tuple[Principal, ...]:
        return tuple(q for q, _ in self.entries)


@record
class Opaque(Value):
    """Placeholder for data a party does not hold."""


@record
class ShareVal(Value):
    """Secret-shared machine word.

    ``words`` maps each holder to its additive (xor) share of the value,
    ``width`` is the bit width of the shared word.  A party's view of a
    handle keeps only its own word; the joint view keeps all of them, and
    xor-ing a complete word set yields the shared value. Inside the gate
    compiler a word may also be a wire node. A handle over ``ps`` may be
    sealed only for exactly ``ps``.
    """

    ps: PrinSet
    words: tuple[tuple[Principal, int], ...]  # sorted by principal
    width: int

    @staticmethod
    def of(ps: PrinSet, words: dict[Principal, int], width: int) -> "ShareVal":
        return ShareVal(ps, tuple(sorted(words.items())), width)

    def word_of(self, p: Principal) -> Optional[int]:
        for q, w in self.words:
            if q == p:
                return w
        return None


UNIT = Unit()
TRUE = Bool(True)
FALSE = Bool(False)
OPAQUE = Opaque()


# ---------------------------------------------------------------------------
# the machine word: two's complement, wrapped at ``WORD_BITS`` on the host
# and at a run's width inside joint blocks

WORD_BITS = 64


def fits(n: int, width: int) -> bool:
    """``n`` is in the signed range of ``width`` bits."""
    return -(1 << (width - 1)) <= n < 1 << (width - 1)


def encode_word(n: int, width: int) -> int:
    return n & ((1 << width) - 1)


def decode_word(w: int, width: int) -> int:
    """The signed value of ``w``'s low ``width`` bits: any int, wrapped."""
    w &= (1 << width) - 1
    if w & (1 << (width - 1)):
        return w - (1 << width)
    return w


# ---------------------------------------------------------------------------
# expressions

class Expr:
    __slots__ = ()


@record
class Const(Expr):
    v: Value  # literal forms only: principal, set, unit, bool, int, string


@record
class Var(Expr):
    x: str


@record
class Let(Expr):
    x: str
    bound: Expr
    body: Expr


@record
class Lam(Expr):
    __slots__ = ("fv",)  # free variables: set once, not compared or shown
    x: str
    body: Expr
    f: ClassVar[None] = None  # no self-name, unlike a ``Fix``

    def __post_init__(self):
        self.fv = free_vars(self.body) - {self.x}


@record
class Fix(Expr):
    __slots__ = ("fv",)  # as for ``Lam``
    f: str
    x: str
    body: Expr

    def __post_init__(self):
        self.fv = free_vars(self.body) - {self.f, self.x}


@record
class App(Expr):
    fn: Expr
    arg: Expr


@record
class If(Expr):
    cond: Expr
    then: Expr
    els: Expr


@record
class AsPar(Expr):
    ps: Expr
    fn: Expr


@record
class AsSec(Expr):
    ps: Expr
    fn: Expr


@record
class Seal(Expr):
    ps: Expr
    body: Expr


@record
class Reveal(Expr):
    e: Expr


@record
class MkMap(Expr):
    ps: Expr
    v: Expr


@record
class Project(Expr):
    prin: Expr
    m: Expr


@record
class Concat(Expr):
    m1: Expr
    m2: Expr


@record
class Ffi(Expr):
    name: str
    args: tuple[Expr, ...]


# The operands of each compound expression, in evaluation order.  A ``Let``
# evaluates only its bound expression and an ``If`` only its condition; the
# node's rule then picks what runs next.
OPERANDS = {
    Let: lambda e: (e.bound,),
    If: lambda e: (e.cond,),
    App: lambda e: (e.fn, e.arg),
    AsPar: lambda e: (e.ps, e.fn),
    AsSec: lambda e: (e.ps, e.fn),
    Seal: lambda e: (e.ps, e.body),
    Reveal: lambda e: (e.e,),
    MkMap: lambda e: (e.ps, e.v),
    Project: lambda e: (e.prin, e.m),
    Concat: lambda e: (e.m1, e.m2),
    Ffi: lambda e: e.args,
}


def free_vars(e: Expr) -> frozenset[str]:
    """Free variables of ``e``. Each ``Lam`` and ``Fix`` computes its own
    once, when built, so a walk stops at the nearest binder node."""
    t = type(e)
    if t is Var:
        return frozenset((e.x,))
    if t is Const:
        return frozenset()
    if t is Lam or t is Fix:
        return e.fv
    if t is Let:
        return free_vars(e.bound) | (free_vars(e.body) - {e.x})
    if t is If:
        return free_vars(e.cond) | free_vars(e.then) | free_vars(e.els)
    ops = OPERANDS.get(t)
    if ops is None:
        raise TypeError(f"not an expression: {e!r}")
    return frozenset().union(*map(free_vars, ops(e)))


# ---------------------------------------------------------------------------
# environments

class Env:
    """Immutable variable environment. Extension copies, lookup errors out."""

    __slots__ = ("_b",)

    def __init__(self, bindings: Optional[dict[str, Value]] = None):
        self._b = dict(bindings) if bindings else {}

    def get(self, x: str) -> Value:
        try:
            return self._b[x]
        except KeyError:
            raise UnboundVariable(x) from None

    def extend(self, x: str, v: Value) -> "Env":
        # the new dict is the Env's own, so skip the copy in __init__
        env = object.__new__(Env)
        b = env._b = dict(self._b)
        b[x] = v
        return env

    def restrict(self, names) -> "Env":
        # walks ``names``, a lambda's few free variables, not the whole
        # environment; the order of an Env's dict is never observed
        env = object.__new__(Env)
        b = self._b
        env._b = {x: b[x] for x in names if x in b}
        return env

    def names(self) -> frozenset[str]:
        return frozenset(self._b)

    def items(self):
        return sorted(self._b.items())

    def __eq__(self, other) -> bool:
        return isinstance(other, Env) and self._b == other._b

    def __repr__(self) -> str:
        inner = ", ".join(f"{x}={v!r}" for x, v in sorted(self._b.items()))
        return f"Env({inner})"


# closures capture their environment trimmed to the lambda's free variables;
# this keeps per-party closure views small and combinable

@record
class Clos(Value):
    env: Env
    x: str
    body: Expr
    f: Optional[str] = None  # a ``fix`` closure's own name

    def bind(self, arg: Value) -> Env:
        """The environment of the body applied to ``arg``: ``arg`` under
        ``x`` and, for a ``fix`` closure, the closure itself under ``f``."""
        env = object.__new__(Env)
        b = env._b = dict(self.env._b)
        if self.f is not None:
            b[self.f] = self
        b[self.x] = arg
        return env


# ---------------------------------------------------------------------------
# traces

class TraceElt:
    __slots__ = ()


@record
class TMsg(TraceElt):
    v: Value


@record
class TScope(TraceElt):
    ps: PrinSet
    t: tuple  # Trace


Trace = tuple[TraceElt, ...]


# ---------------------------------------------------------------------------
# modes / machine state

PAR = "par"
SEC = "sec"


@record
class Mode:
    tag: str  # PAR or SEC
    ps: PrinSet

    def is_par(self) -> bool:
        return self.tag == PAR

    def is_sec(self) -> bool:
        return self.tag == SEC


Code = Union[Expr, Value]

# A suspended frame, a plain tuple (mode, env, trace, e, done, pending): the
# mode, environment and trace at suspension time, and the one-hole context
# of the node ``e``. ``done`` holds the values of its operands evaluated so
# far and ``pending`` the operands still to run, in ``OPERANDS`` order.
#
# A block body runs above its own ``as_par``/``as_sec`` node's frame, whose
# ``done`` then holds the set and the thunk: one value in ``done`` marks
# block entry, two mark exit.
FrameRegs = tuple[Mode, Env, Trace, Expr, tuple[Value, ...], tuple[Expr, ...]]

# The machine state, the paper's configuration as a plain tuple of
# registers (mode, stack, env, trace, code), each frame a ``FrameRegs``.
Regs = tuple[Mode, tuple[FrameRegs, ...], Env, Trace, Code]


# ---------------------------------------------------------------------------
# child traversal: the one place that knows which values hold other values

def children(v: Value) -> tuple[Value, ...]:
    """The values directly inside ``v``; empty for leaves."""
    t = type(v)
    if t is FfiPair:
        return (v.fst, v.snd)
    if t is FfiList:
        return v.items
    if t is VMap:
        return tuple(w for _, w in v.entries)
    if t is Sealed:
        return (v.v,)
    if t is Clos:
        return tuple(w for _, w in v.env.items())
    return ()


def with_children(v: Value, kids: tuple[Value, ...]) -> Value:
    """``v`` with the values directly inside it replaced by ``kids``, given
    in ``children`` order.

    Walkers build ``kids`` as ``tuple(map(f, children(v)))``: unlike a
    comprehension or a helper that calls ``f``, that adds no Python frame,
    so a walk costs one frame per nesting level of the value.
    """
    t = type(v)
    if t is FfiPair:
        return FfiPair(kids[0], kids[1])
    if t is FfiList:
        return FfiList(kids)
    if t is VMap:
        return VMap(tuple(zip(v.keys(), kids)))
    if t is Sealed:
        return Sealed(v.ps, kids[0])
    if t is Clos:
        env = Env(dict(zip((x for x, _ in v.env.items()), kids)))
        return Clos(env, v.x, v.body, v.f)
    return v


# ---------------------------------------------------------------------------
# slicing: a party's view of joint data

def slice_value(p: Principal, v: Value) -> Value:
    t = type(v)
    if t is Sealed:
        if p not in v.ps:
            return Sealed(v.ps, OPAQUE)
    elif t is VMap:
        v = VMap(tuple(e for e in v.entries if e[0] == p))
    elif t is ShareVal:
        w = v.word_of(p)
        return ShareVal(v.ps, ((p, w),) if w is not None else (), v.width)
    return with_children(v, tuple(map(partial(slice_value, p), children(v))))


def slice_env(p: Principal, env: Env) -> Env:
    return Env({x: slice_value(p, v) for x, v in env.items()})


def slice_trace(p: Principal, t: Trace) -> Trace:
    out: list[TraceElt] = []
    for elt in t:
        if type(elt) is TMsg:
            out.append(TMsg(slice_value(p, elt.v)))
        else:
            if p in elt.ps:
                out.extend(slice_trace(p, elt.t))
            # scopes the party did not run contribute nothing
    return tuple(out)


def _slice_frame(p: Principal, f: FrameRegs) -> FrameRegs:
    _, env, trace, e, done, pending = f
    return (Mode(PAR, PrinSet.of(p)), slice_env(p, env), slice_trace(p, trace),
            e, tuple(slice_value(p, v) for v in done), pending)


def slice_config(s: PrinSet, regs: Regs) -> dict[Principal, Regs]:
    """Project a joint par-mode state to one local state per member."""
    mode, stack, env, trace, code = regs
    if not (mode.is_par() and mode.ps == s):
        raise ModeError(f"can only slice a par-mode config over its own set, "
                        f"got mode {mode.tag} {mode.ps} sliced by {s}")
    return {p: (Mode(PAR, PrinSet.of(p)),
                tuple(_slice_frame(p, f) for f in stack),
                slice_env(p, env), slice_trace(p, trace),
                slice_value(p, code) if isinstance(code, Value) else code)
            for p in s}


# ---------------------------------------------------------------------------
# combining: merging per-party views back into joint data

def combine_values(v1: Value, v2: Value) -> Value:
    t1, t2 = type(v1), type(v2)
    if t1 is Opaque:
        return v2
    if t2 is Opaque:
        return v1
    if t1 is not t2:
        raise CombineConflict(f"{v1!r} vs {v2!r}")
    if t1 is Sealed:
        if v1.ps != v2.ps:
            raise CombineConflict(f"sealed sets differ: {v1.ps} vs {v2.ps}")
        return Sealed(v1.ps, combine_values(v1.v, v2.v))
    if t1 is VMap:
        d1, d2 = dict(v1.entries), dict(v2.entries)
        merged = {}
        for k in set(d1) | set(d2):
            if k in d1 and k in d2:
                merged[k] = combine_values(d1[k], d2[k])
            else:
                merged[k] = d1.get(k, d2.get(k))
        return VMap.of(merged)
    if t1 is FfiPair:
        return FfiPair(combine_values(v1.fst, v2.fst), combine_values(v1.snd, v2.snd))
    if t1 is FfiList:
        if len(v1.items) != len(v2.items):
            raise CombineConflict("list lengths differ")
        return FfiList(tuple(combine_values(a, b) for a, b in zip(v1.items, v2.items)))
    if t1 is ShareVal:
        if v1.ps != v2.ps or v1.width != v2.width:
            raise CombineConflict("share handles differ in party set or width")
        w1, w2 = dict(v1.words), dict(v2.words)
        for p in set(w1) & set(w2):
            if w1[p] != w2[p]:
                raise CombineConflict(f"share words for {p} disagree")
        w1.update(w2)
        return ShareVal.of(v1.ps, w1, v1.width)
    if t1 is Clos:
        if (v1.f, v1.x, v1.body) != (v2.f, v2.x, v2.body):
            raise CombineConflict("closures over different code")
        return Clos(combine_envs([v1.env, v2.env]), v1.x, v1.body, v1.f)
    if v1 == v2:
        return v1
    raise CombineConflict(f"{v1!r} vs {v2!r}")


def combine_many(vs: list[Value]) -> Value:
    out = vs[0]
    for v in vs[1:]:
        out = combine_values(out, v)
    return out


def combine_envs(envs: list[Env]) -> Env:
    names = envs[0].names()
    for e in envs[1:]:
        if e.names() != names:
            raise CombineConflict(f"{sorted(names)} vs {sorted(e.names())}")
    b = {}
    for x in names:
        b[x] = combine_many([e.get(x) for e in envs])
    return Env(b)


# ---------------------------------------------------------------------------
# sealing legality

def can_seal(ps: PrinSet, v: Value, in_closure: bool = False) -> bool:
    """Dynamic check applied when a value is sealed or a par block wraps
    up its result.

    Share handles may only be sealed for exactly their holders, and a sealed
    closure must not smuggle concrete data addressed to parties outside the
    seal (``in_closure``: ``v`` sits in a closure's environment).
    Everything else is sealable.
    """
    if type(v) is ShareVal:
        return v.ps == ps
    t = type(v)
    if t is Sealed:
        if in_closure:
            return type(v.v) is Opaque or ps.subset_of(v.ps)
    elif t is Clos:
        in_closure = True
    for w in children(v):
        if not can_seal(ps, w, in_closure):
            return False
    return True


# ---------------------------------------------------------------------------
# misc helpers

# values that hold no bare placeholder: leaves, and the two wrappers that
# protect what they hold
NO_BARE_OPAQUE = frozenset({Unit, Bool, FfiInt, FfiStr, PrinVal, PrinsVal,
                            Sealed, ShareVal})

# Up to this many children ``contains_bare_opaque`` just walks them; past it
# one ``issuperset`` over their types runs first, at C speed. Per call on
# tuples of share handles (Python 3.11, 2-core AMD EPYC VM), the scan
# against the walk: 123 against 100 ns at 3 children, 167 against 165 at 6,
# 174 against 189 at 7 and 567 against 1 009 at 50. Short lists, such as
# the 0-6 items of the confluence cells, stay on the walk.
WALK_MAX = 6


def contains_bare_opaque(v: Value) -> bool:
    """True if v holds a placeholder not protected by a seal or a share.

    A container of more than ``WALK_MAX`` children whose types are all in
    ``NO_BARE_OPAQUE`` is settled by one scan of the types; any other
    container, and one whose scan meets another type, is walked child by
    child."""
    t = type(v)
    if t in NO_BARE_OPAQUE:
        return False
    if t is Opaque:
        return True
    kids = children(v)
    if len(kids) > WALK_MAX and NO_BARE_OPAQUE.issuperset(map(type, kids)):
        return False
    for w in kids:
        t = type(w)
        if t is Opaque or (t not in NO_BARE_OPAQUE
                           and contains_bare_opaque(w)):
            return True
    return False
