"""Host function registry.

The language's escape hatch to the host: pure functions over values, called
by name. Every builtin rejects placeholder arguments; a party that cannot
see a value cannot compute with it.

``mk_sh`` and ``comb_sh`` are declared here but not given host bodies: the
interpreters route them to the share runtime because they depend on the
current mode and on the shared randomness source.

The builtins in ``SHAPE_ONLY`` only take apart or assemble pairs and lists
and never look inside an element, so inside joint blocks the gate compiler
runs their host bodies too, on values that hold wire nodes.
"""

from __future__ import annotations

from typing import Callable, Optional

from .lang import (
    WORD_BITS, ArityError, Bool, FALSE, FfiInt, FfiList, FfiPair, FfiStr,
    FfiTypeError, NO_BARE_OPAQUE, OpaqueArg, TRUE, UnknownFfi, Value,
    contains_bare_opaque, decode_word, record,
)


def _int(v: Value, who: str) -> int:
    if type(v) is not FfiInt:
        raise FfiTypeError(f"{who}: expected an int, got {v!r}")
    return v.n


def _bool(v: Value, who: str) -> bool:
    if type(v) is not Bool:
        raise FfiTypeError(f"{who}: expected a bool, got {v!r}")
    return v.b


def _list(v: Value, who: str) -> tuple[Value, ...]:
    if type(v) is not FfiList:
        raise FfiTypeError(f"{who}: expected a list, got {v!r}")
    return v.items


def _pair(v: Value, who: str) -> FfiPair:
    if type(v) is not FfiPair:
        raise FfiTypeError(f"{who}: expected a pair, got {v!r}")
    return v


@record
class HostFn:
    name: str
    arity: Optional[int]  # None means variadic
    fn: Optional[Callable[..., Value]]  # None: the interpreters run it


def _add(a: Value, b: Value) -> Value:
    return FfiInt(decode_word(_int(a, "add") + _int(b, "add"), WORD_BITS))


def _sub(a: Value, b: Value) -> Value:
    return FfiInt(decode_word(_int(a, "sub") - _int(b, "sub"), WORD_BITS))


def _mul(a: Value, b: Value) -> Value:
    return FfiInt(decode_word(_int(a, "mul") * _int(b, "mul"), WORD_BITS))


def _gt(a: Value, b: Value) -> Value:
    return TRUE if _int(a, "gt") > _int(b, "gt") else FALSE


def _lt(a: Value, b: Value) -> Value:
    return TRUE if _int(a, "lt") < _int(b, "lt") else FALSE


def _ge(a: Value, b: Value) -> Value:
    return TRUE if _int(a, "ge") >= _int(b, "ge") else FALSE


def _eq(a: Value, b: Value) -> Value:
    t = type(a)
    if t is not type(b):
        raise FfiTypeError(f"eq: mismatched operands {a!r} vs {b!r}")
    if t is FfiInt:
        return TRUE if a.n == b.n else FALSE
    if t is Bool:
        return TRUE if a.b == b.b else FALSE
    if t is not FfiStr:
        raise FfiTypeError(f"eq: unsupported operand {a!r}")
    return TRUE if a.s == b.s else FALSE


def _not(a: Value) -> Value:
    return FALSE if _bool(a, "not") else TRUE


def _and(a: Value, b: Value) -> Value:
    return TRUE if _bool(a, "and") and _bool(b, "and") else FALSE


def _or(a: Value, b: Value) -> Value:
    return TRUE if _bool(a, "or") or _bool(b, "or") else FALSE


def _pair_mk(a: Value, b: Value) -> Value:
    return FfiPair(a, b)


def _fst(a: Value) -> Value:
    return _pair(a, "fst").fst


def _snd(a: Value) -> Value:
    return _pair(a, "snd").snd


def _list_mk(*items: Value) -> Value:
    return FfiList(tuple(items))


def _cons(a: Value, l: Value) -> Value:
    return FfiList((a,) + _list(l, "cons"))


# hd, tl and is_nil run once per element of a fold over a list, so they read
# the items inline and call _list only to raise

def _hd(l: Value) -> Value:
    items = l.items if type(l) is FfiList else _list(l, "hd")
    if not items:
        raise FfiTypeError("hd: empty list")
    return items[0]


def _tl(l: Value) -> Value:
    items = l.items if type(l) is FfiList else _list(l, "tl")
    if not items:
        raise FfiTypeError("tl: empty list")
    return FfiList(items[1:])


def _is_nil(l: Value) -> Value:
    items = l.items if type(l) is FfiList else _list(l, "is_nil")
    return FALSE if items else TRUE


def _length(l: Value) -> Value:
    return FfiInt(len(_list(l, "length")))


def _nth(l: Value, i: Value) -> Value:
    items = _list(l, "nth")
    n = _int(i, "nth")
    if not 0 <= n < len(items):
        raise FfiTypeError(f"nth: index {n} out of range for length {len(items)}")
    return items[n]


def _append(l1: Value, l2: Value) -> Value:
    return FfiList(_list(l1, "append") + _list(l2, "append"))


# bodies that never look inside an element
SHAPE_ONLY = frozenset(("pair", "fst", "snd", "list", "cons", "hd", "tl",
                        "is_nil", "length", "nth", "append"))


def _list_mem(x: Value, l: Value) -> Value:
    return TRUE if x in _list(l, "list_mem") else FALSE


def _list_intersect(la: Value, lb: Value) -> Value:
    """Elements of the first list also present in the second, first-list
    order, duplicates kept as they appear in the first list."""
    a = _list(la, "list_intersect")
    b = _list(lb, "list_intersect")
    return FfiList(tuple(x for x in a if x in b))


def _list_diff(l1: Value, l2: Value) -> Value:
    """Elements of the first list not present in the second, order kept."""
    a = _list(l1, "list_diff")
    b = _list(l2, "list_diff")
    return FfiList(tuple(x for x in a if x not in b))


def _filter_by_flags(l: Value, flags: Value) -> Value:
    items = _list(l, "filter_by_flags")
    fs = _list(flags, "filter_by_flags")
    if len(items) != len(fs):
        raise FfiTypeError("filter_by_flags: length mismatch")
    return FfiList(tuple(x for x, f in zip(items, fs) if _bool(f, "filter_by_flags")))


def _rows_any(bs: Value, ncols: Value) -> Value:
    """Row-wise or over a flat row-major bool matrix."""
    flat = _list(bs, "rows_any")
    w = _int(ncols, "rows_any")
    if w <= 0:
        return FfiList(())
    if len(flat) % w != 0:
        raise FfiTypeError("rows_any: ragged matrix")
    out = []
    for r in range(len(flat) // w):
        row = flat[r * w:(r + 1) * w]
        out.append(TRUE if any(_bool(f, "rows_any") for f in row) else FALSE)
    return FfiList(tuple(out))


def _cols_any(bs: Value, ncols: Value) -> Value:
    """Column-wise or over a flat row-major bool matrix."""
    flat = _list(bs, "cols_any")
    w = _int(ncols, "cols_any")
    if w <= 0:
        return FfiList(())
    if len(flat) % w != 0:
        raise FfiTypeError("cols_any: ragged matrix")
    out = []
    for c in range(w):
        col = flat[c::w]
        out.append(TRUE if any(_bool(f, "cols_any") for f in col) else FALSE)
    return FfiList(tuple(out))


BUILTINS: dict[str, HostFn] = {}


def _register(name: str, arity: Optional[int], fn):
    BUILTINS[name] = HostFn(name, arity, fn)


_register("add", 2, _add)
_register("sub", 2, _sub)
_register("mul", 2, _mul)
_register("gt", 2, _gt)
_register("lt", 2, _lt)
_register("ge", 2, _ge)
_register("eq", 2, _eq)
_register("not", 1, _not)
_register("and", 2, _and)
_register("or", 2, _or)
_register("pair", 2, _pair_mk)
_register("fst", 1, _fst)
_register("snd", 1, _snd)
_register("list", None, _list_mk)
_register("cons", 2, _cons)
_register("hd", 1, _hd)
_register("tl", 1, _tl)
_register("is_nil", 1, _is_nil)
_register("length", 1, _length)
_register("nth", 2, _nth)
_register("append", 2, _append)
_register("list_mem", 2, _list_mem)
_register("list_intersect", 2, _list_intersect)
_register("list_diff", 2, _list_diff)
_register("filter_by_flags", 2, _filter_by_flags)
_register("rows_any", 2, _rows_any)
_register("cols_any", 2, _cols_any)

# share primitives: bodies live in the interpreters / circuit compiler
BUILTINS["mk_sh"] = HostFn("mk_sh", 1, None)
BUILTINS["comb_sh"] = HostFn("comb_sh", 1, None)


def check_call(name: str, args) -> HostFn:
    """The builtin ``name``, once ``args`` is known to fit its arity."""
    hf = BUILTINS.get(name)
    if hf is None:
        raise UnknownFfi(name)
    if hf.arity is not None and len(args) != hf.arity:
        raise ArityError(f"{name}: expected {hf.arity} args, got {len(args)}")
    return hf


def exec_ffi(name: str, args: tuple[Value, ...]) -> Value:
    hf = BUILTINS.get(name)
    if hf is None or (hf.arity is not None and len(args) != hf.arity):
        check_call(name, args)  # raises UnknownFfi or ArityError
    fn = hf.fn
    if fn is None:
        raise FfiTypeError(f"{name} must be handled by the interpreter")
    for a in args:
        if type(a) not in NO_BARE_OPAQUE and contains_bare_opaque(a):
            raise OpaqueArg(f"{name} applied to another party's data")
    return fn(*args)
