"""JSON encodings for runtime values, environments and traces.

Scalars map directly (int, bool, string), arrays are lists, and tagged
one-key objects cover the rest:

    {"tuple": [x, y]}                       pair
    {"prin": "a"}  {"prins": ["a","b"]}     principals
    {"sealed": {"ps": ["a"], "v": 5}}       addressed value ("v" omitted or
                                            null means the holder is absent)
    {"map": {"a": 5}}                       per-party map
    {"share": {"ps": ["a","b"], "words": {"a": 3}, "width": 8}}
                                            width 1-64, words 0 to 2**width-1
    {"unit": null}  {"opaque": null}

An input file is one JSON object mapping variable names to values. Traces
serialize as arrays of {"TMsg": v} and {"TScope": {"ps": [...], "t": [...]}}
entries, dumped canonically (sorted keys, no spaces).
"""

from __future__ import annotations

import json
from typing import Any

from .lang import (
    Bool, Clos, Env, FfiInt, FfiList, FfiPair, FfiStr, OPAQUE,
    Opaque, PrinSet, PrinVal, PrinsVal, Sealed, ShareVal, TMsg, Trace,
    UNIT, Unit, Value, VMap, WysError,
)
from .ffi import fits64
from .sexp import is_variable


class InputError(WysError):
    pass


def json_to_value(obj: Any, where: str = "value") -> Value:
    if isinstance(obj, bool):
        return Bool(obj)
    if isinstance(obj, int):
        if not fits64(obj):
            raise InputError(f"{where}: an integer is from -2**63 to "
                             f"2**63 - 1, got {obj}")
        return FfiInt(obj)
    if isinstance(obj, str):
        return FfiStr(obj)
    if isinstance(obj, list):
        return FfiList(tuple(json_to_value(x, f"{where}[{i}]")
                             for i, x in enumerate(obj)))
    if isinstance(obj, dict):
        if len(obj) != 1:
            raise InputError(f"{where}: tagged objects need exactly one key, "
                             f"got {sorted(obj)}")
        (tag, body), = obj.items()
        if tag == "tuple":
            if not (isinstance(body, list) and len(body) == 2):
                raise InputError(f"{where}: tuple needs a two-element array")
            return FfiPair(json_to_value(body[0], where + ".0"),
                           json_to_value(body[1], where + ".1"))
        if tag == "prin":
            return PrinVal(check_principal(body, where))
        if tag == "prins":
            return PrinsVal(_ps(body, where))
        if tag == "sealed":
            if not isinstance(body, dict) or "ps" not in body:
                raise InputError(f"{where}: sealed needs a ps field")
            ps = _ps(body["ps"], where)
            v = body.get("v")
            # a party writing someone else's seal leaves the contents out,
            # writes null or {"opaque": null}
            return Sealed(ps, OPAQUE if v is None
                          else json_to_value(v, where + ".v"))
        if tag == "map":
            if not isinstance(body, dict):
                raise InputError(f"{where}: map needs an object")
            return VMap.of({check_principal(p, where):
                            json_to_value(x, f"{where}.{p}")
                            for p, x in body.items()})
        if tag == "share":
            if not isinstance(body, dict):
                raise InputError(f"{where}: share needs an object")
            ps = _ps(body.get("ps"), where)
            words = body.get("words")
            width = body.get("width")
            if not isinstance(words, dict):
                raise InputError(f"{where}: share needs a words object")
            # host ints wrap at 64 bits (ffi._wrap64); checked before any
            # word, so a huge width never reaches ``1 << width``
            if type(width) is not int or not 1 <= width <= 64:
                raise InputError(f"{where}.width: a share width is an "
                                 f"integer from 1 to 64, got {width!r}")
            for p, w in words.items():
                if p not in ps:
                    raise InputError(f"{where}: bad share word for {p}")
                if type(w) is not int or not 0 <= w < 1 << width:
                    raise InputError(f"{where}.words.{p}: a {width}-bit share "
                                     f"word is an integer from 0 to "
                                     f"{(1 << width) - 1}, got {w!r}")
            return ShareVal.of(ps, words, width)
        if tag == "unit":
            return UNIT
        if tag == "opaque":
            return OPAQUE
        raise InputError(f"{where}: unknown tag {tag!r}")
    raise InputError(f"{where}: cannot decode {obj!r}")


def check_principal(name: Any, where: str) -> str:
    """``name``, if a program could name that principal: the parser's
    ``prin_name`` takes exactly the words that read as a variable."""
    if not (isinstance(name, str) and is_variable(name)):
        raise InputError(f"{where}: {name!r} cannot name a principal")
    return name


def _ps(body: Any, where: str) -> PrinSet:
    if not (isinstance(body, list) and body):
        raise InputError(f"{where}: principal set needs a non-empty "
                         f"array of names")
    return PrinSet.of(*(check_principal(p, where) for p in body))


def value_to_json(v: Value) -> Any:
    t = type(v)
    if t is FfiInt:
        return v.n
    if t is Bool:
        return v.b
    if t is FfiStr:
        return v.s
    if t is FfiList:
        return [value_to_json(i) for i in v.items]
    if t is FfiPair:
        return {"tuple": [value_to_json(v.fst), value_to_json(v.snd)]}
    if t is PrinVal:
        return {"prin": v.name}
    if t is PrinsVal:
        return {"prins": list(v.ps.names)}
    if t is Sealed:
        body = {"ps": list(v.ps.names)}
        if type(v.v) is not Opaque:
            body["v"] = value_to_json(v.v)
        return {"sealed": body}
    if t is VMap:
        return {"map": {p: value_to_json(w) for p, w in v.entries}}
    if t is ShareVal:
        return {"share": {"ps": list(v.ps.names),
                          "words": {p: w for p, w in v.words},
                          "width": v.width}}
    if t is Unit:
        return {"unit": None}
    if t is Opaque:
        return {"opaque": None}
    if t is Clos:
        return {"closure": None}
    raise InputError(f"cannot encode {v!r}")


def trace_to_json(tr: Trace) -> list:
    out = []
    for elt in tr:
        if type(elt) is TMsg:
            out.append({"TMsg": value_to_json(elt.v)})
        else:
            out.append({"TScope": {"ps": list(elt.ps.names),
                                   "t": trace_to_json(elt.t)}})
    return out


def canonical_json(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def env_from_json(obj: Any, where: str = "inputs") -> Env:
    if not isinstance(obj, dict):
        raise InputError(f"{where}: expected an object mapping variables "
                         f"to values")
    for x in obj:
        if not is_variable(x):
            raise InputError(f"{where}: {x!r} cannot name an input")
    return Env({x: json_to_value(v, f"{where}.{x}") for x, v in obj.items()})


def load_env_file(path: str) -> Env:
    with open(path) as fh:
        try:
            return env_from_json(json.load(fh), path)
        except ValueError as ex:  # bad JSON, or an int of over 4300 digits
            raise InputError(f"{path}: {ex}") from None
        except RecursionError:
            raise InputError(f"{path}: input nested too deeply") from None
