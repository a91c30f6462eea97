"""JSON codec for values, traces, and per-party input files."""

import json
import tracemalloc

import pytest

from wysx.lang import (
    Bool, Env, FfiInt, FfiList, FfiPair, FfiStr, Lam, OPAQUE, PrinSet, Sealed,
    ShareVal, TMsg, TScope, UNIT, Var, VMap, combine_envs, slice_env,
    slice_value,
)
from wysx.sexp import ParseError, parse
from wysx.inputs import (
    InputError, canonical_json, env_from_json, json_to_value, load_env_file,
    trace_to_json, value_to_json,
)

from _proggen import gen_value, UNIVERSE

A = PrinSet.of("a")
AB = PrinSet.of("a", "b")


def test_scalar_encodings():
    assert value_to_json(FfiInt(3)) == 3
    assert value_to_json(Bool(True)) is True
    assert value_to_json(FfiStr("s")) == "s"
    assert value_to_json(UNIT) == {"unit": None}
    # bools and ints must not bleed into each other
    assert json_to_value(True) == Bool(True)
    assert json_to_value(1) == FfiInt(1)


def test_container_encodings():
    assert value_to_json(FfiPair(FfiInt(1), Bool(False))) == {"tuple": [1, False]}
    assert value_to_json(FfiList((FfiInt(1),))) == [1]
    assert value_to_json(VMap.of({"a": FfiInt(1)})) == {"map": {"a": 1}}


def test_sealed_encodings():
    assert value_to_json(Sealed(A, FfiInt(5))) == {"sealed": {"ps": ["a"], "v": 5}}
    # hidden contents are simply absent
    assert value_to_json(Sealed(A, OPAQUE)) == {"sealed": {"ps": ["a"]}}
    assert json_to_value({"sealed": {"ps": ["a"]}}) == Sealed(A, OPAQUE)
    assert json_to_value({"sealed": {"ps": ["a"], "v": None}}) == Sealed(A, OPAQUE)
    assert json_to_value({"sealed": {"ps": ["a"], "v": {"opaque": None}}}) \
        == Sealed(A, OPAQUE)
    assert json_to_value({"sealed": {"ps": ["a"], "v": "opaque"}}) \
        == Sealed(A, FfiStr("opaque"))


def test_sealed_string_opaque_round_trips():
    v = Sealed(A, FfiStr("opaque"))
    assert json_to_value(value_to_json(v)) == v


def test_share_encoding_round_trip():
    sh = ShareVal.of(AB, {"a": 7}, 8)
    assert json_to_value(value_to_json(sh)) == sh


def test_round_trip_generated_values():
    for seed in range(800):
        v = gen_value(seed)
        assert json_to_value(value_to_json(v)) == v, seed


def test_round_trip_survives_slicing():
    for seed in range(200):
        v = gen_value(seed)
        for p in UNIVERSE.names:
            s = slice_value(p, v)
            assert json_to_value(value_to_json(s)) == s


# share handles whose width is not 1-64 or whose words do not fit it
BAD_SHARES = [
    {"share": {"ps": ["a"], "words": {"a": 1}, "width": width}}
    for width in (0, -3, True, 65, 2 ** 40, 8.0, None)
] + [
    {"share": {"ps": ["a"], "words": {"a": word}, "width": 4}}
    for word in (-5, 16, 1000, True, 1.0)
]


def test_bad_inputs_raise():
    bad = [
        {"sealed": {}},
        {"sealed": {"ps": []}},
        {"sealed": {"ps": [3]}},
        {"share": {"ps": ["a"], "words": {"a": "x"}, "width": 8}},
        {"share": {"ps": ["a"], "words": {"b": 1}, "width": 8}},
        {"share": {"ps": ["a"], "words": {"(": 1}, "width": 8}},
        *BAD_SHARES,
        {"map": [1, 2]},
        {"tuple": [1]},
        {"unknown_tag": 1},
        {"map": {"a": 1}, "tuple": [1, 2]},
        3.5,
        [2 ** 63],
    ]
    for obj in bad:
        with pytest.raises(InputError):
            json_to_value(obj)


def test_integers_fit_the_64_bit_host_word():
    for n in (-2 ** 63, 2 ** 63 - 1):
        assert json_to_value({"tuple": [n, 0]}) == FfiPair(FfiInt(n), FfiInt(0))
    for n in (2 ** 63, -2 ** 63 - 1, 2 ** 64):
        with pytest.raises(InputError, match=rf"^x\.0: an integer is from "
                                             rf"-2\*\*63 to 2\*\*63 - 1, "
                                             rf"got {n}$"):
            json_to_value({"tuple": [n, 0]}, "x")


def test_share_limits_name_the_field():
    for width, word in ((1, 1), (4, 15), (64, 2 ** 64 - 1)):
        assert json_to_value({"share": {"ps": ["a"], "words": {"a": word},
                                        "width": width}}).width == width
    with pytest.raises(InputError, match=r"^h\.width: .* got True$"):
        json_to_value(BAD_SHARES[2], "h")
    with pytest.raises(InputError, match=r"^h\.words\.a: a 4-bit share word "
                                         r"is an integer from 0 to 15, got -5$"):
        json_to_value(BAD_SHARES[7], "h")


def test_a_huge_share_width_is_refused_before_it_is_used():
    tracemalloc.start()
    try:
        with pytest.raises(InputError):
            json_to_value(BAD_SHARES[4])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_trace_encoding():
    t = (TMsg(FfiInt(2)), TScope(A, (TMsg(Bool(True)),)))
    assert trace_to_json(t) == [
        {"TMsg": 2},
        {"TScope": {"ps": ["a"], "t": [{"TMsg": True}]}},
    ]


def test_canonical_json_is_stable():
    a = canonical_json({"b": 1, "a": [2, 3]})
    b = canonical_json(dict([("a", [2, 3]), ("b", 1)]))
    assert a == b == '{"a":[2,3],"b":1}'


def test_env_from_json():
    env = env_from_json({"x": 3, "y": {"sealed": {"ps": ["a"], "v": 1}}})
    assert env.get("x") == FfiInt(3)
    assert env.get("y") == Sealed(A, FfiInt(1))
    with pytest.raises(InputError):
        env_from_json([1, 2])
    with pytest.raises(InputError):
        env_from_json({"if": 3})  # reserved word cannot name an input


@pytest.mark.parametrize("name", ["5", "-3", "007", "if", "true", "",
                                  "a b", "x(", 'q"', "y;"])
def test_an_input_name_must_read_as_a_variable(name):
    # the parser reads "5" and "-3" as integer literals, so no program
    # could refer to an input of that name
    with pytest.raises(InputError, match="cannot name an input"):
        env_from_json({name: 1})
    with pytest.raises(ParseError):
        parse(f"(lam {name} 1)")


@pytest.mark.parametrize("name", ["x", "-", "--5", "x-3", "5x", "_"])
def test_every_name_the_parser_binds_can_name_an_input(name):
    assert env_from_json({name: 1}).get(name) == FfiInt(1)
    assert parse(f"(lam {name} {name})") == Lam(name, Var(name))


@pytest.mark.parametrize("obj", [
    {"prin": "("}, {"prin": "1"}, {"prin": "if"}, {"prin": ""},
    {"prins": ["", "a b"]}, {"prins": ["a", "-3"]},
    {"sealed": {"ps": ["a", "x)"], "v": 1}},
    {"share": {"ps": ["a", "007"], "words": {"a": 1}, "width": 8}},
    {"map": {"1": 5}}, {"map": {"a": 1, "b;": 2}},
])
def test_a_principal_name_must_read_as_a_variable(obj):
    # ``(prin ...)`` and ``(prins ...)`` take the same names as a variable,
    # so no program could name any other principal
    with pytest.raises(InputError, match=r"^v: '.*' cannot name a principal$"):
        json_to_value(obj, "v")


@pytest.mark.parametrize("name", ["x", "-", "--5", "x-3", "5x", "_"])
def test_every_name_the_parser_reads_can_name_a_principal(name):
    assert json_to_value({"prin": name}) == parse(f"(prin {name})").v
    s = PrinSet.of(name)
    assert json_to_value({"prins": [name]}) == parse(f"(prins {name})").v
    assert json_to_value({"map": {name: 1}}) == VMap.of({name: FfiInt(1)})
    assert json_to_value({"sealed": {"ps": [name]}}) == Sealed(s, OPAQUE)
    assert json_to_value({"share": {"ps": [name], "words": {name: 3},
                                    "width": 4}}).ps == s


def test_load_and_combine_party_files(tmp_path):
    joint = Env({
        "xa": Sealed(A, FfiInt(5)),
        "xb": Sealed(PrinSet.of("b"), FfiInt(9)),
        "pub": FfiInt(1),
    })
    paths = []
    for p in AB:
        f = tmp_path / f"{p}.json"
        local = slice_env(p, joint)
        f.write_text(json.dumps({x: value_to_json(v) for x, v in local.items()}))
        paths.append(str(f))
    loaded = [load_env_file(path) for path in paths]
    assert combine_envs(loaded) == joint


def test_load_env_file_errors(tmp_path):
    f = tmp_path / "bad.json"
    f.write_text("{not json")
    with pytest.raises(InputError):
        load_env_file(str(f))
    g = tmp_path / "list.json"
    g.write_text("[1,2]")
    with pytest.raises(InputError):
        load_env_file(str(g))
