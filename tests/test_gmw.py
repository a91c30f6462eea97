"""Share-based protocol execution against the in-the-clear evaluator."""

import hashlib
import itertools
import random
from collections import Counter
from types import SimpleNamespace

import pytest

from _proggen import base_env, gen_program, gen_program_twice
from wysx.lang import (
    Bool, Env, FfiInt, FfiList, PrinSet, Sealed, ShareVal, decode_word,
    slice_env,
)
from wysx.sexp import parse
from wysx.shares import ShareMint
from wysx.circuit import (
    AND, CONST, Builder, CBit, Circuit, InputDecl, bind_inputs,
    compile_sec_thunk, decode_output, eval_circuit, input_wires,
)
from wysx import apps, ds, gmw
from wysx.ds import ds_run
from wysx.st import Runtime, run as st_run
from wysx.gmw import Channel, ProtocolError, gmw_eval, make_triples

A = PrinSet.of("a")
B = PrinSet.of("b")
AB = PrinSet.of("a", "b")
ABC = PrinSet.of("a", "b", "c")


def test_triples_reconstruct_products():
    rng = random.Random(11)
    for parties in (("a", "b"), ("a", "b", "c")):
        for n in (0, 1, 7, 200):
            t = make_triples(n, parties, rng)
            a = b = c = 0
            for p in parties:
                sa, sb, sc = t[p]
                assert max(sa, sb, sc) >> n == 0
                a ^= sa
                b ^= sb
                c ^= sc
            assert c == (a & b)


def single_and_circuit():
    b = Builder()
    x = b.input_wire()
    y = b.input_wire()
    z = b.and_(x, y)
    circ = Circuit(AB, 1, b.n, b.layers,
                   [InputDecl("a", (("var", "x"),), (x,), True),
                    InputDecl("b", (("var", "y"),), (y,), True)],
                   [(z, frozenset({"a", "b"}))], CBit(z))
    assert (circ.and_count, circ.and_depth) == (1, 1)
    return circ, x, y, z


def test_single_and_gate_protocol():
    circ, x, y, z = single_and_circuit()
    for seed in range(10):
        for xa in (0, 1):
            for yb in (0, 1):
                res = gmw_eval(circ, {"a": xa, "b": yb}, seed)
                assert res.outputs["a"][z] == (xa & yb)
                assert res.outputs["b"][z] == (xa & yb)
                # one multiplication: each side opens two blinded bits
                assert res.rounds == 3
                assert res.and_rounds == 1
                assert res.triples_used == 1
                for pair in (("a", "b"), ("b", "a")):
                    assert res.channels[pair].sent["open"] == 2


def test_protocol_transcript_is_deterministic():
    circ, x, y, z = single_and_circuit()
    r1 = gmw_eval(circ, {"a": 1, "b": 1}, 7)
    r2 = gmw_eval(circ, {"a": 1, "b": 1}, 7)
    assert r1.outputs == r2.outputs
    s1 = {k: ch.sent for k, ch in r1.channels.items()}
    s2 = {k: ch.sent for k, ch in r2.channels.items()}
    assert s1 == s2


def run_both_ways(src, env, width=8, seed=0, parties=AB):
    circ = compile_sec_thunk(env, parse(src), parties, width, ShareMint(0), {})
    words = bind_inputs(circ, {p: slice_env(p, env) for p in parties})
    clear = eval_circuit(circ, words)
    prot = gmw_eval(circ, words, seed)
    return circ, clear, prot


def test_protocol_agrees_with_clear_evaluation():
    env = Env({"xa": Sealed(A, FfiInt(5)), "xb": Sealed(B, FfiInt(9))})
    cases = [
        "(ffi gt (reveal xa) (reveal xb))",
        "(ffi eq (reveal xa) (reveal xb))",
        "(ffi add (reveal xa) (reveal xb))",
        "(if (ffi lt (reveal xa) (reveal xb)) (reveal xb) (reveal xa))",
    ]
    for src in cases:
        circ, clear, prot = run_both_ways(src, env)
        for p in AB:
            want = decode_output(circ.decode, p, clear[p])
            got = decode_output(circ.decode, p, prot.outputs[p])
            assert got == want, src


def test_protocol_on_random_inputs_and_seeds():
    rng = random.Random(0)
    hits = 0
    for _ in range(60):
        xa, xb = rng.randint(-100, 100), rng.randint(-100, 100)
        env = Env({"xa": Sealed(A, FfiInt(xa)), "xb": Sealed(B, FfiInt(xb))})
        seed = rng.randint(0, 10 ** 6)
        circ, clear, prot = run_both_ways(
            "(ffi gt (reveal xa) (reveal xb))", env, width=16, seed=seed)
        want = Bool(xa > xb)
        for p in AB:
            assert decode_output(circ.decode, p, prot.outputs[p]) == want
        hits += 1
    assert hits == 60


def test_opened_bits_scale_with_and_count():
    env = Env({"xa": Sealed(A, FfiInt(3)), "xb": Sealed(B, FfiInt(4))})
    circ, clear, prot = run_both_ways("(ffi add (reveal xa) (reveal xb))", env)
    for pair in (("a", "b"), ("b", "a")):
        assert prot.channels[pair].sent["open"] == 2 * circ.and_count
    # every run reports how many dealer triples it burned
    assert prot.triples_used == circ.and_count


def test_rounds_follow_and_depth():
    env = Env({"xa": Sealed(A, FfiInt(3)), "xb": Sealed(B, FfiInt(4))})
    circ, clear, prot = run_both_ways(
        "(ffi gt (ffi add (reveal xa) (reveal xb)) 0)", env)
    checked_depths(circ)
    assert prot.and_rounds == circ.and_depth
    assert prot.rounds == circ.and_depth + 2


def and_chain_circuit():
    b = Builder()
    x = b.input_wire()
    y = b.input_wire()
    z = b.input_wire()
    w = b.and_(b.and_(x, y), z)
    circ = Circuit(ABC, 1, b.n, b.layers,
                   [InputDecl("a", (("var", "x"),), (x,), True),
                    InputDecl("b", (("var", "y"),), (y,), True),
                    InputDecl("c", (("var", "z"),), (z,), True)],
                   [(w, frozenset({"a", "b", "c"}))], CBit(w))
    assert (circ.and_count, circ.and_depth) == (2, 2)
    return circ, x, y, z, w


def test_three_party_protocol():
    circ, x, y, z, w = and_chain_circuit()
    for bits in range(8):
        ins = {"a": bits & 1, "b": (bits >> 1) & 1, "c": (bits >> 2) & 1}
        res = gmw_eval(circ, ins, 3)
        want = (bits & 1) & ((bits >> 1) & 1) & ((bits >> 2) & 1)
        for p in ABC:
            assert res.outputs[p][w] == want


def random_circuit(rng, parties, n_inputs, n_gates):
    """A Builder circuit over one-bit inputs dealt round robin to
    ``parties`` (see ``round_robin_words``). Operands are drawn from every
    wire so far, so gates late in builder order often sit at a lower
    AND-depth than earlier ones."""
    b = Builder()
    decls = []
    for i in range(n_inputs):
        w = b.input_wire()
        decls.append(InputDecl(parties[i % len(parties)],
                               (("var", f"x{i}"),), (w,), True))
    for _ in range(n_gates):
        op = rng.choice(("CONST", "NOT", "XOR", "AND", "AND"))
        x, y = rng.randrange(b.n), rng.randrange(b.n)
        if op == "CONST":
            b.const(rng.getrandbits(1))
        elif op == "NOT":
            b.not_(x)
        elif op == "XOR":
            b.xor(x, y)
        else:
            b.and_(x, y)
    outputs = []
    for w in rng.sample(range(b.n), min(b.n, 6)):
        k = rng.randint(1, len(parties))
        outputs.append((w, frozenset(rng.sample(parties, k))))
    return Circuit(PrinSet.of(*parties), 1, b.n, b.layers, decls, outputs,
                   CBit(outputs[0][0])), decls


def round_robin_words(parties, bits):
    """Each party's input word to a ``random_circuit`` whose inputs take
    the bits ``bits`` in declaration order: party i feeds inputs i, i + k,
    i + 2k and so on of the k parties', low bit first."""
    k = len(parties)
    return {p: sum(v << j for j, v in enumerate(bits[i::k]))
            for i, p in enumerate(parties)}


def checked_depths(circ):
    """AND-depth per gate output, computed here from the gate list, after
    checking that the circuit's layers partition its gates by that depth
    in builder order, and that builder order reads every operand before
    the gate that uses it."""
    depth = {}
    for op, o, a, b in circ.gates:
        ins = () if op == CONST else [w for w in (a, b) if w >= 0]
        assert all(w < o for w in ins)
        depth[o] = max((depth.get(w, 0) for w in ins), default=0) + (op == AND)
    assert circ.and_count == sum(g[0] == AND for g in circ.gates)
    assert circ.and_depth == max(depth.values(), default=0)
    assert len(circ.layers) == circ.and_depth + 1
    for r, (local, ands) in enumerate(circ.layers):
        assert local == [x for g in circ.gates
                         if g[0] != AND and depth[g[1]] == r for x in g]
        assert ands == [x for g in circ.gates
                        if g[0] == AND and depth[g[1]] == r + 1 for x in g]
    return depth


def test_emitted_layers_match_gate_depths_on_corpus_circuits():
    # random circuits reach the builder's scalar calls only; the corpus
    # blocks also reach its word emitters
    blocks = 0
    for cell in apps.corpus(32):
        res = ds_run(apps.load_program(cell.program), cell.env, cell.ps,
                     backend="gmw")
        for _, circ in res.circuits:
            checked_depths(circ)
            blocks += 1
    assert blocks == 47


def random_circuit_runs():
    """(circuit, [(input words, dealer seed), ...]) for 25 random circuits
    over two parties and 25 over three, every input assignment each."""
    rng = random.Random(5)
    for parties in (("a", "b"), ("a", "b", "c")):
        for _ in range(25):
            circ, decls = random_circuit(rng, parties, rng.randint(2, 5),
                                         rng.randint(5, 40))
            runs = [(round_robin_words(parties, bits), rng.randrange(1000))
                    for bits in itertools.product((0, 1), repeat=len(decls))]
            yield circ, runs


def gmw_against_ideal(make):
    """Run ``make(seed)`` for seeds 0-299 at widths 4, 9, 16 and 32 on both
    backends: the ideal one must finish, and GMW must give the same parties
    or stick for a reason counted in the result, with the GMW blocks run.

    A block the ideal backend runs sticks under the gates in two cases: mul
    on private data has no gate lowering, and an input or a constant
    outside the signed range of the width would wrap, so it is refused
    (base_env holds 11 and 23, which do not fit 4 bits)."""
    env = base_env()
    sticks = Counter()
    blocks = 0
    for w in (4, 9, 16, 32):
        for seed in range(300):
            e = make(seed)
            ideal = ds_run(e, env, AB, Runtime(0, w), backend="ideal")
            assert ideal.status == "done", (w, seed, ideal.reason)
            res = ds_run(e, env, AB, Runtime(0, w), backend="gmw")
            blocks += len(res.circuits)
            if res.reason == ("joint block {a,b}: no secure lowering for "
                              "host call mul"):
                sticks[w, "mul"] += 1
                continue
            if res.status == "stuck" and res.reason.endswith(
                    f"does not fit {w} bits"):
                sticks[w, "input" if ": input " in res.reason
                       else "constant"] += 1
                continue
            assert (res.status, res.parties) == ("done", ideal.parties), \
                (w, seed, res.reason)
    return sticks, blocks


def test_gmw_backend_equals_ideal_on_generated_programs():
    sticks, blocks = gmw_against_ideal(gen_program)
    assert sticks == {(4, "mul"): 2, (4, "input"): 23, (4, "constant"): 2,
                      (9, "mul"): 2, (16, "mul"): 2, (32, "mul"): 2}
    assert blocks == 85 + 3 * 116


def test_gmw_backend_equals_ideal_when_blocks_are_entered_again():
    # one run enters each block twice, with pub at 5 and then at -3: a
    # circuit reused for other public values gives the first call's result
    sticks, blocks = gmw_against_ideal(gen_program_twice)
    assert sticks == {(4, "mul"): 2, (4, "input"): 23, (4, "constant"): 2,
                      (9, "mul"): 2, (16, "mul"): 2, (32, "mul"): 2}
    assert blocks == 2 * (86 + 3 * 116)


def test_private_list_membership_under_gmw_equals_ideal():
    e = parse("(as_sec (prins a b) (lam _ "
              "(ffi list_mem (reveal xa) (reveal lb))))")
    for xa in range(-3, 6):
        for lb in ((), (3,), (1, 3, -2), (4, 4), (-3, 0, 5, 2)):
            env = Env({"xa": Sealed(A, FfiInt(xa)),
                       "lb": Sealed(B, FfiList(tuple(map(FfiInt, lb))))})
            ideal = ds_run(e, env, AB, backend="ideal")
            res = ds_run(e, env, AB, backend="gmw")
            assert ideal.status == res.status == "done", (xa, lb)
            assert res.parties == ideal.parties, (xa, lb)
            assert res.parties["a"][0] == Bool(xa in lb)
            [(_, circ)] = res.circuits
            assert (circ.and_count > 0) == bool(lb)


COMB_SH = parse("(as_sec (prins a b) (lam _ (ffi comb_sh h)))")


def comb_sh_cases():
    """(a's word, b's word, handle width, value): hand-picked, then seeded
    words at handle widths below the block's 32 bits."""
    yield 3, 5, 8, 6
    yield 240, 0, 8, -16
    yield 1, 0, 1, -1
    rng = random.Random(5)
    for width in (1, 2, 7, 8, 16, 31):
        for _ in range(4):
            wa, wb = rng.getrandbits(width), rng.getrandbits(width)
            yield wa, wb, width, decode_word(wa ^ wb, width)


def test_a_handle_narrower_than_the_block_recombines_on_every_machine():
    # comb_sh XORs the words at the handle's width and sign-extends them to
    # the block's width, on the reference machine and on both backends
    for wa, wb, width, n in comb_sh_cases():
        env = Env({"h": ShareVal.of(AB, {"a": wa, "b": wb}, width)})
        ref = st_run(COMB_SH, env, AB, Runtime(0, 32))
        assert (ref.status, ref.value) == ("done", FfiInt(n)), (wa, wb, width)
        for backend in ("ideal", "gmw"):
            res = ds_run(COMB_SH, env, AB, Runtime(0, 32), backend=backend)
            assert res.status == "done", (wa, wb, width, res.reason)
            assert res.parties["a"][0] == res.parties["b"][0] == FfiInt(n)


def test_a_handle_wider_than_the_block_sticks_under_gmw():
    env = Env({"h": ShareVal.of(AB, {"a": 1, "b": 0}, 40)})
    assert st_run(COMB_SH, env, AB, Runtime(0, 32)).value == FfiInt(1)
    res = ds_run(COMB_SH, env, AB, Runtime(0, 32), backend="gmw")
    assert (res.status, res.reason) == (
        "stuck", "joint block {a,b}: a 40-bit handle does not fit 32 bits")


def test_split_and_merge_match_a_per_bit_reference():
    # the gather and scatter kernels of every AND layer, on both sides of
    # the per-bit threshold, over one to three byte planes; a plane's
    # unused high bits start random and must not leak into a word
    assert 1 < gmw._PER_BIT < 40
    rng = random.Random("kernels")
    for k in (1, 2, 3, 8, 9, 17):
        for m in range(1, 41):
            n = 2 * m + 7
            contiguous = list(range(3, 3 + m))
            for wires in (contiguous, contiguous[::-1],
                          rng.sample(range(n), m)):
                planes = [[rng.getrandbits(8) for _ in range(n)]
                          for _ in range(0, k, 8)]
                raws = [bytes(s[w] for w in wires) for s in planes]
                assert gmw._split(raws, k) == [
                    sum(((planes[i // 8][w] >> i % 8) & 1) << j
                        for j, w in enumerate(wires)) for i in range(k)]
                words = [rng.getrandbits(m) for _ in range(k)]
                want = [list(s) for s in planes]
                for j, w in enumerate(wires):
                    for t, s in enumerate(want):
                        s[w] = sum(((words[i] >> j) & 1) << i % 8
                                   for i in range(8 * t, min(k, 8 * t + 8)))
                gmw._merge(planes, wires, words)
                assert planes == want, (k, m, wires)


def test_malformed_message_raises_protocol_error(monkeypatch):
    ch = Channel("a", "b")
    ch.send("open", 2, 0b10)
    with pytest.raises(ProtocolError):
        ch.recv("open", 3)
    ch.send("open", 2, 0b100)  # more bits than the count says
    with pytest.raises(ProtocolError):
        ch.recv("open", 2)

    # a short, a lost and a relabelled message, each seen by its receiver
    circ, x, y, z = single_and_circuit()
    send = Channel.send

    def short_open(self, kind, n, word):
        send(self, kind, n - (kind == "open"), word)

    def drop_open(self, kind, n, word):
        if kind != "open":
            send(self, kind, n, word)

    def open_as_output(self, kind, n, word):
        send(self, "output" if kind == "open" else kind, n, word)

    for fake, msg in (
            (short_open, "^malformed open message from b to a: 1 bits, "
                         "expected 2$"),
            (drop_open, "^a expected open from b, channel empty$"),
            (open_as_output, "^a expected open from b, got output$")):
        monkeypatch.setattr(Channel, "send", fake)
        with pytest.raises(ProtocolError, match=msg):
            gmw_eval(circ, {"a": 1, "b": 1}, 0)


def test_an_input_that_is_not_a_word_is_refused():
    # unchecked, a word wider than its owner's input wires would lose its
    # high bits or spill onto other wires; a bool is no word, and None is
    # a missing one
    circ, x, y, z = single_and_circuit()
    for bad in (2, 3, -1, 256, True, 1.0):
        with pytest.raises(ProtocolError,
                           match="^b gives an input that is not a 1-bit word$"):
            gmw_eval(circ, {"a": 1, "b": bad}, 0)
    for ins in ({"b": 1}, {"a": None, "b": 1}):
        with pytest.raises(ProtocolError,
                           match="^a has no word for its input wires$"):
            gmw_eval(circ, ins, 0)
    circ, xs, ys = two_layer_circuit()
    for bad in (16, -1, 1 << 64):
        with pytest.raises(ProtocolError,
                           match="^a gives an input that is not a 4-bit word$"):
            gmw_eval(circ, {"a": bad, "b": 0}, 0)
    # a party with no input wires needs no word, and gives 0 if any
    circ, x, y, z = single_and_circuit()
    circ = Circuit(ABC, 1, circ.n_wires, circ.layers, circ.inputs,
                   circ.outputs, circ.decode)
    for ins in ({"a": 1, "b": 1}, {"a": 1, "b": 1, "c": 0}):
        res = gmw_eval(circ, ins, 0)
        assert res.outputs["a"] == {z: 1}
        assert res.channels["c", "a"].sent["input"] == 0
    with pytest.raises(ProtocolError,
                       match="^c gives an input that is not a 0-bit word$"):
        gmw_eval(circ, {"a": 1, "b": 0, "c": 1}, 0)


def open_view_distance(circ, parties, monkeypatch, seeds=2000):
    """Largest total-variation distance between two distributions over
    dealer seeds of one ``open`` message a party receives (per layer and
    sender), where both fix the receiver's own input and differ in the
    other parties' inputs."""
    log = []
    send = Channel.send

    def logged(self, kind, n, word):
        if kind == "open":
            log.append((self.src, self.dst, word))
        send(self, kind, n, word)

    monkeypatch.setattr(Channel, "send", logged)
    dists = {}  # (receiver, own bit) -> all bits -> (layer, sender) -> Counter
    for bits in itertools.product((0, 1), repeat=len(parties)):
        ins = dict(zip(parties, bits))
        views = {p: dists.setdefault((p, own), {}).setdefault(bits, {})
                 for p, own in zip(parties, bits)}
        for seed in range(seeds):
            log.clear()
            gmw_eval(circ, ins, seed)
            layer = Counter()
            for src, dst, word in log:
                views[dst].setdefault((layer[src, dst], src),
                                      Counter())[word] += 1
                layer[src, dst] += 1
    monkeypatch.setattr(Channel, "send", send)
    worst = 0.0
    for by_inputs in dists.values():
        first, *rest = by_inputs.values()
        for other in rest:
            for msg, counts in first.items():
                words = set(counts) | set(other[msg])
                tv = sum(abs(counts[w] - other[msg][w]) for w in words)
                worst = max(worst, tv / (2 * seeds))
    return worst


def test_open_messages_are_independent_of_other_inputs(monkeypatch):
    circ, x, y, z = single_and_circuit()
    assert open_view_distance(circ, "ab", monkeypatch) <= 0.05
    circ, x, y, z, w = and_chain_circuit()
    assert open_view_distance(circ, "abc", monkeypatch) <= 0.05


def test_view_check_catches_missing_randomness(monkeypatch):
    class NoRandom:
        def __init__(self, seed):
            pass

        def getrandbits(self, n):
            return 0

    monkeypatch.setattr(gmw, "random", SimpleNamespace(Random=NoRandom))
    circ, x, y, z = single_and_circuit()
    assert open_view_distance(circ, "ab", monkeypatch) > 0.05
    circ, x, y, z, w = and_chain_circuit()
    assert open_view_distance(circ, "abc", monkeypatch) > 0.05


def two_layer_circuit(width=4):
    """Two AND layers of ``width`` gates each over a's and b's input bits."""
    b = Builder()
    xs = [b.input_wire() for _ in range(width)]
    ys = [b.input_wire() for _ in range(width)]
    zs = [b.and_(x, y) for x, y in zip(xs, ys)]
    us = [b.and_(zs[i], zs[(i + 1) % width]) for i in range(width)]
    circ = Circuit(AB, width, b.n, b.layers,
                   [InputDecl("a", (("var", "x"),), tuple(xs), False),
                    InputDecl("b", (("var", "y"),), tuple(ys), False)],
                   [(u, frozenset({"a", "b"})) for u in us], CBit(us[0]))
    assert [len(ands) // 4 for _, ands in circ.layers] == [width, width, 0]
    return circ, xs, ys


def test_triples_and_input_pieces_are_fresh_and_full_width(monkeypatch):
    # one-AND layers cannot show these defects in per-message marginals: a
    # triple reused across layers, a dealer word or an input piece drawn
    # shorter than its layer. Every draw must also come from the block's one
    # stream, in the order the gmw docstring states
    dealt, pieces, streams = [], [], []
    make, send = gmw.make_triples, Channel.send

    def logged_make(n, parties, rng):
        dealt.append(make(n, parties, rng))
        return dealt[-1]

    def logged_send(self, kind, n, word):
        if kind == "input":
            pieces.append((self.src, self.dst, n, word))
        send(self, kind, n, word)

    def logged_random(seed):
        streams.append(seed)
        return random.Random(seed)

    monkeypatch.setattr(gmw, "make_triples", logged_make)
    monkeypatch.setattr(Channel, "send", logged_send)
    monkeypatch.setattr(gmw, "random", SimpleNamespace(Random=logged_random))

    def run(circ, words, seed):
        dealt.clear()
        pieces.clear()
        streams.clear()
        gmw_eval(circ, words, seed)
        assert streams == [seed]
        # replay: each owner's pieces, owners and receivers in party order,
        # then each AND layer's triples
        rng = random.Random(seed)
        parties = circ.parties.names
        widths = {p: len(ws) for p, ws in input_wires(circ).items()}
        assert pieces == [(p, q, widths[p], rng.getrandbits(widths[p]))
                          for p in parties for q in parties if q != p], seed
        assert dealt == [make(len(ands) // 4, parties, rng)
                         for _, ands in circ.layers if ands], seed

    circ, xs, ys = two_layer_circuit()
    words = {"a": 0b1101, "b": 0b0110}  # bit j on xs[j] and ys[j]
    seen = set()  # (word label, bit position, bit value)
    for seed in range(64):
        run(circ, words, seed)
        assert len(dealt) == 2 and dealt[0] != dealt[1], seed
        for r, t in enumerate(dealt):
            for k, name in ((0, "a"), (1, "b")):
                shares = {p: t[p][k] for p in AB}
                shares["joint"] = shares["a"] ^ shares["b"]
                for who, word in shares.items():
                    for i in range(4):
                        seen.add(((r, name, who), i, (word >> i) & 1))
        assert [(src, n) for src, _, n, _ in pieces] == [("a", 4), ("b", 4)]
        for src, _, n, word in pieces:
            for i in range(n):
                seen.add((("input", src), i, (word >> i) & 1))
    constant = {(label, i) for label, i, v in seen
                if (label, i, 1 - v) not in seen}
    assert not constant, sorted(constant)
    # three parties, and the seed labels ``ds_run`` passes
    circ = and_chain_circuit()[0]
    for seed in range(8):
        run(circ, {"a": 1, "b": 0, "c": 1}, f"{seed}|gmw|a,b,c|0")
        assert len(pieces) == 6 and len(dealt) == 2


def many_party_runs():
    """Hand-built random circuits over one party and over nine, so that a
    party index past the eighth is covered, with a few input assignments
    and dealer seeds each."""
    rng = random.Random("many-parties")
    for parties in (("a",), tuple("abcdefghi")):
        for _ in range(4):
            circ, decls = random_circuit(rng, parties,
                                         rng.randint(len(parties), 12),
                                         rng.randint(10, 60))
            runs = []
            for _ in range(4):
                bits = [rng.getrandbits(1) for _ in decls]
                runs.append((round_robin_words(parties, bits),
                             rng.randrange(1000)))
            yield circ, runs


def corpus_block_runs(monkeypatch):
    """(circuit, [(input words, dealer seed), ...]) for every GMW block the
    corpus reaches at widths 32 and 9, under dealer seeds 0-2."""
    blocks = []
    real = ds.gmw_eval

    def record(circ, words, seed):
        blocks.append((circ, words))
        return real(circ, words, seed)

    monkeypatch.setattr(ds, "gmw_eval", record)
    for w in (32, 9):
        for cell in apps.corpus(w):
            if cell.min_width <= w:
                res = ds_run(apps.load_program(cell.program), cell.env,
                             cell.ps, Runtime(0, w), backend="gmw")
                assert res.status == "done", (cell.name, w, res.reason)
    monkeypatch.setattr(ds, "gmw_eval", real)
    return [(circ, [(words, seed) for seed in range(3)])
            for circ, words in blocks]


def pinned_cases(monkeypatch):
    """(circuit, [(input words, dealer seed), ...]) for the corpus blocks,
    the random circuits and the 1- and 9-party circuits."""
    cases = corpus_block_runs(monkeypatch)
    assert len(cases) == 94
    return cases + [*random_circuit_runs(), *many_party_runs()]


def test_protocol_matches_clear_evaluation_on_every_pinned_case(monkeypatch):
    # the protocol's outputs are the clear evaluator's on every pinned run,
    # and it costs one round per AND layer and two opened bits per AND gate;
    # the random circuits often file a gate late in builder order at a lower
    # AND-depth than an earlier one
    inversions = 0
    for circ, runs in pinned_cases(monkeypatch):
        depth = checked_depths(circ)
        order = [depth[g[1]] for g in circ.gates]
        inversions += any(d < max(order[:i], default=0)
                          for i, d in enumerate(order))
        for words, seed in runs:
            prot = gmw_eval(circ, words, seed)
            assert prot.outputs == eval_circuit(circ, words), seed
            assert (prot.rounds, prot.and_rounds, prot.triples_used) == \
                (circ.and_depth + 2, circ.and_depth, circ.and_count)
            for ch in prot.channels.values():
                assert ch.sent["open"] == 2 * circ.and_count
    assert inversions > 10


TRANSCRIPT_DIGEST = {
    "messages":
        "48c0bf4d405533a5c93646e6deeb5cb6f53ecc899a907477ac4e8ca6b07eacdd",
    "result":
        "dec02fa0352d831803eada5d506e73a09b1093fda31e1d0901a0a1d588fc8ea6",
}


def test_protocol_transcripts_are_pinned(monkeypatch):
    # over the corpus blocks, the random circuits and 1- and 9-party
    # circuits, two digests: "messages", every message of every channel in
    # send order, and "result", the outputs, round and triple counts and
    # each channel's bits sent
    cases = pinned_cases(monkeypatch)
    log = []
    send = Channel.send

    def logged(self, kind, n, word):
        log.append((self.src, self.dst, kind, n, word))
        send(self, kind, n, word)

    monkeypatch.setattr(Channel, "send", logged)
    h = {aspect: hashlib.sha256() for aspect in TRANSCRIPT_DIGEST}
    for circ, runs in cases:
        for words, seed in runs:
            log.clear()
            res = gmw_eval(circ, words, seed)
            sent = sorted((k, sorted(ch.sent.items()))
                          for k, ch in res.channels.items())
            outputs = sorted((p, sorted(o.items()))
                             for p, o in res.outputs.items())
            h["messages"].update(repr(log).encode())
            h["result"].update(repr((outputs, res.rounds, res.and_rounds,
                                     res.triples_used, sent)).encode())
    assert {a: d.hexdigest() for a, d in h.items()} == TRANSCRIPT_DIGEST
