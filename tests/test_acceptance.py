"""End-to-end acceptance gates.

Each test covers one headline property, prints a single verdict line, and
enforces its own wall-clock budget.
"""

import itertools
import random
import time
from contextlib import contextmanager

import pytest

from wysx.lang import (
    Bool, Env, FfiInt, OPAQUE, PrinSet, Sealed, TMsg, combine_many,
    slice_value,
)
from wysx.sexp import parse
from wysx.st import Runtime
from wysx.shares import ShareMint
from wysx.circuit import (
    Builder, CBit, Circuit, InputDecl, bind_inputs, compile_sec_thunk,
    decode_output, eval_circuit,
)
from wysx.gmw import gmw_eval
from wysx.ds import check_confluence, check_simulation, ds_run
from wysx import apps
from wysx.apps import (
    check_cards, check_median_security, check_psi_security, corpus, deal_env,
    distinct_lists, fresh_env, full_deal, load_program, median_env, median_of,
    median_pre, median_trace, mk_handles, opt_trace, psi_comparison_count,
    psi_pair_env, run_app, run_check_fresh, share_identity, share_roundtrip,
)

from _proggen import gen_program, gen_value, base_env, UNIVERSE

A = PrinSet.of("a")
B = PrinSet.of("b")
AB = PrinSet.of("a", "b")


@pytest.fixture
def announce(capsys):
    def say(line):
        with capsys.disabled():
            print(line)
    return say


@contextmanager
def verdict(announce, n, label, budget):
    t0 = time.monotonic()
    info = {"checks": 0}
    try:
        yield info
        dt = time.monotonic() - t0
        if dt >= budget:
            announce(f"criterion {n:2d} {label}: FAIL "
                     f"[{dt:.1f}s over the {budget}s budget]")
            raise AssertionError(f"{label}: {dt:.1f}s exceeds {budget}s")
    except AssertionError:
        raise
    except BaseException:
        announce(f"criterion {n:2d} {label}: FAIL")
        raise
    announce(f"criterion {n:2d} {label}: PASS "
             f"[{dt:.1f}s, {info['checks']} checks]")


def test_criterion_01_distributed_runs_simulate_the_reference(announce):
    with verdict(announce, 1, "simulation", 60) as info:
        for cell in corpus():
            rep = check_simulation(load_program(cell.program), cell.env,
                                   cell.ps)
            assert rep.status == "pass", (cell.name, rep.detail)
            info["checks"] += 1
        env = base_env()
        for seed in range(200):
            rep = check_simulation(gen_program(seed), env, AB)
            assert rep.status == "pass", (seed, rep.detail)
            info["checks"] += 1


def test_criterion_02_schedules_are_confluent(announce):
    with verdict(announce, 2, "confluence", 120) as info:
        for cell in corpus():
            rep = check_confluence(load_program(cell.program), cell.env,
                                   cell.ps, n_schedules=100)
            assert rep.status == "pass", (cell.name, rep.detail)
            info["checks"] += 1


def median_inputs(lo, hi):
    for xs in itertools.product(range(lo, hi + 1), repeat=4):
        a, b = (xs[0], xs[1]), (xs[2], xs[3])
        if median_pre(a, b):
            yield a, b


def test_criterion_03_median_value_and_traces(announce):
    with verdict(announce, 3, "median traces", 30) as info:
        for a, b in median_inputs(1, 8):
            m = median_of(a, b)
            r = run_app("median", median_env(a, b))
            assert r.status == "done", (a, b)
            assert r.value == FfiInt(m), (a, b)
            assert r.trace == (TMsg(FfiInt(m)),), (a, b)
            assert r.trace == median_trace(a, b), (a, b)
            r2 = run_app("median_opt", median_env(a, b))
            assert r2.status == "done", (a, b)
            assert r2.value == FfiInt(m), (a, b)
            assert r2.trace == opt_trace(a, b), (a, b)
            info["checks"] += 2
        assert info["checks"] == 2 * 420


def test_criterion_04_delimited_release(announce):
    with verdict(announce, 4, "delimited release", 60) as info:
        good = check_median_security(8)
        assert good.status == "pass", good.detail
        info["checks"] += good.checked

        # negative control: an oracle that forgets the private scopes must
        # be rejected, otherwise the check has no teeth
        def no_scopes(a, b):
            return tuple(ev for ev in opt_trace(a, b) if type(ev) is TMsg)
        control = check_median_security(8, oracle=no_scopes)
        assert control.status == "fail", "mutated oracle slipped through"
        info["checks"] += 1

        # second control: a variant program that publishes an intermediate
        leak = check_median_security(8, oracle=None,
                                     program="median_opt_leak")
        assert leak.status == "fail", "leaky variant slipped through"
        info["checks"] += 1


def test_criterion_05_psi_permutation_security(announce):
    with verdict(announce, 5, "psi security", 120) as info:
        # all three programs on every pair of the 41 lists of length at
        # most 3 over 1..4; the flags must equal the trace oracles
        v = check_psi_security(4)
        assert v.status == "pass", v.detail
        assert v.checked == 3 * 41 * 41
        info["checks"] += v.checked


def test_criterion_06_psi_optimization_counts(announce):
    with verdict(announce, 6, "psi comparison counts", 10) as info:
        ls = distinct_lists(2, 5)
        for la in ls:
            for lb in ls:
                naive, opt = psi_comparison_count(la, lb)
                assert naive == len(la) * len(lb), (la, lb)
                assert opt <= naive, (la, lb)
                info["checks"] += 1
        for n in range(0, 4):
            eq = list(range(1, n + 1))
            assert psi_comparison_count(eq, eq) == (n * n, n)
            info["checks"] += 1


def both_backends(cell, seed, width):
    e = load_program(cell.program)
    ideal = ds_run(e, cell.env, cell.ps, Runtime(seed, width),
                   backend="ideal")
    gmw = ds_run(e, cell.env, cell.ps, Runtime(seed, width), backend="gmw")
    assert ideal.status == "done", (cell.name, ideal.reason)
    assert gmw.status == "done", (cell.name, gmw.reason)
    assert ideal.parties == gmw.parties, cell.name


def compile_two_party(src, width, seed=0):
    env = Env({"xa": Sealed(A, FfiInt(0)), "xb": Sealed(B, FfiInt(0))})
    return compile_sec_thunk(env, parse(src), AB, width, ShareMint(seed), {})


def test_criterion_07_secure_backend_equals_ideal(announce):
    with verdict(announce, 7, "backend equivalence", 120) as info:
        # every corpus thunk, five dealer-seed families, full runs
        for cell in corpus():
            for seed in range(5):
                both_backends(cell, seed, 32)
                info["checks"] += 1

        # exhaustive primitive sweeps at width 4 (all signed pairs)
        OP = OPAQUE
        for src in ("(ffi gt (reveal xa) (reveal xb))",
                    "(ffi eq (reveal xa) (reveal xb))",
                    "(ffi add (reveal xa) (reveal xb))"):
            circ = compile_two_party(src, 4)
            for xa in range(-8, 8):
                for xb in range(-8, 8):
                    env_a = Env({"xa": Sealed(A, FfiInt(xa)),
                                 "xb": Sealed(B, OP)})
                    env_b = Env({"xa": Sealed(A, OP),
                                 "xb": Sealed(B, FfiInt(xb))})
                    words = bind_inputs(circ, {"a": env_a, "b": env_b})
                    clear = eval_circuit(circ, words)
                    seed = (xa * 16 + xb) % 5
                    prot = gmw_eval(circ, words, seed)
                    for p in AB:
                        want = decode_output(circ.decode, p, clear[p])
                        got = decode_output(circ.decode, p, prot.outputs[p])
                        assert got == want, (src, xa, xb)
                    info["checks"] += 1

        # the dealing fold at width 9 over the whole reachable sum range
        fold = "(if (ffi gt (reveal xa) 52) (ffi sub (reveal xa) 52) (reveal xa))"
        circ = compile_two_party(fold, 9)
        for v in range(0, 154):
            env_a = Env({"xa": Sealed(A, FfiInt(v)), "xb": Sealed(B, OP)})
            env_b = Env({"xa": Sealed(A, OP), "xb": Sealed(B, FfiInt(0))})
            words = bind_inputs(circ, {"a": env_a, "b": env_b})
            clear = eval_circuit(circ, words)
            prot = gmw_eval(circ, words, v % 5)
            for p in AB:
                want = decode_output(circ.decode, p, clear[p])
                assert want == FfiInt(v - 52 if v > 52 else v)
                got = decode_output(circ.decode, p, prot.outputs[p])
                assert got == want, v
            info["checks"] += 1

        # 100 random full-width cases over fresh corpus-shaped inputs
        rng = random.Random("backend-eq")
        cells = corpus()
        for i in range(100):
            kind = rng.randrange(4)
            if kind == 0:
                vals = sorted(rng.sample(range(1, 10 ** 6), 4))
                a = (vals[0], vals[2])
                b = (vals[1], vals[3])
                cell = apps.CorpusCell(f"r{i}", "median_opt",
                                       median_env(a, b), AB)
            elif kind == 1:
                la = rng.sample(range(1, 50), rng.randint(0, 3))
                lb = rng.sample(range(1, 50), rng.randint(0, 3))
                cell = apps.CorpusCell(f"r{i}", "psi_opt",
                                       psi_pair_env(la, lb), AB)
            elif kind == 2:
                hist = rng.sample(range(0, 52), rng.randint(0, 4))
                cand = rng.randrange(52)
                cell = apps.CorpusCell(
                    f"r{i}", "check_fresh",
                    fresh_env(hist, cand, seed=i), apps.ABC)
            else:
                rands = {p: rng.randrange(52) for p in ("a", "b", "c")}
                hist = mk_handles(rng.sample(range(0, 52), rng.randint(0, 3)),
                                  seed=i)
                cell = apps.CorpusCell(f"r{i}", "deal_round",
                                       deal_env(rands, hist), apps.ABC)
            both_backends(cell, seed=i % 7, width=32)
            info["checks"] += 1


def test_criterion_08_circuit_and_protocol_oracle(announce):
    with verdict(announce, 8, "circuit oracle", 5) as info:
        # width-2 comparisons against host integers, all 16 signed pairs
        OP = OPAQUE
        for src, op in (("(ffi gt (reveal xa) (reveal xb))",
                         lambda x, y: x > y),
                        ("(ffi eq (reveal xa) (reveal xb))",
                         lambda x, y: x == y)):
            circ = compile_two_party(src, 2)
            for xa in range(-2, 2):
                for xb in range(-2, 2):
                    env_a = Env({"xa": Sealed(A, FfiInt(xa)),
                                 "xb": Sealed(B, OP)})
                    env_b = Env({"xa": Sealed(A, OP),
                                 "xb": Sealed(B, FfiInt(xb))})
                    words = bind_inputs(circ, {"a": env_a, "b": env_b})
                    outs = eval_circuit(circ, words)
                    for p in AB:
                        assert decode_output(circ.decode, p, outs[p]) == \
                            Bool(op(xa, xb)), (src, xa, xb)
                    info["checks"] += 1

        # one multiplication triple, all four inputs, ten dealer seeds
        b = Builder()
        x = b.input_wire()
        y = b.input_wire()
        z = b.and_(x, y)
        circ = Circuit(AB, 1, b.n, b.layers,
                       [InputDecl("a", (("var", "x"),), (x,), True),
                        InputDecl("b", (("var", "y"),), (y,), True)],
                       [(z, frozenset({"a", "b"}))], CBit(z))
        assert (circ.and_count, circ.and_depth) == (1, 1)
        for seed in range(10):
            for xa in (0, 1):
                for yb in (0, 1):
                    res = gmw_eval(circ, {"a": xa, "b": yb}, seed)
                    assert res.outputs["a"][z] == (xa & yb)
                    assert res.outputs["b"][z] == (xa & yb)
                    assert res.rounds == 3
                    assert res.triples_used == 1
                    for pair in (("a", "b"), ("b", "a")):
                        assert res.channels[pair].sent["open"] == 2
                    info["checks"] += 1


def test_criterion_09_card_dealing(announce):
    with verdict(announce, 9, "card dealing", 60) as info:
        for v in range(0, 52):
            assert share_identity(v, seed=v) == v
            assert share_roundtrip(v, seed=v + 1) == v
            info["checks"] += 2

        for size in range(0, 5):
            for hist in itertools.product(range(8), repeat=size):
                for cand in range(8):
                    r = run_check_fresh(hist, cand, seed=2)
                    assert r.status == "done", (hist, cand)
                    want = Bool(cand not in hist)
                    assert r.value == want, (hist, cand)
                    info["checks"] += 1

        for seed in range(5):
            cards = full_deal(seed)
            assert len(cards) == 52
            assert len(set(cards)) == 52
            info["checks"] += 1

        # what a round discloses: the history's cards and the folded card
        v = check_cards()
        assert v.status == "pass", v.detail
        info["checks"] += v.checked


def test_criterion_10_slice_combine_algebra(announce):
    with verdict(announce, 10, "slice and combine", 10) as info:
        parties = UNIVERSE.names
        for seed in range(10 ** 4):
            v = gen_value(seed)
            slices = [slice_value(p, v) for p in parties]
            assert combine_many(slices) == v, seed
            for p, s in zip(parties, slices):
                assert slice_value(p, s) == s, seed
            info["checks"] += 1
