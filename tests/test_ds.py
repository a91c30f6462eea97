"""Distributed semantics: local machines, joint blocks, schedules, checks."""

import functools
import hashlib
import itertools
import random
import re
import sys

import pytest

from wysx import apps, ds, st
from wysx.lang import (
    FALSE, OPAQUE, PAR, TRUE, Clos, Env, FfiInt, FfiList, Mode, PrinSet,
    Sealed, ShareVal, TMsg, VMap, slice_trace, slice_value,
)
from wysx.sexp import parse
from wysx.shares import ShareMint
from wysx.st import Runtime, _descend, _plug, run as st_run
from wysx.ds import (
    RoundRobin, SeededRandom, check_confluence, check_simulation, ds_run,
    parse_sched,
)

from _pins import Digests, assert_pinned
from _proggen import base_env, gen_program

A = PrinSet.of("a")
B = PrinSet.of("b")
AB = PrinSet.of("a", "b")
ABC = PrinSet.of("a", "b", "c")


def both(src, env=None, ps=AB, seed=0, width=32, **kw):
    """Run ST and DS on the same program, return (st, ds)."""
    e = parse(src)
    env = env or Env()
    st = st_run(e, env=env, ps=ps, rt=Runtime(seed, width))
    ds = ds_run(e, env=env, ps=ps, rt=Runtime(seed, width), **kw)
    return st, ds


def assert_simulates(src, env=None, ps=AB, **kw):
    st, ds = both(src, env, ps, **kw)
    assert st.status == "done", (st.stuck_rule, st.stuck_reason)
    assert ds.status == "done", ds.reason
    for p in ps:
        v, t = ds.parties[p]
        assert v == slice_value(p, st.value), p
        assert t == slice_trace(p, st.trace), p
    return st, ds


def test_public_computation_agrees_everywhere():
    st, ds = assert_simulates("(ffi add (ffi mul 3 4) 5)")
    for p in AB:
        assert ds.parties[p][0] == FfiInt(17)


def test_par_block_runs_only_for_members():
    st, ds = assert_simulates("(as_par (prins a) (lam _ (ffi add 1 2)))")
    va, ta = ds.parties["a"]
    vb, tb = ds.parties["b"]
    assert va == Sealed(A, FfiInt(3))
    assert vb == Sealed(A, OPAQUE)
    # local traces are flat: scopes only exist in the reference run
    assert ta == () and tb == ()


def test_sec_block_output_is_public_to_members():
    env = Env({"xa": Sealed(A, FfiInt(30)), "xb": Sealed(B, FfiInt(12))})
    st, ds = assert_simulates(
        "(as_sec (prins a b) (lam _ (ffi sub (reveal xa) (reveal xb))))", env)
    for p in AB:
        v, t = ds.parties[p]
        assert v == FfiInt(18)
        assert t == (TMsg(FfiInt(18)),)
    assert ds.sec_entries == 1


def test_three_parties_with_private_branches():
    env = Env({"xa": Sealed(A, FfiInt(5))})
    src = """(let y (as_par (prins a) (lam _ (ffi mul (reveal xa) 2)))
              (as_par (prins b c) (lam _ 9)))"""
    st, ds = assert_simulates(src, env, ps=ABC)
    assert ds.parties["a"][0] == Sealed(PrinSet.of("b", "c"), OPAQUE)
    assert ds.parties["b"][0] == Sealed(PrinSet.of("b", "c"), FfiInt(9))


def test_schedule_choice_does_not_change_results():
    env = Env({"xa": Sealed(A, FfiInt(3)), "xb": Sealed(B, FfiInt(8))})
    src = """(let d (as_sec (prins a b) (lam _ (ffi gt (reveal xa) (reveal xb))))
              (if d (as_par (prins a) (lam _ 1)) (as_par (prins b) (lam _ 2))))"""
    e = parse(src)
    base = ds_run(e, env, AB, sched=RoundRobin())
    for seed in range(20):
        other = ds_run(e, env, AB, sched=SeededRandom(seed))
        assert other.status == base.status
        assert other.parties == base.parties


def test_local_stuck_is_reported():
    # b holds a placeholder and tries to open it outside any joint block;
    # round robin runs a to its end (3 steps), then b two steps to its stick
    env = Env({"xa": Sealed(A, FfiInt(5))})
    st, ds = both("(reveal xa)", env)
    assert st.status == "stuck"
    assert (ds.status, ds.ticks, ds.reason) == (
        "stuck", 5, "party b stuck at reveal: b outside seal set {a}")


# a reaches a two-party block from inside its own private region; b skipped
# that region entirely and terminates, so a waits forever
DEADLOCK = "(as_par (prins a) (lam _ (as_sec (prins a b) (lam _ 1))))"


def test_joint_block_deadlock_when_partner_never_arrives():
    st, ds = both(DEADLOCK)
    assert st.status == "stuck"  # the reference machine rejects it too
    assert (ds.status, ds.ticks, ds.reason) == (
        "stuck", 14, "no enabled move: parties are waiting for partners "
        "that never arrive")


# a reaches {a,b}'s block from inside its own region, and b skips that
# region and reaches a later block over {a,b}: the two park at one party set
# with different closures, on the block's code or on its environment
DISAGREE = {
    "code": "(let r (as_par (prins a) (lam _ (as_sec (prins a b) (lam _ 1))))"
            " (as_sec (prins a b) (lam _ 2)))",
    "environment": "(let g (lam y (as_sec (prins a b) (lam _ y)))"
                   " (let r (as_par (prins a) (lam _ (g 5))) (g 6)))",
}


@pytest.mark.parametrize("backend", ["ideal", "gmw"])
@pytest.mark.parametrize("what", sorted(DISAGREE))
def test_parties_that_disagree_on_a_block_stick_on_every_backend(what,
                                                                 backend):
    st, ds = both(DISAGREE[what], backend=backend)
    assert (st.status, st.stuck_rule) == ("stuck", "sec-enter")
    assert (ds.status, ds.reason) == ("stuck", f"joint block {{a,b}}: parties "
                                      f"disagree on the block's {what}")
    e = parse(DISAGREE[what])
    rep = check_confluence(e, Env(), AB, n_schedules=5, backend=backend)
    assert (rep.status, rep.detail) == (
        "vacuous", f"all 6 schedules stuck; [rr] {ds.reason}")
    assert check_simulation(e, Env(), AB, backend=backend).status == "vacuous"


def test_parties_progress_through_independent_regions():
    src = """(let u (as_par (prins a) (lam _ (ffi add 1 1)))
              (let v (as_par (prins b) (lam _ (ffi add 2 2)))
               (as_sec (prins a b) (lam _
                 (ffi add (reveal u) (reveal v))))))"""
    st, ds = assert_simulates(src)
    assert ds.parties["a"][0] == FfiInt(6)


def test_share_handles_are_split_across_parties():
    src = "(as_sec (prins a b) (lam _ (ffi mk_sh 9)))"
    st, ds = assert_simulates(src)
    sh_a = ds.parties["a"][0]
    sh_b = ds.parties["b"][0]
    assert isinstance(sh_a, ShareVal) and isinstance(sh_b, ShareVal)
    assert sh_a.word_of("a") is not None and sh_a.word_of("b") is None
    assert sh_b.word_of("b") is not None and sh_b.word_of("a") is None
    joint = st.value
    assert joint.word_of("a") == sh_a.word_of("a")
    assert joint.word_of("b") == sh_b.word_of("b")


def test_share_round_trip_across_blocks():
    src = """(let h (as_sec (prins a b) (lam _ (ffi mk_sh 33)))
              (as_sec (prins a b) (lam _ (ffi comb_sh h))))"""
    st, ds = assert_simulates(src)
    assert ds.parties["a"][0] == FfiInt(33)


def test_map_entries_stay_local():
    src = "(mkmap (prins a b) (seal (prins a b) 5))"
    st, ds = assert_simulates(src)
    assert ds.parties["a"][0] == VMap.of({"a": FfiInt(5)})
    assert ds.parties["b"][0] == VMap.of({"b": FfiInt(5)})


def test_gmw_backend_matches_ideal():
    env = Env({"xa": Sealed(A, FfiInt(30)), "xb": Sealed(B, FfiInt(12))})
    src = """(let d (as_sec (prins a b) (lam _ (ffi gt (reveal xa) (reveal xb))))
              (as_sec (prins a b) (lam _
                (if d (reveal xa) (reveal xb)))))"""
    e = parse(src)
    ideal = ds_run(e, env, AB, rt=Runtime(0, 32), backend="ideal")
    gmw = ds_run(e, env, AB, rt=Runtime(0, 32), backend="gmw")
    assert ideal.status == gmw.status == "done"
    assert ideal.parties == gmw.parties
    assert gmw.circuits and not ideal.circuits


def test_gmw_records_compiled_circuits():
    src = """(let x (as_sec (prins a b) (lam _ (ffi mk_sh 3)))
              (as_sec (prins a b) (lam _ (ffi comb_sh x))))"""
    ds = ds_run(parse(src), Env(), AB, rt=Runtime(0, 8), backend="gmw")
    assert ds.status == "done"
    assert len(ds.circuits) == 2
    labels = [lbl for lbl, _ in ds.circuits]
    assert len(set(labels)) == 2


def test_gmw_compiles_a_repeated_mint_free_block_once():
    # history of 3 cards, none of them the dealt one: the four minting
    # blocks, the history check three times, then the reveal
    rands = {"a": 3, "b": 4, "c": 5}
    env = apps.deal_env(rands, apps.mk_handles([20, 30, 40], seed=5))
    e = apps.load_program("deal_round")
    ideal = ds_run(e, env, ABC, rt=Runtime(1, 32), backend="ideal")
    gmw = ds_run(e, env, ABC, rt=Runtime(1, 32), backend="gmw")
    assert ideal.status == gmw.status == "done"
    assert gmw.parties == ideal.parties
    circs = [c for _, c in gmw.circuits]
    assert len(circs) == 8
    assert len({id(c) for c in circs[:4]}) == 4  # the minting blocks
    assert circs[4] is circs[5] is circs[6]
    assert circs[7] is not circs[4]


PUBLIC_LOOP = """((fix f l (if (ffi is_nil l) (ffi list)
                  (ffi cons (as_sec (prins a b) (lam _
                              (ffi eq (reveal xa) (ffi hd l))))
                            (f (ffi tl l)))))
                 (ffi list 3 5))"""


def test_gmw_compiles_a_block_again_for_other_public_values():
    env = Env({"xa": Sealed(A, FfiInt(5))})
    e = parse(PUBLIC_LOOP)
    ideal = ds_run(e, env, AB, rt=Runtime(0, 32), backend="ideal")
    gmw = ds_run(e, env, AB, rt=Runtime(0, 32), backend="gmw")
    assert ideal.status == gmw.status == "done"
    assert gmw.parties == ideal.parties
    assert gmw.parties["a"][0] == FfiList((FALSE, TRUE))
    (_, c1), (_, c2) = gmw.circuits
    assert c1 is not c2


# one block entered twice, through f, with x1 and then x2 in scope
REENTER = """(let f (lam v (as_sec (prins a b c) (lam _ {body})))
               (ffi pair (f x1) (f x2)))"""
ADD_K = parse("(ffi add y k)")  # one body for both closures


def handle(ps, width=32):
    return ShareVal.of(ps, {p: 0x80000000 | i for i, p in enumerate(ps)},
                       width)


REENTRIES = {
    # name: (block body, x1, x2)
    "public int": ("(ffi add v (reveal xa))", FfiInt(3), FfiInt(4)),
    # d takes no part: both seals convert to a's input, but the block's
    # result keeps each seal's own party set
    "seal's party": ("(ffi pair v (reveal xa))", Sealed(A, FfiInt(6)),
                     Sealed(PrinSet.of("a", "d"), FfiInt(6))),
    "handle holders": ("(ffi pair v (reveal xa))", handle(ABC),
                       handle(PrinSet.of("a", "b"))),
    "list length": ("(ffi add (ffi hd v) (reveal xa))",
                    FfiList((FfiInt(1), FfiInt(2))),
                    FfiList((FfiInt(1), FfiInt(2), FfiInt(3)))),
    "bool for int": ("(ffi pair v (reveal xa))", FfiInt(1), TRUE),
    "captured value": ("(v (reveal xa))",
                       Clos(Env({"k": FfiInt(1)}), "y", ADD_K),
                       Clos(Env({"k": FfiInt(2)}), "y", ADD_K)),
}


@pytest.mark.parametrize("case", [*REENTRIES, "identical"])
def test_gmw_reuses_a_block_only_for_an_entry_that_converts_alike(case):
    # the reuse key must tell apart every value that converts differently
    if case == "identical":  # the closure, entered twice alike
        body, x1, _ = REENTRIES["captured value"]
        x2 = x1
    else:
        body, x1, x2 = REENTRIES[case]
    env = Env({"xa": Sealed(A, FfiInt(5)), "x1": x1, "x2": x2})
    e = parse(REENTER.format(body=body))
    ideal = ds_run(e, env, ABC, rt=Runtime(0, 32), backend="ideal")
    gmw = ds_run(e, env, ABC, rt=Runtime(0, 32), backend="gmw")
    assert ideal.status == gmw.status == "done", gmw.reason
    assert gmw.parties == ideal.parties
    (_, c1), (_, c2) = gmw.circuits
    assert (c1 is c2) == (case == "identical")


MINT_LOOP = """((fix f n (if (ffi eq n 0) (ffi list)
                  (ffi cons (as_sec (prins a b) (lam _
                              (ffi mk_sh (reveal xa))))
                            (f (ffi sub n 1)))))
                 3)"""


def test_gmw_compiles_a_minting_block_on_every_entry():
    env = Env({"xa": Sealed(A, FfiInt(5))})
    e = parse(MINT_LOOP)
    ideal = ds_run(e, env, AB, rt=Runtime(0, 32), backend="ideal")
    gmw = ds_run(e, env, AB, rt=Runtime(0, 32), backend="gmw")
    assert ideal.status == gmw.status == "done"
    assert gmw.parties == ideal.parties
    handles = gmw.parties["a"][0].items
    assert len(handles) == 3 and len(set(handles)) == 3
    assert len({id(c) for _, c in gmw.circuits}) == 3


def test_sched_parsing():
    assert isinstance(parse_sched("rr"), RoundRobin)
    s = parse_sched("rand:7")
    assert isinstance(s, SeededRandom)
    with pytest.raises(ValueError):
        parse_sched("alphabetical")


def test_seeded_picks_are_the_picks_of_random_choice():
    # ``pick`` inlines the draw of ``random.Random.choice``, on which every
    # schedule pin rests
    for seed in (0, 1, 7):
        sched, ref = SeededRandom(seed), random.Random(f"sched|{seed}")
        for n in range(1, 41):
            moves = tuple(range(n))
            for _ in range(300):
                assert sched.pick(moves) == ref.choice(moves)


def test_check_simulation_passes_on_good_program():
    env = Env({"xa": Sealed(A, FfiInt(4)), "xb": Sealed(B, FfiInt(9))})
    e = parse("(as_sec (prins a b) (lam _ (ffi lt (reveal xa) (reveal xb))))")
    rep = check_simulation(e, env, AB)
    assert rep.status == "pass", rep.detail


def test_check_simulation_vacuous_on_stuck_program():
    env = Env({"xa": Sealed(A, FfiInt(4))})
    rep = check_simulation(parse("(reveal xa)"), env, AB)
    assert rep.status == "vacuous"


def test_check_simulation_inconclusive_on_fuel():
    rep = check_simulation(parse("((fix f n (f n)) 0)"), Env(), AB, fuel=200)
    assert rep.status == "inconclusive"


# 19 reference steps, 57 ticks over three parties
THREE_LETS = "(let x (ffi add 1 2) (let y (ffi add x 3) (ffi add y x)))"


def test_check_simulation_inconclusive_when_only_ds_runs_out_of_fuel():
    e = parse(THREE_LETS)
    assert st_run(e, Env(), ABC, fuel=20).status == "done"
    rep = check_simulation(e, Env(), ABC, fuel=20)
    assert (rep.status, rep.detail) == (
        "inconclusive", "[rr] distributed run ran out of fuel: "
        "no result within 20 ticks")
    # the label replays the schedule
    assert ds_run(e, Env(), ABC, sched=parse_sched("rr"),
                  fuel=20).status == "fuel"
    assert check_simulation(e, Env(), ABC, fuel=58).status == "pass"


def test_fuel_counts_ticks():
    # 57 ticks need exactly 57 units of fuel: the last tick ends the run
    e = parse(THREE_LETS)
    res = ds_run(e, Env(), ABC, fuel=57)
    assert (res.status, res.ticks) == ("done", 57)
    assert ds_run(e, Env(), ABC, fuel=56).status == "fuel"
    assert check_simulation(e, Env(), ABC, fuel=57).status == "pass"
    rep = check_simulation(e, Env(), ABC, fuel=56)
    assert (rep.status, rep.detail) == (
        "inconclusive", "[rr] distributed run ran out of fuel: "
        "no result within 56 ticks")


def test_ds_run_refuses_an_unknown_backend():
    with pytest.raises(ValueError, match="^unknown backend 'yao'$"):
        ds_run(parse("(ffi add 1 2)"), Env(), AB, backend="yao")


def test_check_simulation_refuses_an_empty_schedule_list():
    with pytest.raises(ValueError, match="schedules must be at least 1"):
        check_simulation(parse("(ffi add 1 2)"), Env(), AB, n_schedules=0)


def test_check_confluence_passes():
    env = Env({"xa": Sealed(A, FfiInt(4)), "xb": Sealed(B, FfiInt(9))})
    src = """(let u (as_par (prins a) (lam _ (reveal xa)))
              (as_sec (prins a b) (lam _ (ffi add (reveal u) (reveal xb)))))"""
    rep = check_confluence(parse(src), env, AB, n_schedules=25)
    assert rep.status == "pass", rep.detail


def test_check_confluence_is_vacuous_when_every_schedule_sticks():
    env = Env({"xa": Sealed(A, FfiInt(4))})
    e = parse("(as_sec (prins a b) (lam _ (reveal xb)))")
    rep = check_confluence(e, env, AB, n_schedules=3)
    assert (rep.status, rep.detail) == (
        "vacuous", "all 4 schedules stuck; [rr] joint block {a,b} stuck at "
        "var: unbound variable xb")


def test_check_confluence_fails_when_only_some_schedules_stick(monkeypatch):
    # round robin runs without xb and sticks; a seeded schedule that is
    # given xb finishes, and the check must not call that vacuous
    e = parse("(as_sec (prins a b) (lam _ (reveal xb)))")
    run = ds.ds_run

    def ds_run_with_xb(e, env, ps, rt, sched, *rest):
        if type(sched) is not RoundRobin:
            env = env.extend("xb", Sealed(B, FfiInt(9)))
        return run(e, env, ps, rt, sched, *rest)

    monkeypatch.setattr(ds, "ds_run", ds_run_with_xb)
    rep = check_confluence(e, Env(), AB, n_schedules=3)
    assert rep.status == "fail", rep.detail
    assert rep.detail.startswith(
        "[rand:0] distributed run done, expected stuck")


def test_check_simulation_covers_gmw_backend():
    env = Env({"xa": Sealed(A, FfiInt(4)), "xb": Sealed(B, FfiInt(9))})
    e = parse("(as_sec (prins a b) (lam _ (ffi add (reveal xa) (reveal xb))))")
    rep = check_simulation(e, env, AB, backend="gmw")
    assert rep.status == "pass", rep.detail


def test_gmw_rejects_ops_without_a_lowering():
    # multiplication has no circuit translation, so the secure backend
    # refuses it while the ideal backend computes it directly
    env = Env({"xa": Sealed(A, FfiInt(4)), "xb": Sealed(B, FfiInt(9))})
    e = parse("(as_sec (prins a b) (lam _ (ffi mul (reveal xa) (reveal xb))))")
    ideal = ds_run(e, env, AB, backend="ideal")
    assert ideal.status == "done"
    assert ideal.parties["a"][0] == FfiInt(36)
    gmw = ds_run(e, env, AB, backend="gmw")
    assert gmw.status == "stuck"
    assert "mul" in gmw.reason


def test_ds_fuel_exhaustion():
    ds = ds_run(parse("((fix f n (f n)) 0)"), Env(), AB, fuel=100)
    assert ds.status == "fuel"


@pytest.mark.parametrize("backend", ["ideal", "gmw"])
def test_a_party_that_loops_locally_stops_at_the_fuel(backend):
    # a local move runs its party until it parks, one tick a step; a party
    # that never parks is stopped by the fuel
    e = parse("((fix f n (f n)) 0)")
    for fuel in (1, 2, 3, 100, 1001):
        res = ds_run(e, Env(), AB, fuel=fuel, backend=backend)
        assert (res.status, res.ticks) == ("fuel", fuel)
        # a lone party takes exactly the reference machine's first steps
        alone = ds_run(e, Env(), A, fuel=fuel, backend=backend)
        assert alone.par["a"] == st_run(e, Env(), A, fuel=fuel).config


def joint_block(body):
    return parse(f"(as_sec (prins a b) (lam _ {body}))")


def test_a_long_ideal_block_stops_at_the_fuel():
    # an ideal block runs to its value in one sec-step move, one tick a
    # joint step, and the fuel stops it within that move
    body = "(reveal x)"
    for _ in range(100):
        body = f"(ffi add 1 {body})"
    e, env = joint_block(body), Env({"x": Sealed(A, FfiInt(5))})
    rec = Recording(RoundRobin())
    done = ds_run(e, env, AB, sched=rec)
    assert done.status == "done" and done.parties["a"][0] == FfiInt(105)
    assert [kind for kind, _ in rec.picked].count("sec-step") == 1
    assert ds_run(e, env, AB, fuel=done.ticks).status == "done"
    for fuel in (done.ticks // 2, done.ticks - 2, done.ticks - 1):
        res = ds_run(e, env, AB, fuel=fuel)
        assert (res.status, res.ticks) == ("fuel", fuel)
    loop = joint_block("((fix f n (f n)) 0)")
    for fuel in (10, 1000):
        res = ds_run(loop, Env(), AB, fuel=fuel)
        assert (res.status, res.ticks) == ("fuel", fuel)


def test_no_joint_step_is_taken_after_the_last_tick():
    # a and b take 4 local steps each to park, the entry is tick 9, and the
    # joint machine's third step, tick 12, calls mk_sh: with less fuel the
    # mint draws nothing
    e = joint_block("(ffi mk_sh 5)")
    drawn = []
    for fuel in range(14):
        rt = Runtime(0, 32)
        ds_run(e, Env(), AB, rt, fuel=fuel)
        drawn.append(bool(rt.mint._counters))
    assert drawn == [False] * 12 + [True] * 2


def test_a_block_that_would_stick_after_the_last_tick_runs_out_of_fuel():
    # the step that sticks is not a tick, and no step is taken after the
    # last one: with exactly the ticks before the stick the run is ``fuel``
    e = joint_block("(ffi add 1 (reveal y))")
    stuck = ds_run(e, Env(), AB)
    assert stuck.reason == "joint block {a,b} stuck at var: unbound variable y"
    assert ds_run(e, Env(), AB, fuel=stuck.ticks + 1).ticks == stuck.ticks
    res = ds_run(e, Env(), AB, fuel=stuck.ticks)
    assert (res.status, res.ticks) == ("fuel", stuck.ticks)


def test_deep_block_runs_do_not_depend_on_run_order():
    # equal trees from fresh parses once clashed in a structural cache, and
    # a GMW compile left the process-wide recursion limit raised
    body = "(reveal x)"
    for _ in range(300):
        body = f"(ffi add 1 {body})"
    src = f"(as_sec (prins a b) (lam _ {body}))"
    env = Env({"x": Sealed(A, FfiInt(5))})
    limit = sys.getrecursionlimit()
    for backend in ("ideal", "ideal", "gmw", "ideal"):
        res = ds_run(parse(src), env, AB, backend=backend)
        assert res.status == "done", (backend, res.reason)
        assert res.parties["a"][0] == FfiInt(305)
        assert sys.getrecursionlimit() == limit


# ---------------------------------------------------------------------------
# the step cache and the canonical move order

class Recording:
    """Hands each pick to ``inner`` and keeps every move list and pick."""

    def __init__(self, inner):
        self.inner = inner
        self.offered = []
        self.picked = []

    def pick(self, moves):
        self.offered.append(list(moves))
        move = self.inner.pick(moves)
        self.picked.append(move)
        return move


def schedules(n_random):
    return [sched for _, sched in ds.schedules(n_random)]


def record_party_steps(monkeypatch) -> list:
    """Record every step ``ds_run`` takes on a party machine: a call of
    ``st._plug`` or ``st._descend`` outside a joint block, from
    ``machine_step`` or from ``run_to_park``. Each entry is the step
    function, its arguments and the registers it reads; a plug reads no
    mode or environment. Entries hold their objects, so no id is reused
    within a run."""
    seen = []

    def plug(stack, trace, v, rt, party):
        if party is not None:  # not the ideal backend's joint machine
            seen.append((_plug, (stack, trace, v, rt, party),
                         (stack, trace, v)))
        return _plug(stack, trace, v, rt, party)

    def descend(mode, stack, env, trace, e, rt):
        if mode.tag == PAR:  # a joint machine runs in a sec mode
            seen.append((_descend, (mode, stack, env, trace, e, rt),
                         (mode, stack, env, trace, e)))
        return _descend(mode, stack, env, trace, e, rt)

    monkeypatch.setattr(st, "_plug", plug)
    monkeypatch.setattr(st, "_descend", descend)
    return seen


def test_local_steps_are_pure_on_every_corpus_config(monkeypatch):
    # ds_run steps each party config once and reuses the result until the
    # config changes; that is sound only if a local step is a function of
    # its config and never draws from the share mint
    seen = record_party_steps(monkeypatch)
    for cell, backend in itertools.product(apps.corpus(), ("ideal", "gmw")):
        rt = Runtime(0, 32)
        seen.clear()
        res = ds_run(apps.load_program(cell.program), cell.env, cell.ps, rt,
                     backend=backend)
        assert res.status == "done", (cell.name, backend, res.reason)
        assert seen, cell.name
        drawn = dict(rt.mint._counters)
        for fn, args, _ in seen:
            assert fn(*args) == fn(*args), cell.name
        assert rt.mint._counters == drawn, cell.name


# the number of party steps over every corpus run below, and the sha256 of
# each run's own count, in run order
STEP_COUNT_DIGEST = (59916, "7e9a6452a338eda2")


def test_each_party_config_is_stepped_once(monkeypatch):
    # ds_run steps a party's configuration once, when it is new, and keeps
    # the result until the party moves; no configuration is stepped twice
    seen = record_party_steps(monkeypatch)
    counts = []
    for cell, backend in itertools.product(apps.corpus(), ("ideal", "gmw")):
        e = apps.load_program(cell.program)
        for label, sched in ds.schedules(5):
            seen.clear()
            res = ds_run(e, cell.env, cell.ps, Runtime(0, 32), sched, backend)
            assert res.status == "done", (cell.name, backend, label)
            keys = {tuple(map(id, regs)) for _, _, regs in seen}
            assert len(keys) == len(seen), (cell.name, backend, label)
            counts.append((cell.name, backend, label, len(seen)))
    digest = hashlib.sha256(repr(counts).encode()).hexdigest()[:16]
    assert (sum(n for *_, n in counts), digest) == STEP_COUNT_DIGEST


def test_share_minted_outside_a_block_is_stuck_and_draws_nothing():
    rt = Runtime(0, 32)
    res = ds_run(parse("(ffi mk_sh 1)"), Env(), AB, rt)
    assert res.status == "stuck"
    assert "ModeError" in res.reason
    assert rt.mint._counters == {}


# Two joint blocks in flight, or ready to enter, at once. In "prefixed" the
# block {ab,c} sorts before {a}, though a is the first party.
CONCURRENT = {
    "four": (PrinSet.of("a", "b", "c", "d"), """
(let x (as_par (prins a b) (lam _
         (as_sec (prins a b) (lam _ (ffi add (reveal xa) (reveal xb))))))
 (let y (as_par (prins c d) (lam _
          (as_sec (prins c d) (lam _ (ffi sub (reveal xd) (reveal xc))))))
  (as_sec (prins a b c d) (lam _ (ffi add (reveal x) (reveal y))))))"""),
    "prefixed": (PrinSet.of("a", "ab", "c"), """
(let x (as_par (prins a) (lam _ (let t (reveal xa)
         (as_sec (prins a) (lam _ (ffi add t 1))))))
 (let y (as_par (prins ab c) (lam _
          (as_sec (prins ab c) (lam _ (ffi add (reveal xab) (reveal xc))))))
  (as_sec (prins a ab c) (lam _ (ffi add (reveal x) (reveal y))))))"""),
    # each block draws from its own set's mask stream, whatever the order
    "minting": (PrinSet.of("a", "b", "c", "d"), """
(let x (as_par (prins a b) (lam _
         (as_sec (prins a b) (lam _
           (ffi mk_sh (ffi add (reveal xa) (reveal xb)))))))
 (let y (as_par (prins c d) (lam _
          (as_sec (prins c d) (lam _
            (ffi mk_sh (ffi add (reveal xc) (reveal xd)))))))
  (ffi pair x y)))"""),
}


def concurrent_env(ps):
    return Env({f"x{p}": Sealed(PrinSet.of(p), FfiInt(n))
                for n, p in enumerate(ps, 3)})


def schedule_digests(e, env, ps, width, n_random):
    """Over round robin and ``n_random`` seeded schedules on both backends:
    the pinned aspects of every run (its status, values and traces, its
    stuck reason, its ticks and its picked moves), every move list offered,
    and the tick counts of each backend's ``done`` runs."""
    runs, offered = Digests(), Digests()
    ticks = {}
    for backend in ("ideal", "gmw"):
        for sched in schedules(n_random):
            rec = Recording(sched)
            res = ds_run(e, env, ps, Runtime(0, width), rec, backend)
            runs.update("result", (res.status, sorted(res.parties.items())))
            runs.update("reason", res.reason)
            runs.update("cost", res.ticks)
            runs.update("schedule", [f"{kind} {target}"
                                     for kind, target in rec.picked])
            offered.update("schedule", [[f"{kind} {target}"
                                         for kind, target in moves]
                                        for moves in rec.offered])
            if res.status == "done":
                ticks.setdefault(backend, set()).add(res.ticks)
    return runs.table(), offered.table(), ticks


@functools.cache
def corpus_schedule_digests() -> dict[str, tuple[dict, dict, dict]]:
    out = {}
    for cell in apps.corpus():
        out[cell.name] = schedule_digests(apps.load_program(cell.program),
                                          cell.env, cell.ps, 32, 6)
    for name, (ps, src) in CONCURRENT.items():
        out[f"concurrent/{name}"] = schedule_digests(
            parse(src), concurrent_env(ps), ps, 32, 40)
    return out


SCHEDULE_DIGESTS = {
    "median/low": {
        "result": "d5eade30509f0082", "reason": "c2a31b17986f86c5",
        "cost": "adb8c56987c3bbbd", "schedule": "b7e283deaab71abd"},
    "median/high": {
        "result": "ef4c179d22b3a83d", "reason": "c2a31b17986f86c5",
        "cost": "adb8c56987c3bbbd", "schedule": "b7e283deaab71abd"},
    "median_opt/low": {
        "result": "e6e8d3789d02df6d", "reason": "c2a31b17986f86c5",
        "cost": "e59e4a1f2932102f", "schedule": "a36adcf60ba28437"},
    "median_opt/high": {
        "result": "b2af4a9820321113", "reason": "c2a31b17986f86c5",
        "cost": "e59e4a1f2932102f", "schedule": "a36adcf60ba28437"},
    "psi/overlap": {
        "result": "79a44c82c353cae6", "reason": "c2a31b17986f86c5",
        "cost": "1ad1614cc6fa18ae", "schedule": "b7e283deaab71abd"},
    "psi/disjoint": {
        "result": "4542afe95c032111", "reason": "c2a31b17986f86c5",
        "cost": "1ad1614cc6fa18ae", "schedule": "b7e283deaab71abd"},
    "psi/empty": {
        "result": "4542afe95c032111", "reason": "c2a31b17986f86c5",
        "cost": "1ad1614cc6fa18ae", "schedule": "b7e283deaab71abd"},
    "psi_interim/overlap": {
        "result": "f3a2b0c9fea1877f", "reason": "c2a31b17986f86c5",
        "cost": "79e5070e42898155", "schedule": "10884e02f77258db"},
    "psi_interim/empty": {
        "result": "6ac5a8808f6a09b5", "reason": "c2a31b17986f86c5",
        "cost": "91e8c6fdea77309c", "schedule": "62902bf79470cb8a"},
    "psi_opt/overlap": {
        "result": "36c94c5c88ae0a93", "reason": "c2a31b17986f86c5",
        "cost": "192c18fa447f635a", "schedule": "f66c4120ce61c7fb"},
    "psi_opt/dup": {
        "result": "9d2892cc56c9db56", "reason": "c2a31b17986f86c5",
        "cost": "909a6d7ce21829e0", "schedule": "6a9214b7a541f9f0"},
    "check_fresh/hit": {
        "result": "3dd39360f98ca079", "reason": "c2a31b17986f86c5",
        "cost": "40a6d35302d1f9db", "schedule": "e3159c21b28b3bd8"},
    "check_fresh/miss": {
        "result": "4c32c72b24a3c1db", "reason": "c2a31b17986f86c5",
        "cost": "5f623a2ebfb65e3f", "schedule": "45fd3591938cf494"},
    "check_fresh/empty": {
        "result": "9768a28df876a3ad", "reason": "c2a31b17986f86c5",
        "cost": "9c143090c94cb1c1", "schedule": "957d0e8ebcd7b1f4"},
    "deal/empty-51": {
        "result": "a77d0744101a2c33", "reason": "c2a31b17986f86c5",
        "cost": "0cce9d71cc8152a9", "schedule": "cabda54a9a689a0f"},
    "deal/fresh": {
        "result": "610d6b67fea026c1", "reason": "c2a31b17986f86c5",
        "cost": "d222bcb38a18a2ab", "schedule": "14efcf9c8270315b"},
    "deal/repeat": {
        "result": "fb425787f37e8525", "reason": "c2a31b17986f86c5",
        "cost": "3b747937e2ccd1d9", "schedule": "cabda54a9a689a0f"},
    "concurrent/four": {
        "result": "327aab5273bb486e", "reason": "43f243f75ff48bf7",
        "cost": "6349a0bcd27c3b65", "schedule": "7938556a84503b76"},
    "concurrent/prefixed": {
        "result": "3830eda3c368638a", "reason": "43f243f75ff48bf7",
        "cost": "4a5293c30f918513", "schedule": "126e224588cc447f"},
    "concurrent/minting": {
        "result": "45389d5e82e01ed7", "reason": "43f243f75ff48bf7",
        "cost": "6cb77d9b0aae6078", "schedule": "c17784a869c390cf"},
}


def test_schedules_are_pinned():
    assert_pinned({name: runs for name, (runs, _, _)
                   in corpus_schedule_digests().items()}, SCHEDULE_DIGESTS)


OFFERED_DIGESTS = {
    "median/low": {
        "schedule": "c00cd01324968102"},
    "median/high": {
        "schedule": "c00cd01324968102"},
    "median_opt/low": {
        "schedule": "2987ad569bb72199"},
    "median_opt/high": {
        "schedule": "2987ad569bb72199"},
    "psi/overlap": {
        "schedule": "c00cd01324968102"},
    "psi/disjoint": {
        "schedule": "c00cd01324968102"},
    "psi/empty": {
        "schedule": "c00cd01324968102"},
    "psi_interim/overlap": {
        "schedule": "7aee1e8a191840e3"},
    "psi_interim/empty": {
        "schedule": "5f21d938a106a0f0"},
    "psi_opt/overlap": {
        "schedule": "6030f425a2864f2a"},
    "psi_opt/dup": {
        "schedule": "f946a0f38aa6166f"},
    "check_fresh/hit": {
        "schedule": "110a147fd73f310c"},
    "check_fresh/miss": {
        "schedule": "9318997d8f284724"},
    "check_fresh/empty": {
        "schedule": "4ad382280af2442e"},
    "deal/empty-51": {
        "schedule": "d6a4a2c9fae0ba53"},
    "deal/fresh": {
        "schedule": "a732798751873be5"},
    "deal/repeat": {
        "schedule": "d6a4a2c9fae0ba53"},
    "concurrent/four": {
        "schedule": "4e7fba3a700d6134"},
    "concurrent/prefixed": {
        "schedule": "278e6fa450197fd4"},
    "concurrent/minting": {
        "schedule": "da69a9bb970a1a92"},
}


def test_offered_moves_are_pinned():
    assert_pinned({name: offered for name, (_, offered, _)
                   in corpus_schedule_digests().items()}, OFFERED_DIGESTS)


def test_a_done_runs_ticks_do_not_depend_on_the_schedule():
    # each party step, block entry, joint step and exit is one tick, and a
    # done run takes every one of them whatever the order
    groups = {(name, backend): ticks
              for name, (_, _, by_backend) in corpus_schedule_digests().items()
              for backend, ticks in by_backend.items()}
    assert len(groups) == 2 * len(corpus_schedule_digests())
    assert {k: t for k, t in groups.items() if len(t) != 1} == {}


# Runs that stick. Generated programs run to completion on a and b; with a
# bystander c most stick at c's first joint block or reveal, and three stick
# under GMW at a multiplication.
STUCK_SEEDS_ABC = (2, 7, 9, 11, 13, 17, 21, 24, 27, 36, 41)
STUCK_SEEDS_GMW = (98, 201, 319)


def stuck_cases():
    yield ("local", parse("(reveal xa)"),
           Env({"xa": Sealed(A, FfiInt(5))}), AB, ("ideal", "gmw"))
    yield "deadlock", parse(DEADLOCK), Env(), AB, ("ideal", "gmw")
    for seed in STUCK_SEEDS_ABC:
        yield (f"proggen/{seed}", gen_program(seed), base_env(), ABC,
               ("ideal", "gmw"))
    for seed in STUCK_SEEDS_GMW:
        yield f"proggen-gmw/{seed}", gen_program(seed), base_env(), AB, ("gmw",)


STUCK_DIGESTS = {
    "local": {
        "result": "09ce2ab7e46dba53", "reason": "e36c52aab9449665",
        "cost": "2e59f86102248424"},
    "deadlock": {
        "result": "09ce2ab7e46dba53", "reason": "578c01beb1d44e54",
        "cost": "bd05263dca927869"},
    "proggen/2": {
        "result": "09ce2ab7e46dba53", "reason": "8b920727758b32a8",
        "cost": "f330ec6dd589867d"},
    "proggen/7": {
        "result": "09ce2ab7e46dba53", "reason": "8b920727758b32a8",
        "cost": "3a842af122cc8e1b"},
    "proggen/9": {
        "result": "09ce2ab7e46dba53", "reason": "8b920727758b32a8",
        "cost": "73585e84310ed1b5"},
    "proggen/11": {
        "result": "09ce2ab7e46dba53", "reason": "90eecf040d71add6",
        "cost": "52d2a0aa75cf3f8d"},
    "proggen/13": {
        "result": "09ce2ab7e46dba53", "reason": "8b920727758b32a8",
        "cost": "cfe54937e24f44be"},
    "proggen/17": {
        "result": "09ce2ab7e46dba53", "reason": "8b920727758b32a8",
        "cost": "a2250910606e3432"},
    "proggen/21": {
        "result": "09ce2ab7e46dba53", "reason": "90eecf040d71add6",
        "cost": "d0bb5d6e8ec1cf6c"},
    "proggen/24": {
        "result": "09ce2ab7e46dba53", "reason": "8b920727758b32a8",
        "cost": "3b883b80cb8e6906"},
    "proggen/27": {
        "result": "09ce2ab7e46dba53", "reason": "8b920727758b32a8",
        "cost": "75a22b2f4acc2ae7"},
    "proggen/36": {
        "result": "09ce2ab7e46dba53", "reason": "8b920727758b32a8",
        "cost": "73585e84310ed1b5"},
    "proggen/41": {
        "result": "09ce2ab7e46dba53", "reason": "8b920727758b32a8",
        "cost": "7c243be6d18c893e"},
    "proggen-gmw/98": {
        "result": "2d8ee11df1141525", "reason": "125f4d2fd8cc21bc",
        "cost": "0cf1a043aac275e1"},
    "proggen-gmw/201": {
        "result": "2d8ee11df1141525", "reason": "125f4d2fd8cc21bc",
        "cost": "0cf1a043aac275e1"},
    "proggen-gmw/319": {
        "result": "2d8ee11df1141525", "reason": "125f4d2fd8cc21bc",
        "cost": "4ad434dcbb0be38a"},
}


def test_stuck_runs_are_pinned():
    # the tick, the party and the reason of every stuck run, under round
    # robin and 20 seeded schedules
    got = {}
    for name, e, env, ps, backends in stuck_cases():
        d = Digests()
        for backend in backends:
            for sched in schedules(20):
                res = ds_run(e, env, ps, Runtime(0, 32), sched, backend)
                assert res.status == "stuck", (name, backend, res.status)
                d.update("result", res.status)
                d.update("reason", res.reason)
                d.update("cost", res.ticks)
        got[name] = d.table()
    assert_pinned(got, STUCK_DIGESTS)


KIND_ORDER = {"exit": 0, "sec-step": 1, "enter": 2, "local": 3}


@pytest.mark.parametrize("name", CONCURRENT)
def test_moves_arrive_in_canonical_order(name):
    ps, src = CONCURRENT[name]
    e, env = parse(src), concurrent_env(ps)
    want = st_run(e, env, ps).value
    together = set()  # kinds seen with two or more joint blocks in one list
    for backend in ("ideal", "gmw"):
        for sched in schedules(40):
            rec = Recording(sched)
            res = ds_run(e, env, ps, Runtime(0, 32), rec, backend)
            assert res.status == "done", res.reason
            for p in ps:
                assert res.parties[p][0] == slice_value(p, want)
            for moves, move in zip(rec.offered, rec.picked):
                keys = [(KIND_ORDER[kind], str(t)) for kind, t in moves]
                assert keys == sorted(keys), moves
                assert move in moves
                joint = [kind for kind, _ in moves if kind != "local"]
                if joint.count("enter") > 1:
                    together.add("enter")
                if len(joint) - joint.count("enter") > 1:
                    together.add("in flight")
    assert together == {"enter", "in flight"}


def park_runs():
    """(name, program, env, parties, backend, n_random): every corpus cell,
    concurrent program and stuck case, under round robin and seeded
    schedules."""
    for cell in apps.corpus():
        for backend in ("ideal", "gmw"):
            yield (cell.name, apps.load_program(cell.program), cell.env,
                   cell.ps, backend, 6)
    for name, (ps, src) in CONCURRENT.items():
        for backend in ("ideal", "gmw"):
            yield name, parse(src), concurrent_env(ps), ps, backend, 40
    for name, e, env, ps, backends in stuck_cases():
        for backend in backends:
            yield name, e, env, ps, backend, 6


def test_a_local_pick_runs_its_party_to_a_park_point():
    # after a ``local`` pick the party has parked at a block, stuck or
    # ended, so the next move list offers it no local move; a run whose
    # last pick is local ended on it, or on a party's stick
    picks = 0
    for name, e, env, ps, backend, n in park_runs():
        for sched in schedules(n):
            rec = Recording(sched)
            res = ds_run(e, env, ps, Runtime(0, 32), rec, backend)
            for move, after in zip(rec.picked, rec.offered[1:]):
                if move[0] == "local":
                    assert move not in after, (name, backend, move)
                    picks += 1
            assert res.status in ("done", "stuck"), (name, backend)
    assert picks > 1000


def test_a_failing_schedule_replays_from_its_label(monkeypatch):
    # A mint that counts handles over every party set, not per set, makes a
    # block's masks depend on which concurrent block minted first. Round
    # robin passes; a seeded schedule shows it, under a label that
    # ``parse_sched`` reads back.
    def draw_masks(self, ps, width):
        idx = self._counters.get(None, 0)
        self._counters[None] = idx + 1
        return {p: self._mask(ps, idx, p, width) for p in ps.names[:-1]}

    monkeypatch.setattr(ShareMint, "draw_masks", draw_masks)
    ps, src = CONCURRENT["minting"]
    e, env = parse(src), concurrent_env(ps)
    rep = check_confluence(e, env, ps)
    assert rep.status == "fail", rep.detail
    label, p = re.match(r"\[(rand:\d+)\] (\w+): results differ",
                        rep.detail).groups()
    base = ds_run(e, env, ps, Runtime(0, 32), parse_sched("rr"))
    again = ds_run(e, env, ps, Runtime(0, 32), parse_sched(label))
    assert base.par[p] != again.par[p]
    assert rep.detail == f"[{label}] " + ds._config_diff(p, base.par[p],
                                                          again.par[p])


# A party's ``done`` registers (mode, stack, env, trace, code), and for each
# register but the stack, which is empty in every state the checkers
# compare, another value of it and the message that names it first.
DONE_REGS = (Mode(PAR, A), (), Env({"x": FfiInt(1)}), (TMsg(FfiInt(2)),),
             FfiInt(3))
CHANGED = {
    "mode": (0, Mode(PAR, B),
             "a: modes differ: Mode(tag='par', ps=PrinSet(names=('a',))) vs "
             "Mode(tag='par', ps=PrinSet(names=('b',)))"),
    "env": (2, Env({"x": FfiInt(4)}),
            "a: environments differ: Env(x=FfiInt(n=1)) vs "
            "Env(x=FfiInt(n=4))"),
    "trace": (3, (), "a: traces differ: (TMsg(v=FfiInt(n=2)),) vs ()"),
    "code": (4, FfiInt(5), "a: results differ: FfiInt(n=3) vs FfiInt(n=5)"),
}


@pytest.mark.parametrize("register", CHANGED)
def test_config_diff_names_the_register_that_differs(register):
    i, other, message = CHANGED[register]
    changed = DONE_REGS[:i] + (other,) + DONE_REGS[i + 1:]
    assert ds._config_diff("a", DONE_REGS, changed) == message
