"""Distributed interpreter: one local machine per party plus joint blocks.

Each party runs the shared small-step machine over its own view of the
data. Parties interleave under a pluggable scheduler; a picked party runs
until it parks at a joint block, sticks or ends. When every member of a set
is parked at the same joint block, the protocol combines their views and
runs the block jointly, either on an ideal machine (the reference stepper
in joint mode) or by compiling to gates and executing the xor-share
protocol; a block whose members disagree on its code or environment sticks.
A finished block is kept until its exit move as each member's view: its
slice of the joint value, or under GMW its decoded output. On exit every
member receives its view and a message trace entry.

Two checkers live here: one replays a program on the reference machine and
on the distributed machines and demands the sliced final states coincide,
the other replays the distributed run under many schedules and demands the
final states agree with each other.
"""

from __future__ import annotations

import random
from typing import Optional, Union

from .circuit import (
    CircuitError, Circuit, bind_inputs, compile_sec_thunk, decode_output,
)
from .gmw import gmw_eval
from .lang import (
    Clos, CombineConflict, Env, Expr, Mode, PAR, PrinSet, Regs, SEC, TMsg,
    Trace, UNIT, Value, combine_envs, record, slice_config, slice_env,
    slice_value,
)
from .st import (
    DEFAULT_FUEL, DONE, CheckReport, NeedsSec, Runtime, machine_step,
    machine_step as st_step, run as st_run, run_to_park,
)


# ---------------------------------------------------------------------------
# schedulers
#
# ``ds_run`` hands ``pick`` the enabled moves in canonical order: every
# ``exit``, then every ``sec-step``, then every ``enter``, then every
# ``local`` move, each kind sorted by ``str(target)``. ``pick`` returns one
# of them. The list is built anew for every pick. A ``local`` move runs its
# party to its next park point and an ideal ``sec-step`` runs its block to
# its value, so one pick may take many ticks.

class RoundRobin:
    """Deterministic baseline: joint work first, then parties in rotation."""

    def __init__(self):
        self._i = 0

    def pick(self, moves):
        if moves[0][0] != "local":
            return moves[0]
        pick = moves[self._i % len(moves)]
        self._i += 1
        return pick


class SeededRandom:
    """Uniform choice among all enabled moves, reproducible from the seed."""

    def __init__(self, seed: int):
        self.seed = seed
        self._bits = random.Random(f"sched|{seed}").getrandbits

    def pick(self, moves):
        # ``random.Random.choice``'s own draw, inline: the same picks
        n = len(moves)
        k = n.bit_length()
        r = self._bits(k)
        while r >= n:
            r = self._bits(k)
        return moves[r]


def parse_sched(text: str):
    if text == "rr":
        return RoundRobin()
    if text.startswith("rand:"):
        try:
            return SeededRandom(int(text[5:]))
        except ValueError:
            pass
    raise ValueError(f"unknown scheduler {text!r} (use rr or rand:SEED)")


# ---------------------------------------------------------------------------
# the distributed run

@record
class DsResult:
    status: str  # done | stuck | fuel
    parties: dict[str, tuple[Optional[Value], Trace]]
    par: dict[str, Regs]  # the registers each party's machine ended in
    ticks: int
    reason: Optional[str] = None
    sec_entries: int = 0
    # every GMW block entry in order, as "{ps}#{index}" and its circuit; a
    # block that mints nothing is compiled once per run, so one circuit
    # object may appear under several labels
    circuits: tuple[tuple[str, "Circuit"], ...] = ()


def ds_run(e: Expr, env: Env, ps: PrinSet, rt: Optional[Runtime] = None,
           sched=None, backend: str = "ideal",
           fuel: int = DEFAULT_FUEL) -> DsResult:
    if not isinstance(e, Expr):
        raise TypeError(f"a program is an Expr, not {type(e).__name__}")
    if rt is None:
        rt = Runtime()
    if sched is None:
        sched = RoundRobin()
    if backend not in ("ideal", "gmw"):
        raise ValueError(f"unknown backend {backend!r}")
    if fuel < 0:
        raise ValueError(f"fuel must be at least 0, got {fuel}")

    par: dict[str, Regs] = {
        p: (Mode(PAR, PrinSet.of(p)), (), slice_env(p, env), (), e)
        for p in ps
    }
    # running blocks, and finished ones until their exit move as each
    # member's view (its slice of the joint value, or its GMW output). A
    # running block under the ideal backend is the joint machine's
    # registers; under GMW it is the (circuit, input words, seed label) it
    # was entered with. Either runs to its value on its one sec-step move,
    # unless the fuel runs out first.
    sec: dict[PrinSet, Union[Regs, tuple[Circuit, dict, str]]] = {}
    finished: dict[PrinSet, dict[str, Value]] = {}
    entries: dict[PrinSet, int] = {}  # block entries per set, so far
    circuits: list[tuple[str, Circuit]] = []
    compiled: dict = {}  # circuits to reuse (``compile_sec_thunk``)

    def finish(status: str, ticks: int, reason: Optional[str] = None) -> DsResult:
        parties = {p: (r[4] if steps[p] is DONE else None, r[3])
                   for p, r in par.items()}
        return DsResult(status, parties, dict(par), ticks, reason,
                        sum(entries.values()), tuple(circuits))

    # One step result per party, always that of ``par[p]``: computed at the
    # start, after each of its local steps and after a block's exit; DONE
    # marks a party that has ended, and None a state the fuel ran out in.
    # Keeping it across ticks is sound because a local step depends only on
    # the state: party machines stay in PAR mode, ``exec_ffi`` is pure, and
    # ``mk_sh``/``comb_sh`` raise ModeError outside a joint block before
    # they touch ``rt.mint``. For the same reason a party's local steps
    # commute with every other move, so a ``local`` move takes them all, up
    # to its next park point, as one pick.
    steps = {p: machine_step(r, rt, p) for p, r in par.items()}

    tick = 0  # each party step, block entry, joint step and exit is a tick
    while tick < fuel:
        locals_ = []
        waiting: dict[PrinSet, int] = {}  # parties parked at each block
        for p in ps:
            out = steps[p]
            if type(out) is tuple:
                locals_.append(("local", p))
            elif type(out) is NeedsSec:
                if out.ps not in sec and out.ps not in finished:
                    waiting[out.ps] = waiting.get(out.ps, 0) + 1
            elif out is not DONE:  # Stuck
                return finish("stuck", tick,
                              f"party {p} stuck at {out.rule}: {out.reason}")
        # canonical order: exit, sec-step, enter, local, each by
        # str(target); ps is sorted, so the local moves already are
        moves = [("exit", s) for s in sorted(finished, key=str)]
        moves += [("sec-step", s) for s in sorted(sec, key=str)]
        # ``st._enter`` sticks a party outside the block's set, so only
        # members wait at it
        moves += [("enter", s) for s in sorted(
            (s for s, k in waiting.items() if k == len(s.names)), key=str)]
        moves += locals_
        if not moves:
            if all(out is DONE for out in steps.values()):
                return finish("done", tick)
            return finish("stuck", tick, "no enabled move: parties are "
                          "waiting for partners that never arrive")

        kind, target = sched.pick(moves)
        n = 1  # the ticks this pick takes

        if kind == "local":  # to the party's next park point
            par[target], steps[target], n = run_to_park(
                par[target], steps[target], rt, target, fuel - tick)

        elif kind == "enter":
            s = target
            # each member's step is its ``NeedsSec``, on a closure
            thunks = [steps[p].clos for p in s.names]
            c0 = thunks[0]
            if any((c.f, c.x, c.body) != (c0.f, c0.x, c0.body)
                   for c in thunks):
                return finish("stuck", tick, f"joint block {s}: parties "
                              f"disagree on the block's code")
            try:
                joint = Clos(combine_envs([c.env for c in thunks]), c0.x,
                             c0.body, c0.f)
            except CombineConflict:
                return finish("stuck", tick, f"joint block {s}: parties "
                              f"disagree on the block's environment")
            idx = entries.get(s, 0)
            entries[s] = idx + 1
            if backend == "ideal":
                sec[s] = (Mode(SEC, s), (), joint.bind(UNIT), (), c0.body)
            else:
                try:
                    circ = compile_sec_thunk(joint.bind(UNIT), c0.body, s,
                                             rt.width, rt.mint, compiled)
                    words = bind_inputs(circ, {p: c.bind(UNIT) for p, c
                                               in zip(s.names, thunks)})
                except CircuitError as ex:
                    return finish("stuck", tick, f"joint block {s}: {ex}")
                sec[s] = (circ, words,
                          f"{rt.seed}|gmw|{','.join(s.names)}|{idx}")
                circuits.append((f"{s}#{idx}", circ))

        elif kind == "sec-step":  # a finished block's move becomes an exit
            block = sec.pop(target)
            if backend == "gmw":
                circ, words, label = block
                res = gmw_eval(circ, words, label)
                finished[target] = {
                    p: decode_output(circ.decode, p, res.outputs[p])
                    for p in target.names
                }
            else:  # to the block's value, a tick a joint step
                r, out, n = run_to_park(block, st_step(block, rt), rt, None,
                                        fuel - tick)
                if out is DONE:
                    # no block starts in a sec mode, so the trace is empty
                    finished[target] = {p: slice_value(p, r[4])
                                        for p in target.names}
                elif out is None:  # out of fuel
                    sec[target] = r
                else:
                    return finish("stuck", tick + n,
                                  f"joint block {target} stuck at "
                                  f"{out.rule}: {out.reason}")

        else:  # exit
            for p, vp in finished.pop(target).items():
                # p is still where ``st._enter`` parked it: a member of a
                # block in flight is offered no local move
                _, stack, _, trace, _ = par[p]
                fmode, fenv, ftrace, _, _, _ = stack[-1]
                r = par[p] = (fmode, stack[:-1], fenv,
                              ftrace + trace + (TMsg(vp),), vp)
                steps[p] = machine_step(r, rt, p)

        tick += n

    # a block's members stay parked at it until its exit
    if all(out is DONE for out in steps.values()):
        return finish("done", fuel)  # the last tick ended the run
    return finish("fuel", fuel)


# ---------------------------------------------------------------------------
# metatheory checkers


def _config_diff(tag: str, a: Regs, b: Regs) -> str:
    """Where two unequal ``done`` states first differ; stacks are empty."""
    mode_a, _, env_a, trace_a, code_a = a
    mode_b, _, env_b, trace_b, code_b = b
    if mode_a != mode_b:
        return f"{tag}: modes differ: {mode_a} vs {mode_b}"
    if code_a != code_b:
        return f"{tag}: results differ: {code_a!r} vs {code_b!r}"
    if trace_a != trace_b:
        return f"{tag}: traces differ: {trace_a!r} vs {trace_b!r}"
    return f"{tag}: environments differ: {env_a!r} vs {env_b!r}"


def schedules(n: int) -> list:
    """Round robin, then ``n`` seeded schedules, each under the label that
    ``parse_sched`` (and so ``wysx run --sched``) reads back."""
    labels = ["rr", *(f"rand:{i}" for i in range(n))]
    return [(label, parse_sched(label)) for label in labels]


def _check_schedules(e: Expr, env: Env, ps: PrinSet, seed: int, width: int,
                     n_schedules: int, backend: str, fuel: int,
                     want: Optional[tuple[str, dict[str, Regs]]] = None,
                     ) -> CheckReport:
    """Run ``schedules(n_schedules)``; compare each run's status and, when
    done, every party's registers with ``want`` (None: the first run's). A
    failure starts with the label of the schedule that showed it. Runs that
    all stick are vacuous: stuck reasons are not compared, as the party a
    run reports first depends on the schedule."""
    if n_schedules < 1:
        raise ValueError(f"schedules must be at least 1, got {n_schedules}")
    for label, sched in schedules(n_schedules):
        res = ds_run(e, env, ps, Runtime(seed, width), sched, backend, fuel)
        if res.status == "fuel":
            # a tick is one party's step, so a run needs more ticks than
            # the reference run needs steps
            return CheckReport("inconclusive",
                               f"[{label}] distributed run ran out of fuel: "
                               f"no result within {fuel} ticks")
        if want is None:
            want = (res.status, res.par)
            first = f"[{label}] {res.reason}"
        elif res.status != want[0]:
            return CheckReport("fail", f"[{label}] distributed run "
                               f"{res.status}, expected {want[0]}: "
                               f"{res.reason}")
        elif res.status == "done":
            for p in ps:
                if want[1][p] != res.par[p]:
                    return CheckReport("fail", f"[{label}] " + _config_diff(
                        p, want[1][p], res.par[p]))
    if want[0] == "stuck":
        return CheckReport("vacuous", f"all {n_schedules + 1} schedules "
                           f"stuck; {first}")
    return CheckReport("pass", checked=n_schedules + 1)


def check_simulation(e: Expr, env: Env, ps: PrinSet, seed: int = 0,
                     width: int = 32, n_schedules: int = 10,
                     backend: str = "ideal",
                     fuel: int = DEFAULT_FUEL) -> CheckReport:
    """The reference run, sliced per party, must equal every scheduled
    distributed run, state for state."""
    sres = st_run(e, env, ps, Runtime(seed, width), fuel)
    if sres.status == "stuck":
        return CheckReport("vacuous",
                           f"reference run stuck at {sres.stuck_rule}: "
                           f"{sres.stuck_reason}")
    if sres.status == "fuel":
        return CheckReport("inconclusive", "reference run ran out of fuel")
    return _check_schedules(e, env, ps, seed, width, n_schedules, backend,
                            fuel, ("done", slice_config(ps, sres.config)))


def check_confluence(e: Expr, env: Env, ps: PrinSet, seed: int = 0,
                     width: int = 32, n_schedules: int = 100,
                     backend: str = "ideal",
                     fuel: int = DEFAULT_FUEL) -> CheckReport:
    """Every schedule must drive the distributed machines to the same
    terminal state as round robin; ``vacuous`` when every one sticks."""
    return _check_schedules(e, env, ps, seed, width, n_schedules, backend,
                            fuel)
