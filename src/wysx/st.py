"""Reference interpreter: a single machine runs all parties jointly.

Small-step, stack-based. The focus is either an expression being decomposed
or a value being plugged back into the innermost frame. Every frame records
the mode, environment and trace at suspension time, so block entry and exit
restore them exactly.

A compound expression pushes one frame that holds the node, the values
of its operands so far and the operands still to run, and runs its operands
in ``lang.OPERANDS`` order. Plugging a value checks the first operand
(``check_first_operand``), moves on to the next one, and once all are in
applies the rule for the node; a block body then runs above its own
``as_par``/``as_sec`` node's frame, which holds the set and the thunk.
The value rules of ``seal``, ``reveal``, ``mkmap``, ``project`` and
``concat`` live in ``apply_rule``, which the gate compiler calls as well,
so joint blocks follow one copy of them on every backend.

The machine state is a plain tuple of registers, ``lang.Regs``:
``(mode, stack, env, trace, code)``, with each frame of the stack a
``lang.FrameRegs`` tuple ``(mode, env, trace, e, done, pending)``. A step
takes the registers it reads and returns the next ones, or a ``Stuck`` or
``NeedsSec``. A run hands out the registers it ended in as they are
(``RunResult.config``, ``ds.DsResult.par``).

``run_to_park`` is the one step loop: ``run``'s, a party's up to its park
point and an ideal joint block's. It keeps the five registers in locals and
makes ``machine_step``'s value test and its ``_descend``/``_plug`` call
itself, so a step costs one call below the loop. ``run`` reads the number
of joint blocks it entered off the registers it ends in.

The same decompose/plug core also drives the distributed interpreter's
per-party machines: ``machine_step`` takes an optional party name and
switches the handful of rules whose joint and local behaviour differ
(block entry, the return of an ``as_par`` block, sealing, revealing, map
building and projection). A party machine parks at a joint block
(``NeedsSec``) and leaves it by ``ds_run``'s ``exit`` move, not by a rule
of ``machine_step``.
"""

from __future__ import annotations

from typing import Optional, Union

from . import ffi as ffi_mod
from .lang import (
    OPAQUE, OPERANDS, WORD_BITS, App, AsPar, AsSec, Bool, Clos, Concat,
    Const, Env, Expr, Ffi, Fix, FrameRegs, If, Lam, Let, MkMap, Mode, PAR,
    PrinSet, PrinVal, PrinsVal, Project, Regs, Reveal, SEC, Seal, Sealed,
    TMsg, TScope, Trace, UNIT, UnboundVariable, Value, VMap, Var, WysError,
    can_seal, record,
)
from .shares import ShareMint, comb_sh_value, mk_sh_value

DEFAULT_FUEL = 10 ** 6


class Runtime:
    """Per-run services: the share mint and the shared word width."""

    def __init__(self, seed: int = 0, width: int = 32):
        # ShareMint's masks and a JSON share word have WORD_BITS bits at most
        if not 1 <= width <= WORD_BITS:
            raise ValueError(f"width must be from 1 to {WORD_BITS}, "
                             f"got {width}")
        self.seed = seed
        self.width = width
        self.mint = ShareMint(seed)


@record
class Stuck:
    rule: str
    reason: str


@record
class NeedsSec:
    """A local machine is waiting at a joint block it cannot run alone."""

    ps: PrinSet
    clos: Clos  # the thunk, environment included


# The step result of a value with no frame left: a run or a party's machine
# has ended, or an ideal joint block's machine holds the block's value.
DONE = object()

# What a step yields: the next registers, the rule that blocks it, or, on a
# party's local machine, the joint block it waits at; else ``DONE``.
StepOut = Union[Regs, Stuck, NeedsSec]


def _run_host(name: str, args: tuple[Value, ...], mode: Mode, rt: Runtime):
    """Execute a host call. Returns (value, None) or (None, reason)."""
    try:
        if name == "mk_sh":
            ffi_mod.check_call(name, args)
            return mk_sh_value(mode, args[0], rt.mint, rt.width), None
        if name == "comb_sh":
            ffi_mod.check_call(name, args)
            return comb_sh_value(mode, args[0]), None
        return ffi_mod.exec_ffi(name, args), None
    except WysError as ex:
        return None, f"{type(ex).__name__}: {ex}"


def _descend(mode: Mode, stack: tuple[FrameRegs, ...], env: Env, trace: Trace,
             e: Expr, rt: Runtime) -> StepOut:
    t = type(e)
    if t is Var:
        try:
            v = env.get(e.x)
        except UnboundVariable:
            return Stuck("var", f"unbound variable {e.x}")
        return mode, stack, env, trace, v
    if t is Const:
        return mode, stack, env, trace, e.v
    if t is Lam or t is Fix:
        clos = Clos(env.restrict(e.fv), e.x, e.body, e.f)
        return mode, stack, env, trace, clos
    if t is Ffi:
        ops = e.args
    else:
        operands = OPERANDS.get(t)
        if operands is None:
            return Stuck("descend", f"not an expression: {e!r}")
        ops = operands(e)
    if ops:
        frame = (mode, env, trace, e, (), ops[1:])
        return mode, stack + (frame,), env, (), ops[0]
    # a host call without arguments
    v, err = _run_host(e.name, (), mode, rt)
    if err is not None:
        return Stuck("ffi-apply", err)
    return mode, stack, env, trace, v


_SET_OPERAND = {AsPar: "par-ps", AsSec: "sec-ps", Seal: "seal-ps",
                MkMap: "mkmap-ps"}


def check_first_operand(e: Expr, v: Value) -> Optional[Stuck]:
    """Check the value ``v`` of the first of several operands of ``e``
    before the next operand runs."""
    t = type(e)
    rule = _SET_OPERAND.get(t)
    if rule is not None:
        if type(v) is not PrinsVal:
            return Stuck(rule, f"not a principal set: {v!r}")
        if not v.ps and (t is AsPar or t is AsSec):
            return Stuck(rule, "empty principal set")
    elif t is Project:
        if type(v) is not PrinVal:
            return Stuck("project-prin", f"not a principal: {v!r}")
    elif t is Concat:
        if type(v) is not VMap:
            return Stuck("concat", f"not a map: {v!r}")
    return None


def apply_rule(e: Expr, args: tuple[Value, ...], mode: Mode,
               party: Optional[str]) -> Union[Value, Stuck]:
    """The value rule of a ``seal``, ``reveal``, ``mkmap``, ``project`` or
    ``concat`` node whose operands evaluated to ``args``, in ``mode``.

    ``party`` selects the semantics: None for the joint machine (and for
    the gate compiler, whose mode is its block's), a principal name for
    that party's local machine. Each rule is named after its node in lower
    case.
    """
    t = type(e)
    v = args[-1]
    if t is Seal:
        s = args[0].ps
        if party is not None:
            # local machines keep only their own copy of the contents
            return Sealed(s, v if party in s else OPAQUE)
        if not s.subset_of(mode.ps):
            return Stuck("seal", f"sealing for {s} outside mode {mode.ps}")
        if not can_seal(s, v):
            return Stuck("seal", f"value not sealable for {s}: {v!r}")
        return Sealed(s, v)

    if t is Reveal:
        if type(v) is not Sealed:
            return Stuck("reveal", f"not a sealed value: {v!r}")
        if party is not None:
            if party not in v.ps:
                return Stuck("reveal", f"{party} outside seal set {v.ps}")
        elif mode.is_par():
            if not mode.ps.subset_of(v.ps):
                return Stuck("reveal",
                             f"mode {mode.ps} not inside seal set {v.ps}")
        elif not mode.ps.intersects(v.ps):
            return Stuck("reveal",
                         f"mode {mode.ps} disjoint from seal set {v.ps}")
        return v.v

    if t is MkMap:
        s = args[0].ps
        if party is None:
            if mode.is_sec():
                if not s.subset_of(mode.ps):
                    return Stuck("mkmap", f"{s} outside mode {mode.ps}")
                return VMap.of({p: v for p in s})
            if type(v) is not Sealed:
                return Stuck("mkmap", f"expected a sealed value, got {v!r}")
            if not (s.subset_of(mode.ps) and s.subset_of(v.ps)):
                return Stuck("mkmap",
                             f"{s} outside mode {mode.ps} or seal set {v.ps}")
            return VMap.of({p: v.v for p in s})
        if party not in s:
            return VMap(())
        if type(v) is not Sealed:
            return Stuck("mkmap", f"expected a sealed value, got {v!r}")
        if party not in v.ps:
            return Stuck("mkmap", f"{party} cannot open seal for {v.ps}")
        return VMap(((party, v.v),))

    if type(v) is not VMap:
        return Stuck(t.__name__.lower(), f"not a map: {v!r}")

    if t is Project:
        q = args[0].name
        if party is not None:
            if q != party:
                return Stuck("project", f"{party} projecting {q}")
        elif mode.is_par():
            if mode.ps != PrinSet.of(q):
                return Stuck("project", f"projecting {q} in mode {mode.ps}")
        elif q not in mode.ps:
            return Stuck("project", f"{q} outside mode {mode.ps}")
        got = v.get(q)
        if got is None:
            return Stuck("project", f"no entry for {q}")
        return got

    # Concat
    m1 = args[0]
    ks1, ks2 = set(m1.keys()), set(v.keys())
    if ks1 & ks2:
        return Stuck("concat", f"overlapping domains: {sorted(ks1 & ks2)}")
    d = dict(m1.entries)
    d.update(v.entries)
    return VMap.of(d)


def _plug(stack: tuple[FrameRegs, ...], trace: Trace, v: Value, rt: Runtime,
          party: Optional[str]) -> StepOut:
    """Plug the focused value ``v`` into the innermost frame of ``stack``;
    ``trace`` is the output since that frame was pushed.

    ``party`` selects the semantics: None for the joint reference machine,
    a principal name for that party's local machine.
    """
    mode, env, ftrace, e, done, pending = stack[-1]
    rest = stack[:-1]
    merged = ftrace + trace if trace else ftrace

    if pending:
        if not done:
            stuck = check_first_operand(e, v)
            if stuck is not None:
                return stuck
        nf = (mode, env, merged, e, done + (v,), pending[1:])
        return mode, rest + (nf,), env, (), pending[0]
    t = type(e)

    # ---- plain sequencing, most frequent first ---------------------------
    if t is Ffi:
        out, err = _run_host(e.name, done + (v,), mode, rt)
        if err is not None:
            return Stuck("ffi-apply", err)
        return mode, rest, env, merged, out

    if t is If:
        if type(v) is not Bool:
            return Stuck("if-branch", f"condition is not a boolean: {v!r}")
        branch = e.then if v.b else e.els
        return mode, rest, env, merged, branch

    if t is Let:
        return mode, rest, env.extend(e.x, v), merged, e.body

    if t is App:
        fn = done[0]
        if type(fn) is not Clos:
            return Stuck("apply", f"not a function: {fn!r}")
        return mode, rest, fn.bind(v), merged, fn.body

    if t is AsPar or t is AsSec:
        # ---- block entry: the thunk has arrived --------------------------
        if len(done) == 1:
            return _enter(v, mode, env, e, done, rest, merged, party)

        # ---- block exit: the body's value has arrived --------------------
        s = done[0].ps
        if t is AsPar:
            if party is None:
                if not can_seal(s, v):
                    return Stuck("par-return",
                                 f"result not sealable for {s}: {v!r}")
                merged = ftrace + (TScope(s, trace),)
            return mode, rest, env, merged, Sealed(s, v)

        # joint machine only; no block starts in a sec mode, so no output
        return mode, rest, env, ftrace + (TMsg(v),), v

    out = apply_rule(e, done + (v,), mode, party)
    if type(out) is Stuck:
        return out
    return mode, rest, env, merged, out


def _enter(v: Value, m: Mode, env: Env, e: Expr, done: tuple[Value, ...],
           rest: tuple[FrameRegs, ...], merged: Trace,
           party: Optional[str]) -> StepOut:
    """Enter the as_par or as_sec block ``e`` on its thunk ``v``; ``m``,
    ``env`` and ``done`` are those of the block's frame."""
    is_par = type(e) is AsPar
    if type(v) is not Clos:
        return Stuck("par-enter" if is_par else "sec-enter",
                     f"not a function: {v!r}")
    s = done[0].ps
    if is_par:
        if party is None:
            if not (m.is_par() and s.subset_of(m.ps)):
                return Stuck("par-enter",
                             f"cannot delegate to {s} from {m.tag} {m.ps}")
            m2 = Mode(PAR, s)
        elif party not in s:
            # everything inside is someone else's business
            return m, rest, env, merged, Sealed(s, OPAQUE)
        else:
            m2 = m
        nf = (m, env, merged, e, done + (v,), ())
        return m2, rest + (nf,), v.bind(UNIT), (), v.body

    if party is None:
        if not (m.is_par() and m.ps == s):
            return Stuck("sec-enter",
                         f"joint block over {s} requires exactly those "
                         f"parties, mode is {m.tag} {m.ps}")
        nf = (m, env, merged, e, done + (v,), ())
        return Mode(SEC, s), rest + (nf,), v.bind(UNIT), (), v.body
    if party not in s:
        return Stuck("sec-enter", f"{party} outside joint set {s}")
    return NeedsSec(s, v)


def machine_step(regs: Regs, rt: Runtime,
                 party: Optional[str] = None) -> StepOut:
    mode, stack, env, trace, code = regs
    if isinstance(code, Value):
        if not stack:
            return DONE
        return _plug(stack, trace, code, rt, party)
    return _descend(mode, stack, env, trace, code, rt)


def run_to_park(r: Regs, out: Optional[StepOut], rt: Runtime,
                party: Optional[str], budget: int):
    """Apply ``out``, the step result of the registers ``r``, and step on
    while the result is registers, at most ``budget`` steps in all; a
    ``budget`` below 1 is for an ``out`` that is not registers. Returns the
    registers reached, their step result and the number of steps. ``party``
    is None for the joint machine. Once the budget is spent the step result
    is None: no step is computed after the last one, as a joint step may
    draw from the mint."""
    if type(out) is not tuple:
        return r, out, 0
    mode, stack, env, trace, code = r = out
    # machine_step, inline: a call a step would cost about 5 %
    for n in range(1, budget):
        if isinstance(code, Value):
            if not stack:
                return r, DONE, n
            out = _plug(stack, trace, code, rt, party)
        else:
            out = _descend(mode, stack, env, trace, code, rt)
        if type(out) is not tuple:
            return r, out, n
        mode, stack, env, trace, code = r = out
    # the last step may have ended the machine
    return r, DONE if isinstance(code, Value) and not stack else None, budget


@record
class RunResult:
    status: str  # done | stuck | fuel
    value: Optional[Value]
    trace: Trace
    config: Regs  # the registers the run ended in
    steps: int
    sec_entries: int
    stuck_rule: Optional[str] = None
    stuck_reason: Optional[str] = None


@record
class CheckReport:  # of a schedule check (``ds``) or a suite (``apps``)
    status: str  # pass | fail | vacuous | inconclusive
    detail: str = ""
    checked: int = 0  # cases (suites) or schedules (``ds``) that agreed
    groups: int = 0  # (suites) groups of views from two or more input classes


def run(e: Expr, env: Optional[Env] = None, ps: Optional[PrinSet] = None,
        rt: Optional[Runtime] = None, fuel: int = DEFAULT_FUEL) -> RunResult:
    if not isinstance(e, Expr):
        raise TypeError(f"a program is an Expr, not {type(e).__name__}")
    if env is None:
        env = Env()
    if ps is None:
        ps = PrinSet.of("a", "b")
    if rt is None:
        rt = Runtime()
    if fuel < 0:
        raise ValueError(f"fuel must be at least 0, got {fuel}")
    r = (Mode(PAR, ps), (), env, (), e)
    r, out, steps = run_to_park(r, machine_step(r, rt) if fuel else None,
                                rt, None, fuel)
    mode, stack, _, trace, code = r
    # _plug's as_sec exit is the one rule that writes a TMsg, so each block
    # that returned left one in a trace, maybe inside TScopes; one still
    # running holds the sec mode
    secs = 1 if mode.tag == SEC else 0
    traces = [trace, *(frame[2] for frame in stack)]
    for t in traces:  # grows with the TScopes' traces as it goes
        secs += sum(type(elt) is TMsg for elt in t)
        traces += [elt.t for elt in t if type(elt) is TScope]
    if type(out) is Stuck:
        return RunResult("stuck", None, trace, r, steps, secs, out.rule,
                         out.reason)
    done = out is DONE
    return RunResult("done" if done else "fuel", code if done else None,
                     trace, r, steps, secs)
