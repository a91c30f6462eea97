"""Reference interpreter: a single machine runs all parties jointly.

Small-step, stack-based. The focus is either an expression being decomposed
or a value being plugged back into the innermost frame. Every frame records
the mode, environment and trace at suspension time, so block entry and exit
restore them exactly.

The same decompose/plug core also drives the distributed interpreter's
per-party machines: ``machine_step`` takes an optional party name and
switches the handful of rules whose joint and local behaviour differ
(block entry and exit, sealing, revealing, map building and projection).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from . import ffi as ffi_mod
from .lang import (
    App, AppArg, AppFn, AsPar, AsParBody, AsParFn, AsParPs, AsSec, AsSecBody,
    AsSecFn, AsSecPs, Bool, Clos, Code, Concat, ConcatLeft,
    ConcatRight, Config, Const, Env, EvalCtx, Expr, Ffi, FfiCtx, FixClos,
    Fix, Frame, If, IfCtx, Lam, Let, LetCtx, MkMap, MkMapPs, MkMapVal, Mode,
    Opaque, PAR, PrinSet, PrinVal, PrinsVal, Project, ProjectMap,
    ProjectPrin, Reveal, RevealHole, SEC, Seal, SealBody, SealPs, Sealed,
    TMsg, TScope, Trace, UNIT, UnboundVariable, Value, VMap, Var, WysError,
    can_seal, free_vars, is_value,
)
from .shares import ShareMint, comb_sh_value, mk_sh_value

DEFAULT_FUEL = 10 ** 6


class Runtime:
    """Per-run services: the share mint and the shared word width."""

    def __init__(self, seed: int = 0, width: int = 32):
        self.seed = seed
        self.width = width
        self.mint = ShareMint(seed)


@dataclass(frozen=True, slots=True)
class Next:
    config: Config
    rule: str


@dataclass(frozen=True, slots=True)
class Stuck:
    rule: str
    reason: str


@dataclass(frozen=True, slots=True)
class NeedsSec:
    """A local machine is waiting at a joint block it cannot run alone."""

    ps: PrinSet
    clos: Value  # the thunk, environment included


StepOut = Union[Next, Stuck, NeedsSec]


def initial_config(e: Expr, env: Env, ps: PrinSet) -> Config:
    return Config(Mode(PAR, ps), (), env, (), e)


def _push(c: Config, ctx: EvalCtx, focus: Code) -> Config:
    frame = Frame(c.mode, c.env, ctx, c.trace)
    return Config(c.mode, c.stack + (frame,), c.env, (), focus)


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


def thunk_env(v: Value) -> Optional[tuple[Env, Expr]]:
    """Environment and body for applying a block thunk to the unit value."""
    if type(v) is Clos:
        return v.env.extend(v.x, UNIT), v.body
    if type(v) is FixClos:
        return v.env.extend(v.f, v).extend(v.x, UNIT), v.body
    return None


def _descend(c: Config, rt: Runtime) -> StepOut:
    e = c.code
    t = type(e)
    if t is Const:
        return Next(Config(c.mode, c.stack, c.env, c.trace, e.v), "lit")
    if t is Var:
        try:
            v = c.env.get(e.x)
        except UnboundVariable:
            return Stuck("var", f"unbound variable {e.x}")
        return Next(Config(c.mode, c.stack, c.env, c.trace, v), "var")
    if t is Lam:
        clos = Clos(c.env.restrict(free_vars(e)), e.x, e.body)
        return Next(Config(c.mode, c.stack, c.env, c.trace, clos), "closure")
    if t is Fix:
        clos = FixClos(c.env.restrict(free_vars(e)), e.f, e.x, e.body)
        return Next(Config(c.mode, c.stack, c.env, c.trace, clos), "rec-closure")
    if t is Let:
        return Next(_push(c, LetCtx(e.x, e.body), e.bound), "let-push")
    if t is App:
        return Next(_push(c, AppFn(e.arg), e.fn), "app-push")
    if t is If:
        return Next(_push(c, IfCtx(e.then, e.els), e.cond), "if-push")
    if t is AsPar:
        return Next(_push(c, AsParPs(e.fn), e.ps), "par-push")
    if t is AsSec:
        return Next(_push(c, AsSecPs(e.fn), e.ps), "sec-push")
    if t is Seal:
        return Next(_push(c, SealPs(e.body), e.ps), "seal-push")
    if t is Reveal:
        return Next(_push(c, RevealHole(), e.e), "reveal-push")
    if t is MkMap:
        return Next(_push(c, MkMapPs(e.v), e.ps), "mkmap-push")
    if t is Project:
        return Next(_push(c, ProjectPrin(e.m), e.prin), "project-push")
    if t is Concat:
        return Next(_push(c, ConcatLeft(e.m2), e.m1), "concat-push")
    if t is Ffi:
        if not e.args:
            v, err = _run_host(e.name, (), c.mode, rt)
            if err is not None:
                return Stuck("ffi-apply", err)
            return Next(Config(c.mode, c.stack, c.env, c.trace, v), "ffi-apply")
        return Next(_push(c, FfiCtx(e.name, (), e.args[1:]), e.args[0]), "ffi-push")
    return Stuck("descend", f"not an expression: {e!r}")


def _plug(c: Config, rt: Runtime, party: Optional[str]) -> StepOut:
    """Plug the focused value into the innermost frame.

    ``party`` selects the semantics: None for the joint reference machine,
    a principal name for that party's local machine.
    """
    frame = c.stack[-1]
    rest = c.stack[:-1]
    v = c.code
    ctx = frame.ctx
    t = type(ctx)
    merged = frame.trace + c.trace

    def restore(code: Value, rule: str, trace: Trace = merged,
                mode: Mode = frame.mode) -> Next:
        return Next(Config(mode, rest, frame.env, trace, code), rule)

    def shift(new_ctx: EvalCtx, focus: Code, rule: str) -> Next:
        nf = Frame(frame.mode, frame.env, new_ctx, merged)
        return Next(Config(frame.mode, rest + (nf,), frame.env, (), focus), rule)

    # ---- plain sequencing ------------------------------------------------
    if t is LetCtx:
        env2 = frame.env.extend(ctx.x, v)
        return Next(Config(frame.mode, rest, env2, merged, ctx.body), "let-bind")

    if t is AppFn:
        return shift(AppArg(v), ctx.arg, "app-arg")

    if t is AppArg:
        fn = ctx.fn
        ft = type(fn)
        if ft is Clos:
            env2 = fn.env.extend(fn.x, v)
            return Next(Config(frame.mode, rest, env2, merged, fn.body), "apply")
        if ft is FixClos:
            env2 = fn.env.extend(fn.f, fn).extend(fn.x, v)
            return Next(Config(frame.mode, rest, env2, merged, fn.body), "apply")
        return Stuck("apply", f"not a function: {fn!r}")

    if t is IfCtx:
        if type(v) is not Bool:
            return Stuck("if-branch", f"condition is not a boolean: {v!r}")
        branch = ctx.then if v.b else ctx.els
        return Next(Config(frame.mode, rest, frame.env, merged, branch), "if-branch")

    if t is FfiCtx:
        done = ctx.done + (v,)
        if ctx.pending:
            return shift(FfiCtx(ctx.name, done, ctx.pending[1:]),
                         ctx.pending[0], "ffi-arg")
        out, err = _run_host(ctx.name, done, frame.mode, rt)
        if err is not None:
            return Stuck("ffi-apply", err)
        return restore(out, "ffi-apply")

    # ---- sealing ---------------------------------------------------------
    if t is SealPs:
        if type(v) is not PrinsVal:
            return Stuck("seal-ps", f"not a principal set: {v!r}")
        return shift(SealBody(v.ps), ctx.body, "seal-body")

    if t is SealBody:
        s = ctx.ps
        if party is None:
            if not s.subset_of(frame.mode.ps):
                return Stuck("seal", f"sealing for {s} outside mode {frame.mode.ps}")
            if not can_seal(s, v):
                return Stuck("seal", f"value not sealable for {s}: {v!r}")
            return restore(Sealed(s, v), "seal")
        # local machines keep only their own copy of the contents
        return restore(Sealed(s, v if party in s else Opaque()), "seal")

    if t is RevealHole:
        if type(v) is not Sealed:
            return Stuck("reveal", f"not a sealed value: {v!r}")
        if party is None:
            m = frame.mode
            if m.is_par():
                if not m.ps.subset_of(v.ps):
                    return Stuck("reveal",
                                 f"mode {m.ps} not inside seal set {v.ps}")
            else:
                if not m.ps.intersects(v.ps):
                    return Stuck("reveal",
                                 f"mode {m.ps} disjoint from seal set {v.ps}")
        else:
            if party not in v.ps:
                return Stuck("reveal", f"{party} outside seal set {v.ps}")
        return restore(v.v, "reveal")

    # ---- per-principal maps ------------------------------------------------
    if t is MkMapPs:
        if type(v) is not PrinsVal:
            return Stuck("mkmap-ps", f"not a principal set: {v!r}")
        return shift(MkMapVal(v.ps), ctx.v, "mkmap-val")

    if t is MkMapVal:
        s = ctx.ps
        if party is None:
            m = frame.mode
            if m.is_sec():
                if not s.subset_of(m.ps):
                    return Stuck("mkmap", f"{s} outside mode {m.ps}")
                return restore(VMap.of({p: v for p in s}), "mkmap")
            if type(v) is not Sealed:
                return Stuck("mkmap", f"expected a sealed value, got {v!r}")
            if not (s.subset_of(m.ps) and s.subset_of(v.ps)):
                return Stuck("mkmap",
                             f"{s} outside mode {m.ps} or seal set {v.ps}")
            return restore(VMap.of({p: v.v for p in s}), "mkmap")
        if party not in s:
            return restore(VMap(()), "mkmap")
        if type(v) is not Sealed:
            return Stuck("mkmap", f"expected a sealed value, got {v!r}")
        if party not in v.ps:
            return Stuck("mkmap", f"{party} cannot open seal for {v.ps}")
        return restore(VMap(((party, v.v),)), "mkmap")

    if t is ProjectPrin:
        if type(v) is not PrinVal:
            return Stuck("project-prin", f"not a principal: {v!r}")
        return shift(ProjectMap(v.name), ctx.m, "project-map")

    if t is ProjectMap:
        q = ctx.prin
        if type(v) is not VMap:
            return Stuck("project", f"not a map: {v!r}")
        if party is None:
            m = frame.mode
            if m.is_par():
                if m.ps != PrinSet.of(q):
                    return Stuck("project",
                                 f"projecting {q} in mode {m.ps}")
            else:
                if q not in m.ps:
                    return Stuck("project", f"{q} outside mode {m.ps}")
        else:
            if q != party:
                return Stuck("project", f"{party} projecting {q}")
        got = v.get(q)
        if got is None:
            return Stuck("project", f"no entry for {q}")
        return restore(got, "project")

    if t is ConcatLeft:
        if type(v) is not VMap:
            return Stuck("concat", f"not a map: {v!r}")
        return shift(ConcatRight(v), ctx.m2, "concat-right")

    if t is ConcatRight:
        m1 = ctx.m1
        if type(v) is not VMap:
            return Stuck("concat", f"not a map: {v!r}")
        ks1, ks2 = set(m1.keys()), set(v.keys())
        if ks1 & ks2:
            return Stuck("concat", f"overlapping domains: {sorted(ks1 & ks2)}")
        d = dict(m1.entries)
        d.update(v.entries)
        return restore(VMap.of(d), "concat")

    # ---- block entry and exit ---------------------------------------------
    if t is AsParPs:
        if type(v) is not PrinsVal:
            return Stuck("par-ps", f"not a principal set: {v!r}")
        if len(v.ps) == 0:
            return Stuck("par-ps", "empty principal set")
        return shift(AsParFn(v.ps), ctx.fn, "par-fn")

    if t is AsParFn:
        s = ctx.ps
        te = thunk_env(v)
        if te is None:
            return Stuck("par-enter", f"not a function: {v!r}")
        env2, body = te
        if party is None:
            m = frame.mode
            if not (m.is_par() and s.subset_of(m.ps)):
                return Stuck("par-enter",
                             f"cannot delegate to {s} from {m.tag} {m.ps}")
            nf = Frame(m, frame.env, AsParBody(s), merged)
            return Next(Config(Mode(PAR, s), rest + (nf,), env2, (), body),
                        "par-enter")
        if party not in s:
            # everything inside is someone else's business
            return restore(Sealed(s, Opaque()), "par-skip")
        nf = Frame(frame.mode, frame.env, AsParBody(s), merged)
        return Next(Config(frame.mode, rest + (nf,), env2, (), body),
                    "par-enter")

    if t is AsParBody:
        s = ctx.ps
        if party is None:
            if not can_seal(s, v):
                return Stuck("par-return", f"result not sealable for {s}: {v!r}")
            tr = frame.trace + (TScope(s, c.trace),)
            return restore(Sealed(s, v), "par-return", trace=tr)
        return restore(Sealed(s, v), "par-return")

    if t is AsSecPs:
        if type(v) is not PrinsVal:
            return Stuck("sec-ps", f"not a principal set: {v!r}")
        if len(v.ps) == 0:
            return Stuck("sec-ps", "empty principal set")
        return shift(AsSecFn(v.ps), ctx.fn, "sec-fn")

    if t is AsSecFn:
        s = ctx.ps
        te = thunk_env(v)
        if te is None:
            return Stuck("sec-enter", f"not a function: {v!r}")
        if party is None:
            m = frame.mode
            if not (m.is_par() and m.ps == s):
                return Stuck("sec-enter",
                             f"joint block over {s} requires exactly those "
                             f"parties, mode is {m.tag} {m.ps}")
            env2, body = te
            nf = Frame(m, frame.env, AsSecBody(s), merged)
            return Next(Config(Mode(SEC, s), rest + (nf,), env2, (), body),
                        "sec-enter")
        if party not in s:
            return Stuck("sec-enter", f"{party} outside joint set {s}")
        return NeedsSec(s, v)

    if t is AsSecBody:
        s = ctx.ps
        if party is not None:
            return Stuck("sec-return", "local machine inside a joint block")
        if c.trace:
            return Stuck("sec-return", "joint block produced scoped output")
        tr = frame.trace + (TMsg(v),)
        return restore(v, "sec-return", trace=tr)

    return Stuck("plug", f"unhandled context {ctx!r}")


def machine_step(c: Config, rt: Runtime, party: Optional[str] = None) -> StepOut:
    if is_value(c.code):
        if not c.stack:
            return Stuck("halt", "no frame to return to")
        return _plug(c, rt, party)
    return _descend(c, rt)


def step(c: Config, rt: Runtime) -> StepOut:
    return machine_step(c, rt, None)


@dataclass
class RunResult:
    status: str  # done | stuck | fuel
    value: Optional[Value]
    trace: Trace
    config: Config
    steps: int
    sec_entries: int
    stuck_rule: Optional[str] = None
    stuck_reason: Optional[str] = None


def run(e: Expr, env: Optional[Env] = None, ps: Optional[PrinSet] = None,
        rt: Optional[Runtime] = None, fuel: int = DEFAULT_FUEL) -> RunResult:
    if env is None:
        env = Env()
    if ps is None:
        ps = PrinSet.of("a", "b")
    if rt is None:
        rt = Runtime()
    c = initial_config(e, env, ps)
    steps = 0
    secs = 0
    while steps < fuel:
        if c.is_terminal():
            return RunResult("done", c.code, c.trace, c, steps, secs)
        out = step(c, rt)
        if type(out) is Stuck:
            return RunResult("stuck", None, c.trace, c, steps, secs,
                             out.rule, out.reason)
        c = out.config
        steps += 1
        if out.rule == "sec-enter":
            secs += 1
    return RunResult("fuel", None, c.trace, c, steps, secs)
