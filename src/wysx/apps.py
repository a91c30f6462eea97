"""Bundled example applications and their verification harnesses.

Each application ships as a DSL source file under ``programs/`` plus, on the
Python side, builders for its input environment, pure oracles that predict
its value and trace, and the policy of what it may disclose, which one
exhaustive small-domain check, ``check_disclosure``, enforces.  The oracles
share no code with the interpreters, so agreement is meaningful evidence.

The accessor ``v_of_sh`` recombines a share handle.  It exists only for
harness code; programs have no way to call it.
"""

from __future__ import annotations

import os
import random
from collections import Counter, defaultdict
from functools import lru_cache
from itertools import combinations, permutations, product
from typing import Optional, Sequence

from .lang import (
    SEC, Bool, Env, Expr, FfiInt, FfiList, FfiPair, Mode, PrinSet, Sealed,
    ShareVal, TMsg, TScope, Trace, Value, VMap, WysError, children, record,
    slice_trace, slice_value, with_children,
)
from .sexp import parse
from .shares import ShareMint, comb_sh_value
from .st import CheckReport, RunResult, Runtime, run

A = PrinSet.of("a")
B = PrinSet.of("b")
AB = PrinSet.of("a", "b")
ABC = PrinSet.of("a", "b", "c")

PROGRAM_NAMES = (
    "median",
    "median_opt",
    "median_opt_leak",
    "psi",
    "psi_interim",
    "psi_opt",
    "check_fresh",
    "deal_round",
)


def program_source(name: str) -> str:
    if name not in PROGRAM_NAMES:
        raise WysError(f"no bundled program named {name!r}")
    # a plain file beside this module: ``importlib.resources`` imports
    # ``inspect`` on Python 3.13 and takes 28-37 ms to import cold
    path = os.path.join(os.path.dirname(__file__), "programs", f"{name}.wyx")
    with open(path, encoding="utf-8") as fh:
        return fh.read()


@lru_cache(maxsize=None)
def load_program(name: str) -> Expr:
    return parse(program_source(name))


# ---------------------------------------------------------------------------
# input environments


def _ints(xs) -> FfiList:
    return FfiList(tuple(FfiInt(x) for x in xs))


def median_env(a: tuple[int, int], b: tuple[int, int]) -> Env:
    return Env({
        "in_a": Sealed(A, FfiPair(FfiInt(a[0]), FfiInt(a[1]))),
        "in_b": Sealed(B, FfiPair(FfiInt(b[0]), FfiInt(b[1]))),
    })


def psi_env(la: Sequence[int], lb: Sequence[int]) -> Env:
    """Whole-list seals, for the single-block psi program."""
    return Env({"in_a": Sealed(A, _ints(la)), "in_b": Sealed(B, _ints(lb))})


def psi_pair_env(la: Sequence[int], lb: Sequence[int]) -> Env:
    """Public spines with per-element seals, for the pairwise psi programs."""
    return Env({
        "in_a": FfiList(tuple(Sealed(A, FfiInt(x)) for x in la)),
        "in_b": FfiList(tuple(Sealed(B, FfiInt(x)) for x in lb)),
    })


def mk_handles(values: Sequence[int], seed: int = 0, width: int = 32) -> list[ShareVal]:
    """Mint well-formed three-party share handles holding the given values."""
    mint = ShareMint(seed)
    return [ShareVal.of(ABC, mint.mint_words(ABC, v, width), width) for v in values]


def fresh_env(hist_values: Sequence[int], cand: int,
              seed: int = 0, width: int = 32) -> Env:
    handles = mk_handles([*hist_values, cand], seed, width)
    return Env({"hist": FfiList(tuple(handles[:-1])), "sr": handles[-1]})


def deal_env(rands: dict[str, int], hist: Sequence[ShareVal]) -> Env:
    return Env({
        "rands": VMap.of({p: FfiInt(n) for p, n in rands.items()}),
        "hist": FfiList(tuple(hist)),
    })


# ---------------------------------------------------------------------------
# harness-only accessors


def v_of_sh(sh: ShareVal) -> int:
    """Recombine a complete handle outside any program (harness use only)."""
    return comb_sh_value(Mode(SEC, sh.ps), sh).n


# ---------------------------------------------------------------------------
# oracles


def median_pre(a: tuple[int, int], b: tuple[int, int]) -> bool:
    x1, x2 = a
    y1, y2 = b
    return x1 < x2 and y1 < y2 and len({x1, x2, y1, y2}) == 4


def median_of(a: tuple[int, int], b: tuple[int, int]) -> int:
    # second smallest of the four values
    return sorted((*a, *b))[1]


def median_trace(a, b) -> Trace:
    return (TMsg(FfiInt(median_of(a, b))),)


def opt_trace(a, b) -> Trace:
    first = a[0] > b[0]
    return (
        TMsg(Bool(first)),
        TScope(A, ()),
        TScope(B, ()),
        TMsg(FfiInt(median_of(a, b))),
    )


def intersection(la: Sequence[int], lb: Sequence[int]) -> list[int]:
    return [x for x in la if x in lb]


def trace_psi(la: Sequence[int], lb: Sequence[int]) -> list[bool]:
    return [ax == bx for ax in la for bx in lb]


def trace_psi_opt(la: Sequence[int], lb: Sequence[int]) -> list[bool]:
    rest = list(lb)
    out = []
    for ax in la:
        for i, bx in enumerate(rest):
            out.append(ax == bx)
            if ax == bx:
                del rest[i]
                break
    return out


def psi_sides(la, lb) -> tuple[list[int], list[int]]:
    """Per-party keeps for the pairwise program, in input order."""
    return [x for x in la if x in lb], [x for x in lb if x in la]


def psi_opt_sides(la, lb) -> tuple[list[int], list[int]]:
    """Per-party keeps for the optimized program (each match consumed once)."""
    rest = list(lb)
    ia = []
    for ax in la:
        if ax in rest:
            ia.append(ax)
            rest.remove(ax)
    ib, k = [], 0
    for bx in lb:
        if k < len(rest) and bx == rest[k]:
            k += 1
        else:
            ib.append(bx)
    return ia, ib


def fresh_oracle(hist_values: Sequence[int], cand: int) -> bool:
    return all(v != cand for v in hist_values)


# ---------------------------------------------------------------------------
# runners and verdicts


def run_app(name: str, env: Env, ps: PrinSet = AB,
            seed: int = 0, width: int = 32) -> RunResult:
    return run(load_program(name), env, ps, Runtime(seed=seed, width=width))


def public_msgs(trace: Trace) -> list[Value]:
    return [ev.v for ev in trace if type(ev) is TMsg]


def _handles(v):
    """The share handles in a value, message or scope."""
    t = type(v)
    if t is ShareVal:
        yield v
    for w in (v.v,) if t is TMsg else v.t if t is TScope else children(v):
        yield from _handles(w)


def _erase(v: Value) -> Value:
    """``v`` with the words of every share handle dropped."""
    if type(v) is ShareVal:
        return ShareVal(v.ps, (), v.width)
    return with_children(v, tuple(map(_erase, children(v))))


def check_disclosure(program: Expr, ps: PrinSet, domain: Sequence, env_of,
                     policy, oracle, cls=lambda *x: x) -> CheckReport:
    """Delimited release (Sabelfeld and Myers, ISSS 2003): no party learns
    more of the others' inputs than ``policy`` releases.

    An input ``x`` holds the own input of each party of ``ps`` in order, then
    any joint inputs, which the policy fixes. Each run, on the reference
    machine in ``env_of(*x)``, must finish with ``oracle(r, *x)`` true and
    no two handles sharing a mask word; so share words are erased from each
    party's view, its ``slice_value`` and ``slice_trace`` of the run. Per
    party, own input and ``policy(*x)``, the views must form one multiset
    over every class ``cls(*x)`` of inputs.
    """
    if not domain:
        return CheckReport("vacuous", "the suite checked no cases")
    views = defaultdict(lambda: defaultdict(Counter))
    for x in domain:
        where = " ".join(map(str, x))
        r = run(program, env_of(*x), ps)
        if r.status != "done":
            return CheckReport("fail", f"{where}: run {r.status} "
                               f"({r.stuck_reason})")
        if not oracle(r, *x):
            return CheckReport("fail", f"{where}: result differs from oracle")
        masks = [w for h in {*_handles(r.value), *_handles(TScope(ps, r.trace))}
                 for w in h.words[:-1]]  # the last holder's word is no mask
        if len(set(masks)) < len(masks):
            return CheckReport("fail", f"{where}: two handles share a mask")
        for own, p in zip(x, ps.names):
            view = (_erase(slice_value(p, r.value)),
                    tuple(_erase(m.v) for m in slice_trace(p, r.trace)))
            views[p, own, policy(*x)][cls(*x)][view] += 1
    for (p, own, key), group in views.items():
        first, *rest = group.values()
        if any(m != first for m in rest):
            return CheckReport("fail", f"{p}'s view varies beyond the policy "
                               f"(own input {own}, policy {key})")
    return CheckReport("pass", checked=len(domain),
                       groups=sum(len(g) > 1 for g in views.values()))


def check_median_security(hi: int = 8, oracle=opt_trace,
                          program: str = "median_opt") -> CheckReport:
    """The median over all sorted pairs from 1..hi: a party learns only the
    median. Each run must compute it and, given an oracle, its trace; a
    wrong oracle or a leaky ``program`` shows that the check can fail."""
    pairs = list(combinations(range(1, hi + 1), 2))

    def correct(r, a, b):
        return r.value == FfiInt(median_of(a, b)) and (
            oracle is None or r.trace == oracle(a, b))

    return check_disclosure(
        load_program(program), AB,
        [(a, b) for a in pairs for b in pairs if median_pre(a, b)],
        median_env, median_of, correct)


def distinct_lists(max_len: int, hi: int) -> list[tuple[int, ...]]:
    """All ordered duplicate-free tuples over 1..hi of lengths 0..max_len."""
    return [t for n in range(max_len + 1)
            for t in permutations(range(1, hi + 1), n)]


def psi_policy(la, lb) -> tuple:
    """What psi releases: both lengths and the intersection."""
    return len(la), len(lb), tuple(sorted(set(la) & set(lb)))


def check_psi_security(hi: int = 4) -> CheckReport:
    """The psi programs on all pairs of duplicate-free lists of length at
    most 3 over 1..hi. A party's views over all orders of the other list
    depend only on the lengths and the intersection. ``psi`` must publish
    the intersection, and the others the flags of the trace oracles."""
    lists = distinct_lists(3, hi)
    pairs = [(la, lb) for la in lists for lb in lists]
    oracles = {
        "psi": lambda r, la, lb: r.value == _ints(intersection(la, lb)),
        "psi_interim": lambda r, la, lb:
            public_msgs(r.trace) == list(map(Bool, trace_psi(la, lb))),
        "psi_opt": lambda r, la, lb:
            public_msgs(r.trace) == list(map(Bool, trace_psi_opt(la, lb))),
    }
    runs = compared = 0
    for name, oracle in oracles.items():
        rep = check_disclosure(
            load_program(name), AB, pairs,
            psi_env if name == "psi" else psi_pair_env, psi_policy, oracle,
            lambda la, lb: (tuple(sorted(la)), tuple(sorted(lb))))
        if rep.status != "pass":
            return CheckReport(rep.status, f"{name} {rep.detail}")
        runs += rep.checked
        compared += rep.groups
    return CheckReport("pass", checked=runs, groups=compared)


def psi_comparison_count(la: Sequence[int], lb: Sequence[int]) -> tuple[int, int]:
    """Joint-block entry counts of the pairwise vs optimized programs."""
    runs = {name: run_app(name, psi_pair_env(la, lb))
            for name in ("psi_interim", "psi_opt")}
    failed = [f"{name} {r.status}" + (f" at {r.stuck_rule}: {r.stuck_reason}"
                                      if r.status == "stuck" else "")
              for name, r in runs.items() if r.status != "done"]
    if failed:
        raise WysError("psi run failed: " + "; ".join(failed))
    return runs["psi_interim"].sec_entries, runs["psi_opt"].sec_entries


# ---------------------------------------------------------------------------
# card dealing


class DeckExhausted(WysError):
    pass


def run_check_fresh(hist_values: Sequence[int], cand: int,
                    seed: int = 0, width: int = 32) -> RunResult:
    return run(load_program("check_fresh"),
               fresh_env(hist_values, cand, seed, width),
               ABC, Runtime(seed=seed, width=width))


def deal_card(hist: Sequence[ShareVal], rngs: dict[str, random.Random],
              rt: Optional[Runtime] = None,
              ) -> tuple[list[ShareVal], Optional[int]]:
    """One dealing round over the given history.

    Each party contributes one private random below 52.  Returns the new
    history and the dealt card, or the unchanged history and None when the
    drawn card was already out and the round must be retried.
    """
    if len(hist) >= 52:
        raise DeckExhausted(f"{len(hist)} cards already dealt")
    if rt is None:
        rt = Runtime()
    rands = {p: rngs[p].randrange(52) for p in ABC.names}
    r = run(load_program("deal_round"), deal_env(rands, hist), ABC, rt)
    if r.status != "done":
        raise WysError(f"dealing round {r.status}: {r.stuck_reason}")
    out = r.value
    assert type(out) is FfiPair and type(out.fst) is FfiList
    new_hist = list(out.fst.items)
    if len(new_hist) == len(hist):
        return list(hist), None
    assert type(out.snd) is FfiInt
    return new_hist, out.snd.n


def full_deal(seed: int, max_rounds: int = 20000) -> list[int]:
    """Deals until 52 distinct cards are out; returns them in dealt order."""
    rngs = {p: random.Random(f"deal|{seed}|{p}") for p in ABC.names}
    rt = Runtime(seed=seed)
    hist: list[ShareVal] = []
    cards: list[int] = []
    for _ in range(max_rounds):
        hist, card = deal_card(hist, rngs, rt)
        if card is not None:
            cards.append(card)
        if len(cards) == 52:
            return cards
    raise DeckExhausted(f"no full deal for seed {seed} in {max_rounds} rounds")


_IDENTITY_SRC = "(as_sec (prins a b c) (lam _ (ffi comb_sh (ffi mk_sh v))))"
_MINT_SRC = "(as_sec (prins a b c) (lam _ (ffi mk_sh v)))"
_COMB_SRC = "(as_sec (prins a b c) (lam _ (ffi comb_sh h)))"


def share_identity(v: int, seed: int = 0, width: int = 32) -> int:
    """Split and immediately recombine inside one joint block."""
    r = run(parse(_IDENTITY_SRC), Env({"v": FfiInt(v)}), ABC,
            Runtime(seed=seed, width=width))
    assert r.status == "done" and type(r.value) is FfiInt
    return r.value.n


def share_roundtrip(v: int, seed: int = 0, width: int = 32) -> int:
    """Split in one joint block, recombine in a later one."""
    rt = Runtime(seed=seed, width=width)
    r1 = run(parse(_MINT_SRC), Env({"v": FfiInt(v)}), ABC, rt)
    assert r1.status == "done" and type(r1.value) is ShareVal
    r2 = run(parse(_COMB_SRC), Env({"h": r1.value}), ABC, rt)
    assert r2.status == "done" and type(r2.value) is FfiInt
    return r2.value.n


def fold_card(s: int) -> int:
    """The card ``deal_round`` makes of a sum of offsets: three times, 52
    off a sum above 52 (``gt cv 52``)."""
    for _ in range(3):
        if s > 52:
            s -= 52
    return s


def check_cards(hi: int = 3) -> CheckReport:
    """Share round trips, then ``deal_round`` on five histories with all
    offsets among the ``hi`` smallest and ``hi`` largest below 52. A party
    learns the history's cards and the round's folded card; the value must
    follow ``fresh_oracle``."""
    for v in range(52):
        if share_identity(v) != v or share_roundtrip(v) != v:
            return CheckReport("fail", f"share round-trip broke at {v}")
    offsets = sorted({*range(hi), *range(52 - hi, 52)})
    # seed 1: a history minted with the runs' seed 0 would share their masks
    held = {h: mk_handles(h, seed=1)
            for h in ((), (1,), (50,), (1, 50), (50, 1))}

    def correct(r, ra, rb, rc, hist):
        card = fold_card(ra + rb + rc)
        fresh = fresh_oracle(hist, card)
        v = r.value
        return (type(v) is FfiPair and type(v.fst) is FfiList
                and v.snd == FfiInt(card if fresh else 52)
                and [v_of_sh(h) for h in v.fst.items]
                == ([card] if fresh else []) + list(hist))

    return check_disclosure(
        load_program("deal_round"), ABC,
        [(*rands, hist) for hist in held
         for rands in product(offsets, repeat=3)],
        lambda *x: deal_env(dict(zip(ABC.names, x)), held[x[3]]),
        lambda ra, rb, rc, hist: (hist, fold_card(ra + rb + rc)), correct)


# ---------------------------------------------------------------------------
# the program corpus driven by the metatheory checks


@record
class CorpusCell:
    name: str
    program: str
    env: Env
    ps: PrinSet
    min_width: int = 4  # narrowest width at which every value still fits


def corpus(width: int = 32) -> list[CorpusCell]:
    """Representative runs of every bundled program.

    ``width`` sizes the share handles baked into the environments; values in
    the cells are chosen so each cell also runs correctly at its declared
    ``min_width``.
    """
    def fresh(vals, cand):
        return fresh_env(vals, cand, seed=7, width=width)

    deals = {"a": 17, "b": 21, "c": 13}
    return [
        CorpusCell("median/low", "median", median_env((1, 3), (2, 4)), AB),
        CorpusCell("median/high", "median", median_env((2, 5), (3, 7)), AB),
        CorpusCell("median_opt/low", "median_opt",
                   median_env((1, 3), (2, 4)), AB),
        CorpusCell("median_opt/high", "median_opt",
                   median_env((4, 7), (2, 6)), AB),
        CorpusCell("psi/overlap", "psi", psi_env([1, 2, 3], [2, 3, 4]), AB),
        CorpusCell("psi/disjoint", "psi", psi_env([1, 2], [4, 5]), AB),
        CorpusCell("psi/empty", "psi", psi_env([], [1]), AB),
        CorpusCell("psi_interim/overlap", "psi_interim",
                   psi_pair_env([1, 2, 3], [2, 3, 4]), AB),
        CorpusCell("psi_interim/empty", "psi_interim",
                   psi_pair_env([], []), AB),
        CorpusCell("psi_opt/overlap", "psi_opt",
                   psi_pair_env([1, 2, 3], [2, 3, 4]), AB),
        CorpusCell("psi_opt/dup", "psi_opt", psi_pair_env([2, 2], [2, 5]), AB),
        CorpusCell("check_fresh/hit", "check_fresh", fresh([3, 7, 1], 7), ABC),
        CorpusCell("check_fresh/miss", "check_fresh", fresh([3, 7, 1], 5),
                   ABC),
        CorpusCell("check_fresh/empty", "check_fresh", fresh([], 0), ABC),
        CorpusCell("deal/empty-51", "deal_round", deal_env(deals, []), ABC, 9),
        CorpusCell("deal/fresh", "deal_round", deal_env(
            deals, mk_handles([3, 9], seed=7, width=width)), ABC, 9),
        CorpusCell("deal/repeat", "deal_round", deal_env(
            deals, mk_handles([51, 9], seed=7, width=width)), ABC, 9),
    ]
