"""Bundled example applications and their verification harnesses.

Each application ships as a DSL source file under ``programs/`` plus, on the
Python side, builders for its input environment, pure oracles that predict
its value and trace, and exhaustive small-domain checkers for the security
properties the examples exhibit.  The oracles share no code with the
interpreters, so agreement between the two is meaningful evidence.

The accessor ``v_of_sh`` recombines a share handle.  It exists only for
harness code; programs have no way to call it.
"""

from __future__ import annotations

import os
import random
from functools import lru_cache
from itertools import permutations
from typing import Optional, Sequence

from .lang import (
    Bool, Env, Expr, FfiInt, FfiList, FfiPair, PrinSet, Sealed, ShareVal,
    TMsg, TScope, Trace, Value, VMap, WysError, record,
)
from .sexp import parse
from .shares import ShareMint, decode_word
from .st import RunResult, Runtime, run

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
    acc = 0
    for _, w in sh.words:
        assert w is not None
        acc ^= w
    return decode_word(acc, sh.width)


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


def psi_reconstruct(n_a: int, n_b: int, flat: Sequence[bool]) -> list[bool]:
    """Rebuild the optimized trace from the list lengths and pairwise trace.

    Witnesses that the optimized program discloses nothing beyond what the
    pairwise one already does: replay its scan order, skipping the rest of a
    row after a hit and retiring the matched column.
    """
    assert len(flat) == n_a * n_b
    alive = list(range(n_b))
    out = []
    for i in range(n_a):
        for k, j in enumerate(alive):
            bit = flat[i * n_b + j]
            out.append(bit)
            if bit:
                del alive[k]
                break
    return out


def psi_sides(la, lb) -> tuple[list[int], list[int]]:
    """Per-party keeps for the pairwise program, in input order."""
    return [x for x in la if x in lb], [x for x in lb if x in la]


def psi_opt_sides(la, lb) -> tuple[list[int], list[int]]:
    """Per-party keeps for the optimized program (each match consumed once)."""
    rest = list(lb)
    flags = []
    for ax in la:
        if ax in rest:
            flags.append(True)
            rest.remove(ax)
        else:
            flags.append(False)
    ia = [ax for ax, f in zip(la, flags) if f]
    ib = []
    k = 0
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


@record
class Verdict:
    ok: bool
    checked: int
    detail: str = ""

    def __bool__(self) -> bool:
        return self.ok


def sorted_pairs(lo: int, hi: int) -> list[tuple[int, int]]:
    return [(x, y) for x in range(lo, hi + 1)
            for y in range(lo, hi + 1) if x < y]


def check_median_security(lo: int = 1, hi: int = 8, oracle=opt_trace,
                          program: str = "median_opt") -> Verdict:
    """Exhaustively re-checks what the optimized median discloses.

    Every run must compute the true median, its trace must match the trace
    oracle (when one is supplied), and any two runs agreeing on one side's
    input and on the median must produce identical traces: beyond those two
    facts, nothing about the other side leaks.  Pass a deliberately wrong
    oracle or a leaky program variant to confirm the check can fail.
    """
    pairs = sorted_pairs(lo, hi)
    checked = 0
    groups: dict[tuple, Trace] = {}
    for a in pairs:
        for b in pairs:
            if not median_pre(a, b):
                continue
            r = run_app(program, median_env(a, b))
            if r.status != "done":
                return Verdict(False, checked,
                               f"a={a} b={b}: run {r.status} ({r.stuck_reason})")
            m = median_of(a, b)
            if type(r.value) is not FfiInt or r.value.n != m:
                return Verdict(False, checked,
                               f"a={a} b={b}: value {r.value!r}, want {m}")
            if oracle is not None and r.trace != oracle(a, b):
                return Verdict(False, checked,
                               f"a={a} b={b}: trace differs from oracle")
            checked += 1
            for side, own in (("a", a), ("b", b)):
                key = (side, own, m)
                prev = groups.get(key)
                if prev is None:
                    groups[key] = r.trace
                elif prev != r.trace:
                    return Verdict(False, checked,
                                   f"trace varies with the hidden input "
                                   f"(fixed {side}={own}, median {m})")
    return Verdict(True, checked)


def distinct_lists(max_len: int, lo: int, hi: int) -> list[tuple[int, ...]]:
    """All ordered duplicate-free tuples of lengths 0..max_len."""
    dom = range(lo, hi + 1)
    out: list[tuple[int, ...]] = []
    for n in range(max_len + 1):
        out.extend(permutations(dom, n))
    return out


def check_psi_security(max_len: int = 3, lo: int = 1, hi: int = 5) -> Verdict:
    """Checks the two pairwise-psi disclosure claims by enumeration.

    The flag trace reveals no more than the lengths and the intersection:
    input pairs agreeing on those have permutation-equal traces.  And the
    optimized trace adds nothing: it is exactly reconstructible from the
    lengths plus the pairwise trace.
    """
    lists = distinct_lists(max_len, lo, hi)
    checked = 0
    groups: dict[tuple, tuple[int, int]] = {}
    for la in lists:
        for lb in lists:
            flat = trace_psi(la, lb)
            if trace_psi_opt(la, lb) != psi_reconstruct(len(la), len(lb), flat):
                return Verdict(False, checked,
                               f"optimized trace not reconstructible for {la} {lb}")
            key = (len(la), len(lb), frozenset(la) & frozenset(lb))
            hist = (len(flat), sum(flat))  # a multiset of booleans, compactly
            prev = groups.get(key)
            if prev is None:
                groups[key] = hist
            elif prev != hist:
                return Verdict(False, checked,
                               f"trace multiset varies within group {key}")
            checked += 1
    return Verdict(True, checked)


def psi_comparison_count(la: Sequence[int], lb: Sequence[int]) -> tuple[int, int]:
    """Joint-block entry counts of the pairwise vs optimized programs."""
    naive = run_app("psi_interim", psi_pair_env(la, lb))
    opt = run_app("psi_opt", psi_pair_env(la, lb))
    if naive.status != "done" or opt.status != "done":
        raise WysError(f"psi run failed: {naive.status}/{opt.status}")
    return naive.sec_entries, opt.sec_entries


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


def check_cards(max_hist: int = 2, hi: int = 5, deals: int = 0) -> Verdict:
    """Card-dealing suite: share identities, freshness vs the distinctness
    oracle over small histories, and optionally full 52-card deals."""
    from itertools import product

    checked = 0
    for v in range(52):
        if share_identity(v) != v or share_roundtrip(v) != v:
            return Verdict(False, checked, f"share round-trip broke at {v}")
        checked += 1
    for n in range(max_hist + 1):
        for hist in product(range(hi + 1), repeat=n):
            for cand in range(hi + 1):
                r = run_check_fresh(hist, cand)
                want = fresh_oracle(hist, cand)
                if (r.status != "done" or type(r.value) is not Bool
                        or r.value.b is not want):
                    return Verdict(False, checked,
                                   f"freshness wrong for {hist} cand {cand}")
                checked += 1
    for s in range(deals):
        cards = full_deal(s)
        if len(cards) != 52 or len(set(cards)) != 52:
            return Verdict(False, checked, f"deal with seed {s} repeated a card")
        checked += 1
    return Verdict(True, checked)


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

    def c(name, program, env, ps, min_width=4):
        return CorpusCell(name, program, env, ps, min_width)

    return [
        c("median/low", "median", median_env((1, 3), (2, 4)), AB),
        c("median/high", "median", median_env((2, 5), (3, 7)), AB),
        c("median_opt/low", "median_opt", median_env((1, 3), (2, 4)), AB),
        c("median_opt/high", "median_opt", median_env((4, 7), (2, 6)), AB),
        c("psi/overlap", "psi", psi_env([1, 2, 3], [2, 3, 4]), AB),
        c("psi/disjoint", "psi", psi_env([1, 2], [4, 5]), AB),
        c("psi/empty", "psi", psi_env([], [1]), AB),
        c("psi_interim/overlap", "psi_interim",
          psi_pair_env([1, 2, 3], [2, 3, 4]), AB),
        c("psi_interim/empty", "psi_interim", psi_pair_env([], []), AB),
        c("psi_opt/overlap", "psi_opt", psi_pair_env([1, 2, 3], [2, 3, 4]), AB),
        c("psi_opt/dup", "psi_opt", psi_pair_env([2, 2], [2, 5]), AB),
        c("check_fresh/hit", "check_fresh", fresh([3, 7, 1], 7), ABC),
        c("check_fresh/miss", "check_fresh", fresh([3, 7, 1], 5), ABC),
        c("check_fresh/empty", "check_fresh", fresh([], 0), ABC),
        c("deal/empty-51", "deal_round",
          deal_env({"a": 17, "b": 21, "c": 13}, []), ABC, 9),
        c("deal/fresh", "deal_round",
          deal_env({"a": 17, "b": 21, "c": 13},
                   mk_handles([3, 9], seed=7, width=width)), ABC, 9),
        c("deal/repeat", "deal_round",
          deal_env({"a": 17, "b": 21, "c": 13},
                   mk_handles([51, 9], seed=7, width=width)), ABC, 9),
    ]
