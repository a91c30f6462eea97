"""Application programs against their pure oracles."""

import itertools

import pytest

from wysx.lang import (
    Bool, Env, FfiInt, PrinSet, ShareVal, TMsg, TScope, WysError,
)
from wysx import apps
from wysx.apps import (
    DeckExhausted, check_cards, check_median_security, check_psi_security,
    corpus, deal_card, distinct_lists, fold_card, fresh_oracle, full_deal,
    median_env, median_of, median_pre, median_trace, mk_handles, opt_trace,
    psi_comparison_count, psi_env, psi_opt_sides, psi_pair_env,
    psi_sides, public_msgs, run_app, run_check_fresh,
    share_identity, share_roundtrip, trace_psi, trace_psi_opt,
)
from wysx.ds import check_simulation
from wysx.sexp import parse
from wysx.shares import ShareMint
from wysx.st import CheckReport, Runtime

import random

A = PrinSet.of("a")
B = PrinSet.of("b")
AB = PrinSet.of("a", "b")


def test_an_unknown_program_name_is_refused():
    with pytest.raises(WysError) as ex:
        apps.program_source("nope")
    assert str(ex.value) == "no bundled program named 'nope'"


# oracle self-checks

def test_median_of_examples():
    assert median_of((1, 3), (2, 4)) == 2
    assert median_of((1, 2), (3, 4)) == 2
    assert median_of((1, 4), (2, 3)) == 2
    assert median_of((2, 7), (3, 5)) == 3
    assert median_of((5, 6), (1, 8)) == 5


def test_median_of_is_second_smallest():
    rng = random.Random(1)
    for _ in range(300):
        xs = rng.sample(range(1, 100), 4)
        a, b = (xs[0], xs[1]), (xs[2], xs[3])
        if not median_pre(a, b):
            continue
        assert median_of(a, b) == sorted(xs)[1]


def test_median_pre():
    assert median_pre((1, 3), (2, 4))
    assert not median_pre((3, 1), (2, 4))   # unsorted input
    assert not median_pre((1, 3), (3, 4))   # duplicate across sides


def test_opt_trace_shape():
    t = opt_trace((1, 3), (2, 4))
    assert t == (TMsg(Bool(False)), TScope(A, ()), TScope(B, ()),
                 TMsg(FfiInt(2)))
    t2 = opt_trace((5, 6), (1, 8))
    assert t2[0] == TMsg(Bool(True))
    assert t2[-1] == TMsg(FfiInt(5))


def test_trace_psi_is_row_major():
    assert trace_psi([1, 2], [2, 3]) == [False, False, True, False]
    assert trace_psi([], [1]) == []
    assert trace_psi([1], []) == []


def test_trace_psi_opt_skips_work():
    # after a hit the row ends and the matched column retires
    assert trace_psi_opt([1, 2], [1, 2]) == [True, True]
    assert trace_psi_opt([1, 2], [2, 3]) == [False, False, True]
    full = trace_psi([4, 5, 6], [6, 5, 9])
    opt = trace_psi_opt([4, 5, 6], [6, 5, 9])
    assert len(opt) <= len(full)
    assert opt.count(True) == full.count(True)


def test_psi_sides_and_opt_sides_agree_as_multisets():
    rng = random.Random(9)
    for _ in range(300):
        la = rng.sample(range(1, 9), rng.randint(0, 3))
        lb = rng.sample(range(1, 9), rng.randint(0, 3))
        ia, ib = psi_sides(la, lb)
        ja, jb = psi_opt_sides(la, lb)
        assert sorted(ia) == sorted(ja), (la, lb)
        assert sorted(ib) == sorted(jb), (la, lb)
        assert sorted(ia) == sorted(set(la) & set(lb)), (la, lb)


def test_distinct_lists_enumeration():
    ls = distinct_lists(2, 3)
    # 1 empty + 3 singletons + 6 ordered pairs
    assert len(ls) == 10
    assert all(len(set(l)) == len(l) for l in ls)
    assert len(distinct_lists(3, 5)) == 1 + 5 + 20 + 60
    assert len(distinct_lists(3, 4)) == 41


def test_fold_card_folds_as_the_program_does():
    # three conditional subtractions of 52, so 52 and 104 both give 52
    assert [fold_card(s) for s in (0, 52, 53, 104, 105, 153)] == \
        [0, 52, 1, 52, 1, 49]


def test_fresh_oracle():
    assert fresh_oracle([3, 7], 5)
    assert not fresh_oracle([3, 7], 7)
    assert fresh_oracle([], 0)


# median programs

def test_median_program_pinned_examples():
    for a, b, want in [((1, 3), (2, 4), 2), ((1, 2), (3, 4), 2),
                       ((1, 4), (2, 3), 2)]:
        r = run_app("median", median_env(a, b))
        assert r.status == "done"
        assert r.value == FfiInt(want)
        assert r.trace == (TMsg(FfiInt(want)),)


def test_median_program_small_sweep():
    lo, hi = 1, 6
    checked = 0
    for xs in itertools.permutations(range(lo, hi + 1), 4):
        a, b = (xs[0], xs[1]), (xs[2], xs[3])
        if not median_pre(a, b):
            continue
        r = run_app("median", median_env(a, b))
        assert r.status == "done", (a, b)
        assert r.value == FfiInt(median_of(a, b)), (a, b)
        assert r.trace == median_trace(a, b), (a, b)
        checked += 1
    assert checked > 50


def test_median_opt_program_matches_trace_oracle():
    for xs in itertools.permutations(range(1, 6), 4):
        a, b = (xs[0], xs[1]), (xs[2], xs[3])
        if not median_pre(a, b):
            continue
        r = run_app("median_opt", median_env(a, b))
        assert r.status == "done", (a, b)
        assert r.value == FfiInt(median_of(a, b)), (a, b)
        assert r.trace == opt_trace(a, b), (a, b)


def test_median_security_holds_on_small_domain():
    v = check_median_security(5)
    assert v.status == "pass", v.detail
    assert v.checked > 0 and v.groups > 0


def test_median_security_catches_scopeless_oracle():
    def no_scopes(a, b):
        return tuple(ev for ev in opt_trace(a, b) if type(ev) is TMsg)
    v = check_median_security(5, oracle=no_scopes)
    assert v == CheckReport("fail", "(1, 2) (3, 4): result differs from "
                            "oracle")


def test_median_security_catches_a_wrong_median(monkeypatch):
    # an oracle of the upper median: the runs' values must refute it
    monkeypatch.setattr(apps, "median_of", lambda a, b: sorted((*a, *b))[2])
    v = check_median_security(5)
    assert v == CheckReport("fail", "(1, 2) (3, 4): result differs from "
                            "oracle")


def test_median_security_catches_leaky_program():
    # the leak only shows up once the domain is wide enough to hold two
    # runs that agree on one party's view but disagree on the leaked value
    v = check_median_security(8, oracle=None, program="median_opt_leak")
    assert v == CheckReport("fail", "b's view varies beyond the policy "
                            "(own input (2, 4), policy 2)")


def test_median_security_catches_a_run_that_sticks():
    v = check_median_security(4, program="psi")
    assert v.status == "fail"
    assert v.detail.startswith("(1, 2) (3, 4): run stuck (")


def test_median_security_that_checks_no_case_is_vacuous():
    # the precondition needs two distinct values on each side
    assert check_median_security(1) == CheckReport(
        "vacuous", "the suite checked no cases")


# psi programs

PSI_CASES = [
    ([1, 2, 3], [2, 3, 4]),
    ([1, 2], [3, 4]),
    ([], []),
    ([], [1, 2]),
    ([5], [5]),
    ([4, 1], [1, 4]),
]


def test_psi_program_values():
    for la, lb in PSI_CASES:
        r = run_app("psi", psi_env(la, lb))
        assert r.status == "done", (la, lb)
        got = [v.n for v in r.value.items]
        assert sorted(got) == sorted(set(la) & set(lb)), (la, lb)


def test_psi_interim_program_sides():
    for la, lb in PSI_CASES:
        r = run_app("psi_interim", psi_pair_env(la, lb))
        assert r.status == "done", (la, lb)
        ia = [v.n for v in r.value.get("a").items]
        ib = [v.n for v in r.value.get("b").items]
        ja, jb = psi_sides(la, lb)
        assert ia == ja and ib == jb, (la, lb)


def test_psi_opt_program_sides():
    for la, lb in PSI_CASES:
        r = run_app("psi_opt", psi_pair_env(la, lb))
        assert r.status == "done", (la, lb)
        ia = [v.n for v in r.value.get("a").items]
        ib = [v.n for v in r.value.get("b").items]
        ja, jb = psi_opt_sides(la, lb)
        assert ia == ja and ib == jb, (la, lb)


def test_psi_interim_trace_matches_oracle():
    for la, lb in PSI_CASES:
        r = run_app("psi_interim", psi_pair_env(la, lb))
        got = [m.b for m in public_msgs(r.trace)]
        assert got == trace_psi(la, lb), (la, lb)


def test_psi_opt_trace_matches_oracle():
    for la, lb in PSI_CASES:
        r = run_app("psi_opt", psi_pair_env(la, lb))
        got = [m.b for m in public_msgs(r.trace)]
        assert got == trace_psi_opt(la, lb), (la, lb)


def test_psi_comparison_counts_pinned():
    assert psi_comparison_count([1, 2], [3, 4]) == (4, 4)
    assert psi_comparison_count([1, 2], [1, 2]) == (4, 2)
    assert psi_comparison_count([], [1]) == (0, 0)
    assert psi_comparison_count([1, 2], [2, 3]) == (4, 3)


def test_psi_comparison_count_refuses_a_run_that_sticks(monkeypatch):
    # with no inputs bound, both programs stick
    monkeypatch.setattr(apps, "psi_pair_env", lambda la, lb: Env())
    with pytest.raises(WysError) as ex:
        psi_comparison_count([1], [2])
    assert str(ex.value) == (
        "psi run failed: psi_interim stuck at var: unbound variable in_a; "
        "psi_opt stuck at var: unbound variable in_a")


def test_psi_opt_never_does_more_work():
    for la, lb in PSI_CASES:
        naive, opt = psi_comparison_count(la, lb)
        assert opt <= naive, (la, lb)
        assert naive == len(la) * len(lb)


def test_psi_security_small_domain():
    v = check_psi_security(3)
    assert v.status == "pass", v.detail
    # three programs on every pair of the 16 lists over 1..3
    assert v.checked == 3 * 16 * 16
    assert v.groups > 0


def test_psi_security_runs_the_programs(monkeypatch):
    # A wrong oracle: b's items scanned against a's, the transpose of the
    # program's order. It publishes as many flags and as many hits, so
    # only the runs can tell it from the right one.
    monkeypatch.setattr(apps, "trace_psi",
                        lambda la, lb: [ax == bx for bx in lb for ax in la])
    v = check_psi_security(3)
    assert v == CheckReport("fail", "psi_interim (1, 2) (2, 3): result "
                            "differs from oracle")


def test_psi_security_checks_the_published_intersection(monkeypatch):
    monkeypatch.setattr(apps, "intersection",
                        lambda la, lb: [x for x in lb if x in la])
    v = check_psi_security(3)
    assert v == CheckReport("fail", "psi (1, 2) (2, 1): result differs "
                            "from oracle")


def test_psi_security_catches_a_policy_without_the_intersection(monkeypatch):
    monkeypatch.setattr(apps, "psi_policy", lambda la, lb: (len(la), len(lb)))
    v = check_psi_security(3)
    assert v == CheckReport("fail", "psi a's view varies beyond the policy "
                            "(own input (1,), policy (1, 1))")


# card dealing

def test_share_identity_all_cards():
    for v in range(0, 52):
        assert share_identity(v, seed=v) == v
        assert share_roundtrip(v, seed=v) == v


def test_check_fresh_pinned_examples():
    r = run_check_fresh([3, 7], 7)
    assert r.status == "done" and r.value == Bool(False)
    r = run_check_fresh([], 3)
    assert r.status == "done" and r.value == Bool(True)
    r = run_check_fresh([3, 7], 5)
    assert r.status == "done" and r.value == Bool(True)


def test_check_fresh_matches_oracle_small():
    for hist_len in range(0, 3):
        for hist in itertools.permutations(range(0, 5), hist_len):
            for cand in range(0, 5):
                r = run_check_fresh(hist, cand, seed=1)
                assert r.status == "done", (hist, cand)
                assert r.value == Bool(fresh_oracle(hist, cand)), (hist, cand)


def test_check_fresh_publishes_one_bit_per_probe():
    r = run_check_fresh([4, 9, 2], 9)
    bits = [m.b for m in public_msgs(r.trace)]
    # stops at the first hit: [4 no, 9 yes]
    assert bits == [False, True]
    r2 = run_check_fresh([4, 9, 2], 7)
    assert [m.b for m in public_msgs(r2.trace)] == [False, False, False]


def test_deal_card_appends_fresh_card():
    rngs = {p: random.Random(f"t|{p}") for p in ("a", "b", "c")}
    hist, card = deal_card([], rngs)
    # three contributions below 52, folded by conditional subtraction,
    # land in 0..52 inclusive
    assert card is not None and 0 <= card <= 52
    assert len(hist) == 1


class FixedRng:
    def __init__(self, n):
        self.n = n

    def randrange(self, stop):
        return self.n


def test_deal_card_signals_repeats():
    rt = Runtime(seed=7, width=32)
    hist0 = mk_handles([13], seed=7)
    # the contributions reproduce 13 (4+4+5), so the round reports a clash
    rngs = {"a": FixedRng(4), "b": FixedRng(4), "c": FixedRng(5)}
    hist, card = deal_card(hist0, rngs, rt)
    assert card is None
    assert len(hist) == 1
    # a clean draw goes through against the same history
    rngs2 = {"a": FixedRng(10), "b": FixedRng(20), "c": FixedRng(11)}
    hist2, card2 = deal_card(hist0, rngs2, rt)
    assert card2 == 41
    assert len(hist2) == 2


def test_deal_card_raises_when_deck_is_done():
    rt = Runtime(seed=3, width=32)
    hist = mk_handles(list(range(52)), seed=3)
    rngs = {p: random.Random(p) for p in ("a", "b", "c")}
    with pytest.raises(DeckExhausted):
        deal_card(hist, rngs, rt)


def test_deal_card_names_why_a_round_sticks():
    # a history handle held by {a,b} cannot be recombined by all three
    h = ShareVal.of(AB, ShareMint(0).mint_words(AB, 5, 32), 32)
    rngs = {p: random.Random(p) for p in ("a", "b", "c")}
    with pytest.raises(WysError) as ex:
        deal_card([h], rngs)
    assert str(ex.value) == ("dealing round stuck: PartySetMismatch: handle "
                             "for {a,b} recombined by {a,b,c}")


def test_full_deal_gives_up_after_max_rounds():
    with pytest.raises(DeckExhausted) as ex:
        full_deal(0, max_rounds=1)
    assert str(ex.value) == "no full deal for seed 0 in 1 rounds"


def test_full_deal_is_distinct():
    cards = full_deal(seed=0)
    assert len(cards) == 52
    assert len(set(cards)) == 52
    # the folded card space is 0..52, one value stays in the deck
    assert all(0 <= c <= 52 for c in cards)


def test_check_cards_verdict():
    v = check_cards(2)
    assert v.status == "pass", v.detail
    # 4 offsets for each of three parties, on each of 5 histories
    assert v.checked == 4 ** 3 * 5
    assert v.groups > 0


def leaky_deal():
    """``deal_round`` that also publishes a's offset from a joint block."""
    src = apps.program_source("deal_round")
    at = src.index("(let sh0 ")
    return parse(src[:at] + "(let leak (as_sec (prins a b c) (lam _ "
                 "(reveal r1)))\n" + src[at:] + ")")


def test_check_cards_catches_a_published_offset(monkeypatch):
    leaky = leaky_deal()
    monkeypatch.setattr(apps, "load_program", lambda name: leaky)
    v = check_cards(2)
    assert v == CheckReport("fail", "b's view varies beyond the policy "
                            "(own input 0, policy ((), 1))")


def test_check_cards_catches_reused_masks(monkeypatch):
    # every handle of a party set gets the masks of its first draw
    def draw_first(self, ps, width):
        return {p: self._mask(ps, 0, p, width) for p in ps.names[:-1]}

    monkeypatch.setattr(ShareMint, "draw_masks", draw_first)
    # 0 + 50 + 50 = 100 is the first sum that folds, so the first run
    # whose minted handles hold two values
    assert check_cards(2) == CheckReport(
        "fail", "0 50 50 (): two handles share a mask")


def test_check_cards_checks_the_dealt_value(monkeypatch):
    # an oracle that never sees a repeat: history (1,) deals 1 at 0 + 0 + 1
    monkeypatch.setattr(apps, "fresh_oracle", lambda hist, card: True)
    assert check_cards(2) == CheckReport(
        "fail", "0 0 1 (1,): result differs from oracle")


def test_check_cards_checks_share_round_trips(monkeypatch):
    monkeypatch.setattr(apps, "share_roundtrip", lambda v: v + 1)
    assert check_cards(2) == CheckReport(
        "fail", "share round-trip broke at 0")


# corpus

def test_corpus_cells_all_run_clean():
    cells = corpus()
    assert len(cells) >= 12
    names = {c.name for c in cells}
    assert len(names) == len(cells)
    # every cell must simulate, that is the whole point of the corpus
    for cell in cells:
        rep = check_simulation(apps.load_program(cell.program), cell.env,
                               cell.ps)
        assert rep.status == "pass", (cell.name, rep.detail)


def test_corpus_supports_narrow_widths():
    for cell in corpus(width=4):
        if cell.min_width <= 4:
            rep = check_simulation(apps.load_program(cell.program), cell.env,
                                   cell.ps, width=4)
            assert rep.status == "pass", (cell.name, rep.detail)
