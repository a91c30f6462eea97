"""The four workloads: seeded inputs, one pass of operations, and an
independent oracle for every operation.

A pass is the workload's fixed list of operations. The inputs come from the
seed alone, and a run repeats the same pass, so every pass of a run does the
same work; op sizes are fixed per workload so that seeds change values, not
the mix of sizes.

Why each workload exists:

- ``deal_st``: the reference machine's step loop does nearly all the work
  and no ``ds``, ``circuit`` or ``gmw`` code runs. Changes to ``st`` must
  show here; changes to ``ds``, ``circuit`` and ``gmw`` must not.
- ``confluence_ds``: the distributed scheduler's tick loop on corpus-shaped
  cells with the ideal backend; no ``circuit`` or ``gmw`` code runs.
- ``psi_gmw``: one wide, deep two-party joint block per op, driven through
  the CLI, so it is also the only workload on the ``sexp`` and ``inputs``
  path. Per-gate costs dominate.
- ``deal_gmw``: 5 to 29 small three-party circuits per op with share
  handles in and out. Per-circuit fixed costs dominate, so a change that
  pays per circuit to save per gate gains on ``psi_gmw`` and loses here.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from dataclasses import dataclass
from itertools import product
from time import perf_counter

from wysx import apps, cli, ds
from wysx.inputs import value_to_json
from wysx.lang import FfiInt, FfiList, FfiPair, slice_value
from wysx.shares import decode_word
from wysx.st import Runtime

ABC = apps.ABC
AB = apps.AB

FAILED = object()
PROBE_EVERY = 4  # ops between two host-speed probes


@dataclass(frozen=True)
class _Node:
    tag: int
    kids: tuple


def host_probe() -> float:
    """Seconds for a fixed burst of interpreter work shaped like wysx's
    (frozen dataclasses, tuples, dict lookups, type tests). It never
    touches wysx, so it tracks only the host's speed."""
    t = perf_counter()
    table: dict = {}
    acc = 0
    for i in range(400):
        n = _Node(i & 7, (_Node(i, ()), _Node(i + 1, ())))
        table[(n.tag, i & 63)] = n
        hit = table.get((i & 7, (i >> 3) & 63))
        if hit is not None and type(hit) is _Node:
            acc += len(hit.kids)
        acc ^= hash((i, n.tag))
    return perf_counter() - t


class Pass:
    """One sweep of a workload's operations: latencies and verdicts."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.lat: list[float] = []
        self.failed = 0
        self.known_defect = 0
        self.unexpected: list[str] = []
        self.outputs: list = []
        self.probes: list[float] = []
        self.wall = 0.0

    def op(self, fn, *args):
        """Time one operation; an operation that raises has failed."""
        if len(self.lat) % PROBE_EVERY == 0:
            self.probes.append(host_probe())
        if self.tracer is not None:
            self.tracer.op_id += 1
        t = perf_counter()
        try:
            out = fn(*args)
        except Exception as ex:  # noqa: BLE001 - any raise is a failed op
            self.lat.append(perf_counter() - t)
            self.verdict(False, ("raised", type(ex).__name__),
                         f"op raised {type(ex).__name__}: {ex}")
            return FAILED
        self.lat.append(perf_counter() - t)
        return out

    def verdict(self, ok: bool, output, detail: str = "",
                known_defect: bool = False):
        self.outputs.append(output)
        if ok:
            return
        self.failed += 1
        if known_defect:
            self.known_defect += 1
        else:
            self.unexpected.append(detail)


# ---------------------------------------------------------------------------
# card dealing oracle

SENTINEL = 52


def dealt_card(rands: dict[str, int], held: list[int]):
    """Independent oracle for one dealing round: the card is the sum of the
    offsets mod 52, dealt when not yet held, else no card (None)."""
    card = sum(rands.values()) % 52
    return None if card in held else card


def folded_card(rands: dict[str, int], held: list[int]):
    """What ``deal_round.wyx`` computes today: three folds of ``v - 52 if
    v > 52``, which leave the sums 52 and 104 at card 52 and never deal
    card 0 from them."""
    v = sum(rands.values())
    for _ in range(3):
        if v > 52:
            v -= 52
    return None if v in held else v


def check_deal(p: Pass, rands, held, card, new_held):
    """Verdict on one round given the held cards before and after it."""
    want = dealt_card(rands, held)
    ok_shape = new_held == (held if card is None else [card, *held])
    ok = ok_shape and card == want and (card is None or 0 <= card <= 51)
    output = (card, tuple(new_held))
    if ok:
        p.verdict(True, output)
        return
    total = sum(rands.values())
    defect = (ok_shape and total in (52, 104)
              and card == folded_card(rands, held))
    p.verdict(False, output,
              f"rands {rands} held {len(held)}: dealt {card}, want {want}",
              known_defect=defect)


# ---------------------------------------------------------------------------
# workloads


class DealSt:
    """One op is one dealing round as ``apps.deal_card`` runs it (``st.run``
    of ``deal_round`` for a, b, c). Rounds chain into full 52-card deals as
    in ``apps.full_deal``, so the history ramps from 0 to 51 in each deal.
    Four deals per pass keep the mix of history lengths within a few
    percent across seeds."""

    name = "deal_st"
    DEALS = 4
    MAX_ROUNDS = 5000

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        apps.load_program("deal_round")

    def run_pass(self, p: Pass):
        for i in range(self.DEALS):
            rngs = {q: random.Random(f"deal|{self.seed}|{i}|{q}")
                    for q in ABC.names}
            rt = Runtime(seed=self.seed)
            hist: list = []
            held: list[int] = []
            dealt = 0
            for _ in range(self.MAX_ROUNDS):
                if dealt == 52:
                    break
                rands = {}
                for q in ABC.names:
                    peek = random.Random()
                    peek.setstate(rngs[q].getstate())
                    rands[q] = peek.randrange(52)
                out = p.op(apps.deal_card, hist, rngs, rt)
                if out is FAILED:
                    break
                hist, card = out
                new_held = [apps.v_of_sh(h) for h in hist]
                check_deal(p, rands, held, card, new_held)
                held = new_held
                dealt += card is not None
            else:
                p.verdict(False, ("no full deal", i),
                          f"deal {i}: no 52 cards in {self.MAX_ROUNDS} rounds")


class ConfluenceDs:
    """One op is one ``ds.check_confluence`` verdict under the ideal backend
    with ``SCHEDULES`` seeded schedules, on cells drawn as in the backend
    equivalence criterion: ``median_opt``, ``psi_interim`` and ``psi_opt``
    over every pair of list lengths 0-3, ``check_fresh`` with a history of
    0-5 and ``deal_round`` with a history of 0-3; ``REPS`` draws of each.
    A ``psi_opt`` cell's cost swings by up to 40% with the overlap of its
    two lists, so the overlap is fixed per draw and pair of lengths, and
    cycles through the possible counts across the draws; the values stay
    random."""

    name = "confluence_ds"
    SCHEDULES = 4
    REPS = 3
    MEDIANS = 4

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.cells = []
        for prog in ("median_opt", "psi_interim", "psi_opt", "check_fresh",
                     "deal_round"):
            apps.load_program(prog)
        rng = random.Random(f"confluence|{seed}")
        for r in range(self.REPS):
            self._draw(rng, r)

    def _draw(self, rng, r: int):
        for _ in range(self.MEDIANS):
            vals = sorted(rng.sample(range(1, 10 ** 6), 4))
            self.cells.append(("median_opt", apps.median_env(
                (vals[0], vals[2]), (vals[1], vals[3])), AB))
        for prog in ("psi_interim", "psi_opt"):
            for na, nb in product(range(4), repeat=2):
                la = rng.sample(range(1, 7), na)
                overlap = (r + na + nb) % (min(na, nb) + 1)
                others = [x for x in range(1, 7) if x not in la]
                lb = rng.sample(la, overlap) + rng.sample(others,
                                                          nb - overlap)
                rng.shuffle(lb)
                self.cells.append((prog, apps.psi_pair_env(la, lb), AB))
        for h in range(6):
            hist = [rng.randrange(8) for _ in range(h)]
            env = apps.fresh_env(hist, rng.randrange(8),
                                 seed=rng.randrange(1 << 30))
            self.cells.append(("check_fresh", env, ABC))
        for h in range(4):
            rands = {q: rng.randrange(52) for q in ABC.names}
            hist = apps.mk_handles(rng.sample(range(52), h),
                                   seed=rng.randrange(1 << 30))
            self.cells.append(("deal_round", apps.deal_env(rands, hist), ABC))

    def run_pass(self, p: Pass):
        for prog, env, ps in self.cells:
            expr = apps.load_program(prog)
            rep = p.op(ds.check_confluence, expr, env, ps, self.seed, 32,
                       self.SCHEDULES)
            if rep is FAILED:
                continue
            p.verdict(rep.status == "pass", (rep.status, rep.detail),
                      f"{prog}: confluence {rep.status}: {rep.detail}")


class PsiGmw:
    """One op is ``wysx run psi --mode ds --backend gmw --inputs a=... b=...``
    through ``wysx.cli.main`` on per-party JSON files written during set-up.
    Both lists are duplicate-free, of equal size n, with a seeded overlap.
    The 100 sizes per pass put the median op inside the n = 8 group and the
    90th percentile inside the n = 16 group."""

    name = "psi_gmw"
    SIZES = (4,) * 40 + (8,) * 30 + (12,) * 18 + (16,) * 12

    def __init__(self, seed: int, workdir: str):
        apps.load_program("psi")
        self.cases = []
        for k, n in enumerate(self.SIZES):
            rng = random.Random(f"psi|{seed}|{k}")
            la = rng.sample(range(1, 1000), n)
            overlap = rng.randint(0, n)
            others = [x for x in range(1, 1000) if x not in la]
            lb = rng.sample(la, overlap) + rng.sample(others, n - overlap)
            rng.shuffle(lb)
            env = apps.psi_env(la, lb)
            argv = ["run", "psi", "--mode", "ds", "--backend", "gmw",
                    "--inputs"]
            for q in AB.names:
                path = os.path.join(workdir, f"psi{k}_{q}.json")
                view = {x: value_to_json(slice_value(q, v))
                        for x, v in env.items()}
                with open(path, "w", encoding="utf-8") as fh:
                    json.dump(view, fh)
                argv.append(f"{q}={path}")
            self.cases.append((argv, apps.intersection(la, lb)))

    @staticmethod
    def _cli(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
        return rc, out.getvalue(), err.getvalue()

    def run_pass(self, p: Pass):
        for argv, want in self.cases:
            res = p.op(self._cli, argv)
            if res is FAILED:
                continue
            rc, out, err = res
            try:
                got = {q: v["value"]
                       for q, v in json.loads(out)["parties"].items()}
            except (ValueError, KeyError, TypeError, AttributeError):
                got = None  # no result printed, or not in the CLI's shape
            ok = rc == 0 and got == {q: want for q in AB.names}
            p.verdict(ok, out, f"psi exit {rc}: got {got}, want {want} "
                               f"{err.strip()}")


class DealGmw:
    """One op is ``ds.ds_run(deal_round, backend="gmw")`` over a, b, c with
    random offsets and a history of 0-24 distinct cards as share handles
    from ``apps.mk_handles``; every history length appears four times per
    pass. A round whose card is already held is much cheaper than one that
    deals it, so how many rounds find their card held is fixed per history
    length, at the expected share: ``round(4 * h / 52)`` of the four rounds
    with history h, 23 per pass. The offsets stay uniform, so the sums 52 and
    104 of the card-52 fold come up as often as without this."""

    name = "deal_gmw"
    LENGTHS = 25
    REPS = 4
    HISTORIES = tuple(range(LENGTHS)) * REPS

    def __init__(self, seed: int, workdir: str):
        self.prog = apps.load_program("deal_round")
        self.cases = []
        for k, h in enumerate(self.HISTORIES):
            rng = random.Random(f"deal_gmw|{seed}|{k}")
            rands = {q: rng.randrange(52) for q in ABC.names}
            card = sum(rands.values()) % 52
            others = [c for c in range(52) if c != card]
            if k // self.LENGTHS < round(self.REPS * h / 52):
                held = [card, *rng.sample(others, h - 1)]
                rng.shuffle(held)
            else:
                held = rng.sample(others, h)
            hist = apps.mk_handles(held, seed=rng.randrange(1 << 30))
            self.cases.append((apps.deal_env(rands, hist), rands, held,
                               rng.randrange(1 << 30)))

    def _run(self, env, rt_seed):
        return ds.ds_run(self.prog, env, ABC, Runtime(seed=rt_seed),
                         backend="gmw")

    def run_pass(self, p: Pass):
        for env, rands, held, rt_seed in self.cases:
            res = p.op(self._run, env, rt_seed)
            if res is FAILED:
                continue
            views = self._views(res)
            if views is None:
                p.verdict(False, (res.status, res.reason),
                          f"deal_gmw: run {res.status}: {res.reason}")
                continue
            card, new_held = views
            if card == SENTINEL and len(new_held) == len(held):
                card = None
            check_deal(p, rands, held, card, new_held)

    @staticmethod
    def _views(res):
        """The published card and the history's values, recombined from
        every party's words; None unless all parties agree on the shape."""
        if res.status != "done":
            return None
        views = [res.parties[q][0] for q in ABC.names]
        if any(type(v) is not FfiPair or type(v.fst) is not FfiList
               or type(v.snd) is not FfiInt for v in views):
            return None
        cards = {v.snd.n for v in views}
        lengths = {len(v.fst.items) for v in views}
        if len(cards) != 1 or len(lengths) != 1:
            return None
        held = []
        for i in range(lengths.pop()):
            acc = 0
            for v in views:
                for _, w in v.fst.items[i].words:
                    acc ^= w
            held.append(decode_word(acc, 32))
        return cards.pop(), held


WORKLOADS = {w.name: w for w in (DealSt, ConfluenceDs, PsiGmw, DealGmw)}
