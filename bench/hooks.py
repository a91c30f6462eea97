"""Hooks the benchmark installs on wysx from its own files.

Every hook replaces a public function at the place its caller looks it up
(``ds.py`` imports ``machine_step``, ``gmw_eval`` and ``compile_sec_thunk``
by name, ``cli.py`` imports ``ds_run`` by name, and so on), calls the
original and restores it on ``uninstall``. Nothing under ``src/`` changes.

``GmwCounter`` is the only hook of an untraced run: ``ds_run`` drops each
block's ``GmwResult``, so rounds and bits sent are read here, once per
block. ``Tracer`` is the traced run: spans at coarse layer boundaries, and
count plus accumulated time for the calls made hundreds of thousands of
times, folded into the span that encloses them.
"""

from __future__ import annotations

import time
from collections import Counter

from wysx import apps, cli, ds, ffi, inputs, shares

perf = time.perf_counter

BIT_KINDS = ("input", "open", "output")


class Patches:
    """Attribute replacements that can be undone in reverse order."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def set(self, owner, attr: str, make):
        orig = getattr(owner, attr)
        self._saved.append((owner, attr, orig))
        setattr(owner, attr, make(orig))

    def undo(self):
        while self._saved:
            owner, attr, orig = self._saved.pop()
            setattr(owner, attr, orig)


class GmwCounter:
    """Count-only hook on ``wysx.ds.gmw_eval``: exact rounds, triples and
    bits per kind, summed over every block evaluated."""

    def __init__(self, keep_blocks: bool = False):
        self.patches = Patches()
        self.blocks: dict[int, dict] | None = {} if keep_blocks else None
        self.reset()

    def reset(self):
        self.evals = 0
        self.rounds = 0
        self.and_rounds = 0
        self.triples = 0
        self.bits = dict.fromkeys(BIT_KINDS, 0)

    def record(self, circ, res):
        bits = dict.fromkeys(BIT_KINDS, 0)
        for ch in res.channels.values():
            for kind, n in ch.sent.items():
                bits[kind] += n
        self.evals += 1
        self.rounds += res.rounds
        self.and_rounds += res.and_rounds
        self.triples += res.triples_used
        for kind, n in bits.items():
            self.bits[kind] += n
        if self.blocks is not None:
            self.blocks[id(circ)] = {
                "rounds": res.rounds, "and_rounds": res.and_rounds,
                "triples": res.triples_used, "bits": bits}

    def snapshot(self) -> dict:
        return {"evals": self.evals, "rounds": self.rounds,
                "and_rounds": self.and_rounds, "triples": self.triples,
                **{f"bits.{k}": v for k, v in self.bits.items()}}

    def install(self):
        def make(orig):
            def gmw_eval(circ, party_inputs, dealer_seed):
                res = orig(circ, party_inputs, dealer_seed)
                self.record(circ, res)
                return res
            return gmw_eval
        self.patches.set(ds, "gmw_eval", make)

    def uninstall(self):
        self.patches.undo()


class Tracer:
    """Spans at layer boundaries plus aggregated hot calls.

    A span is ``(name, start, end, parent span id, op id, hot)``, where
    ``hot`` maps each hot call made directly under the span to
    ``[count, seconds]``. ``self_s`` accumulates, per hook name, the time
    not covered by nested hooks, so the layers' self times add up to the
    traced wall time.
    """

    def __init__(self):
        self.patches = Patches()
        self.spans: list = []
        self.span_hot: dict[int, dict] = {}
        self.stack: list[list[float]] = []
        self.cur = -1
        self.op_id = -1
        self.reset()

    def reset(self):
        self.calls: Counter = Counter()
        self.total_s: Counter = Counter()
        self.self_s: Counter = Counter()
        self.counts: Counter = Counter()

    # -- wrappers ----------------------------------------------------------

    def _span(self, name: str, after=None):
        def make(orig):
            def wrapper(*args, **kw):
                stack = self.stack
                parent = self.cur
                sid = len(self.spans)
                self.spans.append(None)
                self.cur = sid
                frame = [perf(), 0.0]
                stack.append(frame)
                try:
                    out = orig(*args, **kw)
                finally:
                    end = perf()
                    stack.pop()
                    self.cur = parent
                    dur = end - frame[0]
                    if stack:
                        stack[-1][1] += dur
                    self.calls[name] += 1
                    self.total_s[name] += dur
                    self.self_s[name] += dur - frame[1]
                    self.spans[sid] = (name, frame[0], end, parent,
                                       self.op_id, self.span_hot.pop(sid, None))
                if after is not None:
                    after(out)
                return out
            return wrapper
        return make

    def _hot(self, name: str):
        def make(orig):
            def wrapper(*args, **kw):
                stack = self.stack
                frame = [perf(), 0.0]
                stack.append(frame)
                try:
                    return orig(*args, **kw)
                finally:
                    dur = perf() - frame[0]
                    stack.pop()
                    if stack:
                        stack[-1][1] += dur
                    self.calls[name] += 1
                    self.total_s[name] += dur
                    self.self_s[name] += dur - frame[1]
                    agg = self.span_hot.setdefault(self.cur, {})
                    slot = agg.get(name)
                    if slot is None:
                        agg[name] = [1, dur]
                    else:
                        slot[0] += 1
                        slot[1] += dur
            return wrapper
        return make

    def _count_moves(self, orig):
        def pick(sched, moves):
            move = orig(sched, moves)
            self.counts["ds.moves." + move[0].replace("-", "_")] += 1
            return move
        return pick

    # -- what each wrapped call adds to the exact counters -----------------

    def _after_st_run(self, r):
        self.counts["st.steps"] += r.steps
        self.counts["st.sec_entries"] += r.sec_entries

    def _after_ds_run(self, r):
        self.counts["ds.ticks"] += r.ticks

    def _after_compile(self, circ):
        self.counts["circuit.gates"] += len(circ.gates)
        self.counts["circuit.ands"] += circ.and_count
        self.counts["circuit.and_depth"] += circ.and_depth

    def install(self):
        p = self.patches
        span, hot = self._span, self._hot
        # coarse calls: one span each
        p.set(cli, "main", span("cli.main"))
        p.set(apps, "deal_card", span("apps.deal_card"))
        for mod, attr in ((apps, "run"), (cli, "run"), (ds, "st_run")):
            p.set(mod, attr, span("st.run", self._after_st_run))
        for mod in (ds, cli):
            p.set(mod, "ds_run", span("ds.ds_run", self._after_ds_run))
        p.set(ds, "check_confluence", span("ds.check_confluence"))
        p.set(ds, "compile_sec_thunk",
              span("circuit.compile_sec_thunk", self._after_compile))
        p.set(ds, "bind_inputs", span("circuit.bind_inputs"))
        p.set(ds, "gmw_eval", span("gmw.gmw_eval"))
        p.set(ds, "decode_output", span("circuit.decode_output"))
        p.set(cli, "load_env_file", span("inputs.load_env_file"))
        p.set(inputs, "env_from_json", span("inputs.env_from_json"))
        p.set(cli, "value_to_json", span("inputs.value_to_json"))
        p.set(cli, "trace_to_json", span("inputs.trace_to_json"))
        for mod in (apps, cli):
            p.set(mod, "parse", span("sexp.parse"))
        # hot calls: aggregated into the enclosing span
        p.set(ds, "machine_step", hot("ds.machine_step"))
        p.set(ds, "st_step", hot("ds.st_step"))
        p.set(ffi, "exec_ffi", hot("ffi.exec_ffi"))
        p.set(shares.ShareMint, "draw_masks", hot("shares.draw_masks"))
        for mod in (ds, cli):
            p.set(mod, "combine_envs", hot("lang.combine_envs"))
        p.set(ds, "slice_env", hot("lang.slice_env"))
        p.set(ds, "slice_value", hot("lang.slice_value"))
        p.set(ds.RoundRobin, "pick", self._count_moves)
        p.set(ds.SeededRandom, "pick", self._count_moves)

    def uninstall(self):
        self.patches.undo()

    def outer_s(self, names: set, first: int = 0) -> float:
        """Time inside spans named in ``names`` that are not nested in
        another span of the group, over spans recorded from ``first``."""
        spans = self.spans
        total = 0.0
        for sp in spans[first:]:
            if sp is None or sp[0] not in names:
                continue
            parent = sp[3]
            if parent >= 0 and spans[parent] is not None \
                    and spans[parent][0] in names:
                continue
            total += sp[2] - sp[1]
        return total
