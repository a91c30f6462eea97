"""Execution of compiled circuits under xor sharing.

Classic semi-honest protocol: every wire is split into one-bit xor shares,
one per party. XOR and NOT gates are local; each AND gate consumes one
precomputed multiplication triple and costs every ordered pair of parties
exactly two opened bits (the two blinded operands). Triples come from a
seeded dealer, standing in for an offline phase.

The run is simulated in rounds over FIFO channels: one round to share
inputs, one round per layer of AND gates, one round to reveal outputs to
their recipients. The layers are the ones the circuit builder files each
gate under as it emits it: round r evaluates the local gates of AND-depth r
and then opens every AND gate of depth r + 1 at once. Gates are plain
(op, out, a, b) tuples, read by unpacking. Each party keeps its shares in a
list indexed by wire and handles a layer as packed words, one bit per gate,
so a layer's triples are three words per party and each message is one word
with an explicit bit count. Wire identities never travel; both ends derive message
layout from the public circuit, so channel payloads are pure bits and the
per-kind counters pin the protocol's exact communication pattern.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass

from .circuit import Circuit, NOT, XOR
from .lang import WysError


class ProtocolError(WysError):
    pass


class Channel:
    """One-directional FIFO link with per-kind bit counters."""

    def __init__(self, src: str, dst: str):
        self.src = src
        self.dst = dst
        self.queue: deque = deque()
        self.sent: dict[str, int] = {"input": 0, "open": 0, "output": 0}

    def send(self, kind: str, n: int, word: int):
        """Queue the ``n`` low bits of ``word``."""
        self.sent[kind] += n
        self.queue.append((kind, n, word))

    def recv(self, kind: str, n: int) -> int:
        """The next message, which must be of ``kind`` and ``n`` bits."""
        if not self.queue:
            raise ProtocolError(f"{self.dst} expected {kind} from {self.src}, "
                                f"channel empty")
        got_kind, got_n, word = self.queue.popleft()
        if got_kind != kind:
            raise ProtocolError(f"{self.dst} expected {kind} from {self.src}, "
                                f"got {got_kind}")
        if got_n != n or word >> n:
            raise ProtocolError(f"malformed {kind} message from {self.src} "
                                f"to {self.dst}: {got_n} bits, expected {n}")
        return word


@dataclass
class GmwResult:
    outputs: dict[str, dict[int, int]]  # party -> wire -> bit
    rounds: int
    and_rounds: int
    triples_used: int
    channels: dict[tuple[str, str], Channel]


def make_triples(n: int, parties: tuple[str, ...], rng: random.Random):
    """Dealer-style multiplication triples for ``n`` AND gates, packed: each
    party gets xor shares of the words (a, b, a AND b), bit i for gate i."""
    a, b = rng.getrandbits(n), rng.getrandbits(n)
    c = a & b
    shares = {}
    for p in parties[:-1]:
        sa, sb, sc = rng.getrandbits(n), rng.getrandbits(n), rng.getrandbits(n)
        shares[p] = (sa, sb, sc)
        a ^= sa
        b ^= sb
        c ^= sc
    shares[parties[-1]] = (a, b, c)
    return shares


_TO_DIGITS = bytes.maketrans(b"\x00\x01", b"01")
_FROM_DIGITS = bytes.maketrans(b"01", b"\x00\x01")


def _pack(bits) -> int:
    """One word from 0/1 ints, the first one in the lowest bit."""
    digits = bytes(bits)[::-1].translate(_TO_DIGITS)
    return int(digits, 2) if digits else 0


def _gather(shares: list, wires: list[int]) -> int:
    """Pack the shares on ``wires`` into a word, bit i from wires[i]."""
    return _pack(map(shares.__getitem__, wires))


def _scatter(shares: list, wires: list[int], word: int):
    """Store bit i of ``word`` as the share on wires[i]."""
    bits = format(word, "b").zfill(len(wires)).encode()[::-1]
    for w, bit in zip(wires, bits.translate(_FROM_DIGITS)):
        shares[w] = bit


def gmw_eval(circ: Circuit, party_inputs: dict[str, dict[int, int]],
             dealer_seed: int) -> GmwResult:
    parties = circ.parties.names
    dealer_rng = random.Random(f"dealer|{dealer_seed}")

    channels = {(p, q): Channel(p, q)
                for p in parties for q in parties if p != q}
    shares: dict[str, list[int]] = {p: [0] * circ.n_wires for p in parties}

    # message layouts everyone derives from the public circuit
    in_wires: dict[str, list[int]] = {p: [] for p in parties}
    for decl in circ.inputs:
        in_wires[decl.party].extend(decl.wires)
    out_for: dict[str, list[int]] = {p: [] for p in parties}
    seen: dict[str, set] = {p: set() for p in parties}
    for w, recips in circ.outputs:
        for r in recips:
            if r in out_for and w not in seen[r]:
                seen[r].add(w)
                out_for[r].append(w)

    # round 1: owners split their input bits and deal the pieces out
    for p in parties:
        mine = party_inputs.get(p, {})
        wires = in_wires[p]
        missing = [w for w in wires if w not in mine]
        if missing:
            raise ProtocolError(f"{p} has no bits for wires {missing}")
        srng = random.Random(f"wrap|{dealer_seed}|{p}")
        n = len(wires)
        own = _pack(mine[w] & 1 for w in wires)
        for q in parties:
            if q != p:
                piece = srng.getrandbits(n)
                own ^= piece
                channels[(p, q)].send("input", n, piece)
        _scatter(shares[p], wires, own)
    for p in parties:
        for q in parties:
            if q != p:
                wires = in_wires[q]
                _scatter(shares[p], wires,
                         channels[(q, p)].recv("input", len(wires)))

    rounds = 1
    and_rounds = triples_used = 0
    for local, ands in circ.layers:
        # share-local gates; the first party alone carries public constants
        for i, p in enumerate(parties):
            s = shares[p]
            first = 1 if i == 0 else 0
            for op, o, a, b in local:
                if op == XOR:
                    s[o] = s[a] ^ s[b]
                elif op == NOT:
                    s[o] = s[a] ^ first
                else:
                    s[o] = a & first
        if not ands:
            continue
        # each party blinds its operand shares with triple shares and opens
        # both words as one 2m-bit message: d in the low m bits, e above
        m = len(ands)
        lhs = [g[2] for g in ands]
        rhs = [g[3] for g in ands]
        triples = make_triples(m, parties, dealer_rng)
        blinded = {}
        for p in parties:
            ta, tb, _ = triples[p]
            word = ((_gather(shares[p], lhs) ^ ta)
                    | (_gather(shares[p], rhs) ^ tb) << m)
            blinded[p] = word
            for q in parties:
                if q != p:
                    channels[(p, q)].send("open", 2 * m, word)
        mask = (1 << m) - 1
        outs = [g[1] for g in ands]
        for i, p in enumerate(parties):
            both = blinded[p]
            for q in parties:
                if q != p:
                    both ^= channels[(q, p)].recv("open", 2 * m)
            d, e = both & mask, both >> m
            ta, tb, tc = triples[p]
            z = tc ^ (d & tb) ^ (e & ta)
            if i == 0:
                z ^= d & e
            _scatter(shares[p], outs, z)
        rounds += 1
        and_rounds += 1
        triples_used += m

    # final round: reveal each output wire to its recipients only
    for p in parties:
        for r in parties:
            if r != p and out_for[r]:
                channels[(p, r)].send("output", len(out_for[r]),
                                      _gather(shares[p], out_for[r]))
    outputs: dict[str, dict[int, int]] = {p: {} for p in parties}
    for r in parties:
        wires = out_for[r]
        if not wires:
            continue
        acc = _gather(shares[r], wires)
        for q in parties:
            if q != r:
                acc ^= channels[(q, r)].recv("output", len(wires))
        outputs[r] = {w: (acc >> i) & 1 for i, w in enumerate(wires)}
    rounds += 1

    return GmwResult(outputs, rounds, and_rounds, triples_used, channels)
