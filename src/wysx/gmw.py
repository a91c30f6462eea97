"""Execution of compiled circuits under xor sharing.

Classic semi-honest protocol: every wire is split into one-bit xor shares,
one per party. XOR and NOT gates are local; each AND gate consumes one
precomputed multiplication triple and costs every ordered pair of parties
exactly two opened bits (the two blinded operands). Triples come from a
dealer, standing in for an offline phase. Every random word of a block
comes from one ``random.Random(seed)``, which stands in for each input
owner's and the dealer's independent randomness, in this order: each
owner's input pieces, owners in party order, one piece per other party in
party order; then, for each AND layer, the words of ``make_triples``.

The run is simulated in rounds over FIFO channels: one round to share
inputs, one per layer of AND gates (round r evaluates the local gates of
AND-depth r, then opens every AND gate of depth r + 1 at once), one to
reveal outputs to their recipients. A message is one word, a bit per wire
of a layout both ends derive from the public circuit (``input_wires`` and
``output_wires`` in ``circuit``), so channel payloads are pure bits and the
per-kind counters pin the exact communication.

All parties' shares are evaluated packed, as in the SIMD evaluation of GMW
(Schneider-Zohner, ABY): one int per wire, bit i party i's share, in byte
planes of 8 parties. XOR is one ``^`` per plane; NOT flips party 0's bit,
as party 0 alone carries public constants. A party's word is read out of a
plane with a ``bytes.translate`` table per bit position; the words of an AND
layer go back in with one carry-free sum per plane, or, for a layer of at
most ``_PER_BIT`` gates, where that sum's fixed cost dominates, one bit at
a time. The input round deals each owner's word (``circuit.input_wires``)
and goes in with one such merge over every owner's wires, each party's
word being its pieces from all owners side by side.
"""

from __future__ import annotations

import random
from collections import deque

from .circuit import Circuit, NOT, XOR, input_wires, output_wires
from .lang import WysError, record


class ProtocolError(WysError):
    pass


class Channel:
    """One-directional FIFO link with per-kind bit counters."""

    __slots__ = ("src", "dst", "queue", "sent")

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


@record
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


# _BIT[i] reads bit i of a byte as an ascii digit; _FROM_DIGITS undoes _BIT[0]
_BIT = [(b"0" * (1 << i) + b"1" * (1 << i)) * (128 >> i) for i in range(8)]
_FROM_DIGITS = bytes.maketrans(b"01", b"\0\1")


def bit_bytes(word: int, n: int) -> bytes:
    """The n low bits of ``word`` as 0/1 bytes, the lowest bit last."""
    return f"{word:0{n}b}".encode().translate(_FROM_DIGITS)


def _split(raws, k: int) -> list[int]:
    """The k parties' words out of each plane's bytes in ``raws``, one byte
    per wire: bit j of party i's word is bit i % 8 of byte j."""
    words: list[int] = []
    for raw in raws:
        raw = raw[::-1]
        words += [int(raw.translate(bit), 2) for bit in _BIT[:k - len(words)]]
    return words


# Up to this many wires ``_merge`` sets one bit at a time, which beats
# spreading the words to bytes: per call at three parties (Python 3.11,
# 2-core Xeon VM), 0.75 against 1.93 us at 3 wires, 1.93 against 2.18 us
# at 12 and 2.50 against 2.26 us at 16.
_PER_BIT = 12


def _merge(planes: list, wires, words: list[int]):
    """Store bit j of words[i] as party i's share on wires[j], for distinct
    wires. Past ``_PER_BIT`` wires each word is spread to a byte per bit,
    and the words of a plane's parties add up without carries."""
    m = len(wires)
    for t, s in enumerate(planes):
        plane_words = words[8 * t:8 * t + 8]
        if m <= _PER_BIT:
            for w in wires:
                s[w] = 0
            for i, word in enumerate(plane_words):
                bit = 1 << i
                for w in wires:
                    if word & 1:
                        s[w] |= bit
                    word >>= 1
            continue
        total = 0
        for i, word in enumerate(plane_words):
            total += int.from_bytes(bit_bytes(word, m), "big") << i
        for w, v in zip(wires, total.to_bytes(m, "little")):
            s[w] = v


def gmw_eval(circ: Circuit, party_inputs: dict[str, int],
             seed: int | str) -> GmwResult:
    parties = circ.parties.names
    k = len(parties)
    rng = random.Random(seed)

    # channels[(p, q)] carries p's messages to q; to[i] and frm[i] are
    # party i's links to and from the others, in party order
    channels = {}
    to: list[list[Channel]] = [[] for _ in parties]
    frm: list[list[Channel]] = [[] for _ in parties]
    for i, p in enumerate(parties):
        for j, q in enumerate(parties):
            if i != j:
                channels[p, q] = ch = Channel(p, q)
                to[i].append(ch)
                frm[j].append(ch)
    # planes[t][w]: the shares of parties 8t to 8t + 7 on wire w, one bit each
    planes = [[0] * circ.n_wires for _ in range(0, k, 8)]

    # the message layouts, which every party derives from the public circuit
    in_wires, out_for = input_wires(circ), output_wires(circ)

    # round 1: owners split their input words and deal the pieces out
    dealt = {p: [0] * k for p in parties}  # owner -> words on owner's wires
    for i, p in enumerate(parties):
        n = len(in_wires[p])
        own = party_inputs.get(p, None if n else 0)
        if own is None:
            raise ProtocolError(f"{p} has no word for its input wires")
        if type(own) is not int or own >> n:  # a negative word shifts to -1
            raise ProtocolError(
                f"{p} gives an input that is not a {n}-bit word")
        for ch in to[i]:
            piece = rng.getrandbits(n)
            own ^= piece
            ch.send("input", n, piece)
        dealt[p][i] = own
    for i in range(k):
        for ch in frm[i]:
            dealt[ch.src][i] = ch.recv("input", len(in_wires[ch.src]))
    # one merge over every owner's wires: party i's word holds its words
    # on each owner's wires, in party order
    all_in: list[int] = []
    words = [0] * k
    for p in parties:
        for i, word in enumerate(dealt[p]):
            words[i] |= word << len(all_in)
        all_in += in_wires[p]
    _merge(planes, all_in, words)

    and_rounds = triples_used = 0
    for local, ands in circ.layers:
        # share-local gates, 8 parties per plane; party 0 holds the constants
        for t, s in enumerate(planes):
            one = 0 if t else 1
            it = iter(local)
            for op, o, a, b in zip(it, it, it, it):
                if op == XOR:
                    s[o] = s[a] ^ s[b]
                elif op == NOT:
                    s[o] = s[a] ^ one
                else:
                    s[o] = a & one
        if not ands:
            continue
        # each party blinds its operand shares with triple shares and opens
        # both words as one 2m-bit message: d in the low m bits, e above
        m = len(ands) // 4
        n = 2 * m
        ops = ands[2::4] + ands[3::4]  # every gate's a, then every gate's b
        both = _split([bytes(map(s.__getitem__, ops)) for s in planes], k)
        triples = make_triples(m, parties, rng)
        for i, p in enumerate(parties):
            ta, tb, _ = triples[p]
            both[i] = word = both[i] ^ ta ^ tb << m
            for ch in to[i]:
                ch.send("open", n, word)
        low = (1 << m) - 1
        zs = []
        for i, p in enumerate(parties):
            opened = both[i]
            for ch in frm[i]:
                opened ^= ch.recv("open", n)
            d, e = opened & low, opened >> m
            ta, tb, tc = triples[p]
            # party 0 alone adds the public product d AND e
            zs.append(tc ^ (d & tb) ^ (e & ta) ^ (d & e if i == 0 else 0))
        _merge(planes, ands[1::4], zs)
        and_rounds += 1
        triples_used += m

    # final round: reveal each output wire to its recipients only
    held = {r: _split([bytes(map(s.__getitem__, wires)) for s in planes], k)
            for r, wires in out_for.items() if wires}
    for i in range(k):
        for ch in to[i]:
            words = held.get(ch.dst)
            if words:
                ch.send("output", len(out_for[ch.dst]), words[i])
    outputs: dict[str, dict[int, int]] = {p: {} for p in parties}
    for i, r in enumerate(parties):
        words = held.get(r)
        if words:
            wires = out_for[r]
            n = len(wires)
            acc = words[i]
            for ch in frm[i]:
                acc ^= ch.recv("output", n)
            outputs[r] = dict(zip(wires, bit_bytes(acc, n)[::-1]))
    # rounds: the input round, one per AND layer and the output round
    return GmwResult(outputs, and_rounds + 2, and_rounds, triples_used,
                     channels)
