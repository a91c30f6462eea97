"""Execution of compiled circuits under xor sharing.

Classic semi-honest protocol: every wire is split into one-bit xor shares,
one per party. XOR and NOT gates are local; each AND gate consumes one
precomputed multiplication triple and costs every ordered pair of parties
exactly two opened bits (the two blinded operands). Triples come from a
seeded dealer, standing in for an offline phase.

The run is simulated in rounds over FIFO channels: one round to share
inputs, one per layer of AND gates (round r evaluates the local gates of
AND-depth r, then opens every AND gate of depth r + 1 at once), one to
reveal outputs to their recipients. A message is one word, a bit per wire
of a layout both ends derive from the public circuit, so channel payloads
are pure bits and the per-kind counters pin the exact communication.

All parties' shares are evaluated packed, as in the SIMD evaluation of GMW
(Schneider-Zohner, ABY): one int per wire, bit i party i's share, in byte
planes of 8 parties. XOR is one ``^`` per plane; NOT flips party 0's bit,
as party 0 alone carries public constants. A party's word is read out of a
plane with a ``bytes.translate`` table per bit position; the words of an AND
layer go back in with one carry-free sum per plane.
"""

from __future__ import annotations

import random
from collections import deque

from .circuit import Circuit, NOT, XOR
from .lang import WysError, record


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


@record(frozen=False, slots=False)
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


# _BIT[i] reads bit i of a byte as an ascii digit
_BIT = [(b"0" * (1 << i) + b"1" * (1 << i)) * (128 >> i) for i in range(8)]
_FROM_DIGITS = bytes.maketrans(b"01", b"\x00\x01")


def _bits(word: int, m: int) -> bytes:
    """The m low bits of ``word`` as 0/1 bytes, the lowest bit last."""
    return f"{word:0{m}b}".encode().translate(_FROM_DIGITS)


def _split(raws, k: int) -> list[int]:
    """The k parties' words out of each plane's bytes in ``raws``, one byte
    per wire: bit j of party i's word is bit i % 8 of byte j."""
    words: list[int] = []
    for raw in raws:
        raw = raw[::-1]
        words += [int(raw.translate(bit), 2) for bit in _BIT[:k - len(words)]]
    return words


def _merge(planes: list, wires: list[int], words: list[int]):
    """Store bit j of words[i] as party i's share on wires[j]: spread to a
    byte per bit, the words of a plane's parties add up without carries."""
    m = len(wires)
    for t, s in enumerate(planes):
        total = 0
        for i, word in enumerate(words[8 * t:8 * t + 8]):
            total += int.from_bytes(_bits(word, m), "big") << i
        for w, v in zip(wires, total.to_bytes(m, "little")):
            s[w] = v


def gmw_eval(circ: Circuit, party_inputs: dict[str, dict[int, int]],
             dealer_seed: int) -> GmwResult:
    parties = circ.parties.names
    k = len(parties)
    dealer_rng = random.Random(f"dealer|{dealer_seed}")

    channels = {(p, q): Channel(p, q)
                for p in parties for q in parties if p != q}
    # each party's links to and from the others, in party order
    to = [[channels[(p, q)] for q in parties if q != p] for p in parties]
    frm = [[channels[(q, p)] for q in parties if q != p] for p in parties]
    # planes[t][w]: the shares of parties 8t to 8t + 7 on wire w, one bit each
    planes = [[0] * circ.n_wires for _ in range(0, k, 8)]

    # message layouts everyone derives from the public circuit
    in_wires = {p: [w for d in circ.inputs if d.party == p for w in d.wires]
                for p in parties}
    out_for = {r: list(dict.fromkeys([w for w, recips in circ.outputs
                                      if r in recips])) for r in parties}

    # round 1: owners split their input bits and deal the pieces out
    dealt = {p: [0] * k for p in parties}  # owner -> words on owner's wires
    for i, p in enumerate(parties):
        mine = party_inputs.get(p, {})
        wires = in_wires[p]
        try:
            bits = bytes(map(mine.__getitem__, reversed(wires)))
            if bits.translate(None, b"\0\1"):
                raise ValueError
        except KeyError:
            missing = [w for w in wires if w not in mine]
            raise ProtocolError(
                f"{p} has no bits for wires {missing}") from None
        except (TypeError, ValueError):
            raise ProtocolError(
                f"{p} gives an input that is not a bit") from None
        srng = random.Random(f"wrap|{dealer_seed}|{p}")
        n = len(wires)
        own = int(bits.translate(_BIT[0]) or b"0", 2)  # wires[0] lowest
        for ch in to[i]:
            piece = srng.getrandbits(n)
            own ^= piece
            ch.send("input", n, piece)
        dealt[p][i] = own
    for i in range(k):
        for ch in frm[i]:
            dealt[ch.src][i] = ch.recv("input", len(in_wires[ch.src]))
    for p in parties:
        _merge(planes, in_wires[p], dealt[p])

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
        ops = ands[2::4] + ands[3::4]  # every gate's a, then every gate's b
        both = _split((bytes(map(s.__getitem__, ops)) for s in planes), k)
        triples = make_triples(m, parties, dealer_rng)
        for i, p in enumerate(parties):
            ta, tb, _ = triples[p]
            both[i] ^= ta | tb << m
            for ch in to[i]:
                ch.send("open", 2 * m, both[i])
        zs = []
        for i, p in enumerate(parties):
            opened = both[i]
            for ch in frm[i]:
                opened ^= ch.recv("open", 2 * m)
            d, e = opened & ((1 << m) - 1), opened >> m
            ta, tb, tc = triples[p]
            # party 0 alone adds the public product d AND e
            zs.append(tc ^ (d & tb) ^ (e & ta) ^ (d & e if i == 0 else 0))
        _merge(planes, ands[1::4], zs)
        and_rounds += 1
        triples_used += m

    # final round: reveal each output wire to its recipients only
    held = {r: _split((bytes([s[w] for w in out_for[r]]) for s in planes), k)
            for r in parties if out_for[r]}
    for i in range(k):
        for ch in to[i]:
            if ch.dst in held:
                ch.send("output", len(out_for[ch.dst]), held[ch.dst][i])
    outputs: dict[str, dict[int, int]] = {p: {} for p in parties}
    for i, r in enumerate(parties):
        if r in held:
            acc = held[r][i]
            for ch in frm[i]:
                acc ^= ch.recv("output", len(out_for[r]))
            outputs[r] = dict(zip(out_for[r],
                                  _bits(acc, len(out_for[r]))[::-1]))
    # rounds: the input round, one per AND layer and the output round
    return GmwResult(outputs, and_rounds + 2, and_rounds, triples_used,
                     channels)
