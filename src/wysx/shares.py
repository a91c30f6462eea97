"""Share handles: minting and recombining xor-shared machine words.

The mint is a deterministic PRF stream keyed by a seed and indexed by
(party set, per-set counter, party).  Determinism matters: the reference
run, the distributed ideal run, and the circuit-backed run must all mint
bit-identical share words for the same program, and scheduling must not
perturb them.  Keying the counter by party set makes the stream depend only
on how many handles that group has minted, not on interleaving with other
groups.

Words use two's-complement encoding at the mint's width.  For each handle,
every party except the canonically last one receives a pure PRF output
(independent of the value); the last party's word is the value xor the
others, so the circuit backend can reproduce the exact same handle by
treating the PRF outputs as dealer-style masks.
"""

from __future__ import annotations

import hashlib

from .lang import (
    FfiInt, FfiTypeError, Mode, ModeError, PrinSet, ShareVal, Value,
)


class CanShError(FfiTypeError):
    """Only machine integers can be shared."""


class PartySetMismatch(ModeError):
    """Recombination ran under a different party set than the handle's."""


def encode_word(n: int, width: int) -> int:
    return n & ((1 << width) - 1)


def decode_word(w: int, width: int) -> int:
    w &= (1 << width) - 1
    if w & (1 << (width - 1)):
        return w - (1 << width)
    return w


class ShareMint:
    """Deterministic per-party-set stream of share masks."""

    def __init__(self, seed: int):
        self.seed = seed
        self._counters: dict[PrinSet, int] = {}

    def _mask(self, ps: PrinSet, idx: int, p: str, width: int) -> int:
        material = f"{self.seed}|{','.join(ps.names)}|{idx}|{p}".encode()
        digest = hashlib.sha256(material).digest()
        return int.from_bytes(digest[:8], "big") & ((1 << width) - 1)

    def draw_masks(self, ps: PrinSet, width: int) -> dict[str, int]:
        """Advance the set's counter and return masks for every party but
        the canonically last one."""
        idx = self._counters.get(ps, 0)
        self._counters[ps] = idx + 1
        return {p: self._mask(ps, idx, p, width) for p in ps.names[:-1]}

    def mint_words(self, ps: PrinSet, n: int, width: int) -> dict[str, int]:
        masks = self.draw_masks(ps, width)
        acc = encode_word(n, width)
        for w in masks.values():
            acc ^= w
        masks[ps.names[-1]] = acc
        return masks


def mk_sh_value(mode: Mode, v: Value, mint: ShareMint, width: int) -> ShareVal:
    if not mode.is_sec():
        raise ModeError("shares can only be minted inside a joint block")
    if type(v) is not FfiInt:
        raise CanShError(f"cannot share {v!r}")
    words = mint.mint_words(mode.ps, v.n, width)
    return ShareVal.of(mode.ps, words, width)


def comb_sh_value(mode: Mode, v: Value) -> FfiInt:
    if not mode.is_sec():
        raise ModeError("shares can only be recombined inside a joint block")
    if type(v) is not ShareVal:
        raise FfiTypeError(f"comb_sh: expected a share handle, got {v!r}")
    if v.ps != mode.ps:
        raise PartySetMismatch(f"handle for {v.ps} recombined by {mode.ps}")
    if [q for q, _ in v.words] != list(v.ps.names):  # both sorted
        missing = [p for p in v.ps if v.word_of(p) is None]
        if missing:
            raise PartySetMismatch(f"handle missing words for {missing}")
    acc = 0
    for _, w in v.words:
        acc ^= w
    return FfiInt(decode_word(acc, v.width))
