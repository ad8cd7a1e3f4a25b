"""Target-denoising corpus generation.

A fixed fraction of pairs is chosen (exact count, floor(fraction * n),
sampled without replacement) and, within each chosen pair, every target
payload token is independently replaced with probability
token_prob by a token drawn uniformly from the original target
payload (self-replacement allowed). Sources, unchosen pairs, speaker
tags, and context spans are never touched.

Randomness is pinned to numpy's PCG64. The pair selection uses
SeedSequence(seed); record i draws from the stream of
PCG64(SeedSequence(seed, spawn_key=(i,))), so output is a pure function
of (corpus, config) regardless of processing order. Building those
numpy objects for every chosen record would cost more than the noising,
so `_record_states` reproduces numpy's SeedSequence hash and PCG64
seeding for all chosen records in one vectorized pass, and one generator
is set to each record's state in turn. A test checks the states against
numpy's own construction.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from .corpus import BitextPair, CorpusError, check_field_types
from .chatprep import CONTEXT_TAG, split_tags

if TYPE_CHECKING:
    import numpy as np


class DenoiseFormatError(CorpusError):
    """Target line cannot be split into tag / payload / context spans.
    `record` is the 0-based index of the pair in denoise_corpus's input,
    when the error comes from there."""

    def __init__(self, reason: str, record: int | None = None):
        super().__init__(reason if record is None else f"record {record}: {reason}")
        self.reason = reason
        self.record = record


@dataclass(frozen=True)
class DenoiseConfig:
    pair_fraction: float = 0.30
    token_prob: float = 0.15
    seed: int = 0

    def __post_init__(self):
        check_field_types(self)
        if not 0.0 <= self.pair_fraction <= 1.0:
            raise ValueError("pair_fraction must be in [0, 1]")
        if not 0.0 <= self.token_prob <= 1.0:
            raise ValueError("token_prob must be in [0, 1]")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must fit in 64 unsigned bits")


# numpy is imported where random numbers are drawn, so that only a
# process that draws them loads it.
def _selection_rng(seed: int) -> np.random.Generator:
    import numpy as np

    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))


# numpy's SeedSequence hash constants (numpy/random/bit_generator.pyx)
# and PCG64's 128-bit LCG multiplier.
_MASK32 = 0xFFFFFFFF
_MASK64 = 2**64 - 1
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _hashmix(value, const: int, mult: int):
    """One SeedSequence hash step on a Python int or a uint32 array;
    returns the hashed value and the next hash constant."""
    const_next = const * mult & _MASK32
    value = (value ^ const) * const_next & _MASK32
    return value ^ value >> 16, const_next


def _mix(x, y):
    result = ((x * _MIX_MULT_L & _MASK32) - (y * _MIX_MULT_R & _MASK32)) & _MASK32
    return result ^ result >> 16


def _mul128(hi, lo, const: int):
    """(hi, lo) * const mod 2**128 on uint64 arrays of 128-bit halves."""
    c_hi, c_lo = const >> 64, const & _MASK64
    a1, a0 = lo >> 32, lo & _MASK32
    b1, b0 = c_lo >> 32, c_lo & _MASK32
    p00, p01, p10 = a0 * b0, a0 * b1, a1 * b0
    mid = (p00 >> 32) + (p01 & _MASK32) + (p10 & _MASK32)
    out_lo = mid << 32 | p00 & _MASK32
    out_hi = a1 * b1 + (p01 >> 32) + (p10 >> 32) + (mid >> 32) + hi * c_lo + lo * c_hi
    return out_hi, out_lo


def _add128(a_hi, a_lo, b_hi, b_lo):
    lo = a_lo + b_lo
    return a_hi + b_hi + (lo < a_lo), lo


def _record_states(seed: int, indices: Sequence[int]) -> np.ndarray:
    """The PCG64 state of PCG64(SeedSequence(seed, spawn_key=(i,))) for
    each i in indices, as a uint64 array of rows (state >> 64, state
    mod 2**64, inc >> 64, inc mod 2**64)."""
    import numpy as np

    # With a spawn key, SeedSequence pads the seed's 32-bit words with
    # zeros to its pool size of 4. Mixing them into the pool depends on
    # the seed alone, and the hash constant's sequence on nothing at all.
    pool = [seed & _MASK32, seed >> 32, 0, 0]
    const = _INIT_A
    for i in range(4):
        pool[i], const = _hashmix(pool[i], const, _MULT_A)
    for src in range(4):
        for dst in range(4):
            if src != dst:
                hashed, const = _hashmix(pool[src], const, _MULT_A)
                pool[dst] = _mix(pool[dst], hashed)

    # The spawn key (i,) adds i's 32-bit words: one below 2**32, else two.
    idx = np.asarray(indices, dtype=np.uint64)
    pools = [np.full(idx.shape, word, dtype=np.uint32) for word in pool]
    for word, used in ((idx & _MASK32, True), (idx >> 32, idx >= 2**32)):
        word = word.astype(np.uint32)
        for dst in range(4):
            hashed, const = _hashmix(word, const, _MULT_A)
            pools[dst] = np.where(used, _mix(pools[dst], hashed), pools[dst])

    # generate_state(4, uint64): 8 words cycling over the pool, paired
    # little-endian into the seed (words 0, 1) and the stream (2, 3).
    const = _INIT_B
    out = []
    for j in range(8):
        hashed, const = _hashmix(pools[j % 4], const, _MULT_B)
        out.append(hashed.astype(np.uint64))
    s_hi, s_lo, seq_hi, seq_lo = (out[2 * k] | out[2 * k + 1] << 32 for k in range(4))

    # PCG64's set_seed: inc = 2 * seq + 1; from state 0, one LCG step
    # (state * mult + inc) gives inc; add s; one more LCG step.
    inc_hi, inc_lo = seq_hi << 1 | seq_lo >> 63, seq_lo << 1 | 1
    state = _add128(*_mul128(*_add128(inc_hi, inc_lo, s_hi, s_lo), _PCG_MULT), inc_hi, inc_lo)
    return np.stack([*state, inc_hi, inc_lo], axis=1)


def _record_rng(rng: np.random.Generator, state: np.ndarray) -> np.random.Generator:
    """Set rng's PCG64 to one row of _record_states and return it: the
    stream of a fresh PCG64 built from that record's SeedSequence."""
    s_hi, s_lo, inc_hi, inc_lo = state.tolist()
    rng.bit_generator.state = {
        "bit_generator": "PCG64",
        "state": {"state": s_hi << 64 | s_lo, "inc": inc_hi << 64 | inc_lo},
        "has_uint32": 0,
        "uinteger": 0,
    }
    return rng


def choose_pairs(n: int, cfg: DenoiseConfig) -> set[int]:
    """Exactly floor(pair_fraction * n) distinct indices, seed-determined."""
    if n < 0:
        raise ValueError("n must be >= 0")
    # Tiny nudge so exact-integer products (0.3 * 10000) are not floored
    # away by binary rounding of pair_fraction.
    k = math.floor(cfg.pair_fraction * n + 1e-9)
    k = min(k, n)
    if k == 0:
        return set()
    rng = _selection_rng(cfg.seed)
    return {int(i) for i in rng.choice(n, size=k, replace=False)}


def denoise_tokens(
    tokens: Sequence[str], cfg: DenoiseConfig, rng: np.random.Generator
) -> list[str]:
    """Per-position Bernoulli replacement drawing from the original list."""
    n = len(tokens)
    if n == 0:
        return []
    out = list(tokens)
    prob = cfg.token_prob
    for i, draw in enumerate(rng.random(n).tolist()):
        if draw < prob:
            out[i] = tokens[int(rng.integers(n))]
    return out


@dataclass(frozen=True)
class TargetSpans:
    """A target line split as prefix + payload tokens + suffix. One space
    joins the prefix to the payload if the prefix is not empty or
    `prefix_sep` is set (a positional payload after one empty token), so
    rebuilding with the original payload gives the line back exactly."""

    prefix: str
    payload: tuple[str, ...]
    suffix: str
    prefix_sep: bool = False

    def rebuild(self, payload: Sequence[str]) -> str:
        mid = " ".join(payload)
        out = f"{self.prefix} {mid}" if self.prefix or self.prefix_sep else mid
        return out + self.suffix


def split_target(
    target: str, payload_span: tuple[int, int] | None = None
) -> TargetSpans:
    """Locate the mutable payload of a target line.

    With an explicit (start, end) token span, the split is positional:
    tokens are split on single spaces, and an empty payload leaves the
    line as it is. Otherwise the chat line is parsed by
    `chatprep.split_tags`. Either split rebuilds the line by construction.
    """
    if payload_span is not None:
        tokens = target.split(" ")
        start, end = payload_span
        if not 0 <= start <= end <= len(tokens):
            raise DenoiseFormatError(
                f"span {payload_span} out of range for {target!r}"
            )
        if start == end:
            return TargetSpans(prefix="", payload=(), suffix=target)
        rest = tokens[end:]
        return TargetSpans(prefix=" ".join(tokens[:start]), payload=tuple(tokens[start:end]),
                           suffix=(" " + " ".join(rest)) if rest else "", prefix_sep=start > 0)
    prefix, payload, suffix = split_tags(target)
    if suffix.count(CONTEXT_TAG) > 1:
        raise DenoiseFormatError(
            f"multiple context indicators in target {target!r}"
        )
    if not payload:
        raise DenoiseFormatError(f"empty payload in target {target!r}")
    return TargetSpans(prefix=prefix, payload=tuple(payload.split(" ")), suffix=suffix)


def denoise_corpus(
    pairs: Sequence[BitextPair],
    cfg: DenoiseConfig,
    payload_spans: Sequence[tuple[int, int] | None] | None = None,
) -> list[BitextPair]:
    """Noise the chosen pairs' target payloads; everything else is
    byte-identical to the input."""
    if payload_spans is not None and len(payload_spans) != len(pairs):
        raise ValueError("payload_spans length must match pairs")
    chosen = choose_pairs(len(pairs), cfg)
    out = list(pairs)
    if not chosen:
        return out
    import numpy as np

    order = sorted(chosen)
    # Its seed does not matter: _record_rng sets the whole state per record.
    rng = np.random.Generator(np.random.PCG64(0))
    for i, state in zip(order, _record_states(cfg.seed, order)):
        pair = pairs[i]
        span = payload_spans[i] if payload_spans is not None else None
        try:
            spans = split_target(pair.target, span)
        except DenoiseFormatError as exc:
            raise DenoiseFormatError(exc.reason, i) from exc
        noised = denoise_tokens(spans.payload, cfg, _record_rng(rng, state))
        out[i] = BitextPair(source=pair.source, target=spans.rebuild(noised),
                            origin=pair.origin, payload_span=pair.payload_span)
    return out
