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
so `_record_states` copies the SeedSequence words PCG64 is seeded from
(`generate_state(4, np.uint64)`) for all chosen records in one
vectorized pass; `_record_rng` runs PCG64's seeding, two 128-bit LCG
steps, in Python ints and sets one shared generator to the result. A
test checks both against numpy's own construction.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple, Sequence

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
_MASK128 = 2**128 - 1
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


def _record_states(seed: int, indices: Sequence[int]) -> np.ndarray:
    """SeedSequence(entropy=seed, spawn_key=(i,)).generate_state(4,
    np.uint64) for each i in indices, one uint64 row per index."""
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
    # little-endian into 4 uint64 words.
    const = _INIT_B
    out = []
    for j in range(8):
        hashed, const = _hashmix(pools[j % 4], const, _MULT_B)
        out.append(hashed.astype(np.uint64))
    return np.stack([out[2 * k] | out[2 * k + 1] << 32 for k in range(4)], axis=1)


def _record_rng(rng: np.random.Generator, words: np.ndarray) -> np.random.Generator:
    """Set rng's PCG64 as PCG64 seeds itself from one row of
    _record_states and return it: the stream of a fresh PCG64 built from
    that record's SeedSequence."""
    w0, w1, w2, w3 = words.tolist()
    # PCG64's set_seed: inc = 2 * (w2, w3) + 1; from state 0, one LCG step
    # (state * mult + inc) gives inc; add (w0, w1); one more LCG step.
    inc = ((w2 << 64 | w3) << 1 | 1) & _MASK128
    state = (((w0 << 64 | w1) + inc) * _PCG_MULT + inc) & _MASK128
    rng.bit_generator.state = {
        "bit_generator": "PCG64",
        "state": {"state": state, "inc": inc},
        "has_uint32": 0,
        "uinteger": 0,
    }
    return rng


def chosen_count(n: int, cfg: DenoiseConfig) -> int:
    """floor(pair_fraction * n): how many of n pairs choose_pairs picks."""
    # Tiny nudge so exact-integer products (0.3 * 10000) are not floored
    # away by binary rounding of pair_fraction.
    return min(math.floor(cfg.pair_fraction * n + 1e-9), n)


def choose_pairs(n: int, cfg: DenoiseConfig) -> set[int]:
    """Exactly chosen_count(n, cfg) distinct indices, seed-determined."""
    if n < 0:
        raise ValueError("n must be >= 0")
    k = chosen_count(n, cfg)
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


class TargetSpans(NamedTuple):
    """A target line as head + " ".join(payload) + tail. The spaces that
    join the payload to its neighbours belong to head and tail."""

    head: str
    payload: tuple[str, ...]
    tail: str


def _split_chat_line(target: str) -> tuple[str, str, str]:
    """chatprep.split_tags, refusing a second context indicator after the
    payload and an empty payload."""
    tag, payload, tail = split_tags(target)
    if tail.count(CONTEXT_TAG) > 1:
        raise DenoiseFormatError(f"multiple context indicators in target {target!r}")
    if not payload:
        raise DenoiseFormatError(f"empty payload in target {target!r}")
    return tag, payload, tail


def _check_span(target: str, span: tuple[int, int]) -> None:
    """Refuse a (start, end) span outside the target's single-space tokens."""
    start, end = span
    if not 0 <= start <= end <= target.count(" ") + 1:
        raise DenoiseFormatError(f"span {span} out of range for {target!r}")


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
        _check_span(target, payload_span)
        tokens = target.split(" ")
        start, end = payload_span
        if start == end:
            return TargetSpans(target, (), "")
        return TargetSpans(" ".join(tokens[:start]) + " " if start else "",
                           tuple(tokens[start:end]),
                           " " + " ".join(tokens[end:]) if end < len(tokens) else "")
    tag, payload, tail = _split_chat_line(target)
    return TargetSpans(f"{tag} " if tag else "", tuple(payload.split(" ")), tail)


def denoise_corpus(
    pairs: Sequence[BitextPair],
    cfg: DenoiseConfig,
    payload_spans: Sequence[tuple[int, int] | None] | None = None,
) -> list[BitextPair]:
    """Noise the chosen pairs' target payloads; everything else is
    byte-identical to the input. A noised target left blank keeps its
    input. Every record is checked as if chosen, in input order, so that
    the seed cannot decide what is accepted: a span must be in range and
    a target without one must split."""
    if payload_spans is not None and len(payload_spans) != len(pairs):
        raise ValueError("payload_spans length must match pairs")
    chosen = choose_pairs(len(pairs), cfg)
    out = list(pairs)
    if chosen:
        import numpy as np

        # Its seed does not matter: _record_rng sets the whole state per record.
        rng = np.random.Generator(np.random.PCG64(0))
        # One row per chosen record, taken in input order.
        states = iter(_record_states(cfg.seed, sorted(chosen)))
    # A check or split that fails names the record i it was on.
    try:
        for i, pair in enumerate(pairs):
            span = payload_spans[i] if payload_spans else None
            if i not in chosen:
                if span is None:
                    _split_chat_line(pair.target)
                else:
                    _check_span(pair.target, span)
                continue
            spans = split_target(pair.target, span)
            noised = denoise_tokens(spans.payload, cfg, _record_rng(rng, next(states)))
            target = spans.head + " ".join(noised) + spans.tail
            # The bitext reader would refuse a blank target as empty.
            if target.strip():
                out[i] = BitextPair(pair.source, target, pair.origin, pair.payload_span)
    except DenoiseFormatError as exc:
        raise DenoiseFormatError(exc.reason, i) from exc
    return out
