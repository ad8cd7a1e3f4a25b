"""Target-denoising corpus generation.

A fixed fraction of pairs is chosen (exact count, floor(fraction * n)
with the fraction read as the decimal it is written as, so 0.29 of 10**8
pairs is 29000000; sampled without replacement) and, within each chosen
pair, every target payload token is independently replaced with
probability token_prob by a token drawn uniformly from the original
target payload (self-replacement allowed). Sources, unchosen pairs,
speaker tags, and context spans are never touched.

Randomness is pinned to numpy's PCG64. The pair selection uses
SeedSequence(seed); record i draws from the stream of
PCG64(SeedSequence(seed, spawn_key=(i,))) (`_record_rng`), so output is
a pure function of (corpus, config) for one numpy version, whatever the
processing order. Building those numpy objects for every chosen record
would cost more than the noising, so denoise computes the same draws in
numpy, for one block of chosen records at a time, in input order (a
block holds about _BLOCK_TOKENS payload tokens, which bounds its arrays):
- `_record_states` takes the seed's mixed pool from numpy's
  `SeedSequence(seed).pool` and restates only each record's steps: its
  spawn key (i,) and `generate_state(4, np.uint64)`, PCG64's seed words;
- `_pcg_draws` runs PCG64's seeding and its 128-bit LCG on uint64
  halves, jumping straight to any draw, and emits its XSL-RR output
  (the one place PCG64's seeding is restated);
- `_record_draws` marks a hit where the draw's double falls below
  token_prob, and `_picks` takes numpy's Lemire step for each hit's
  `integers(n)`, so only records with hits are touched in Python.
A record whose pick falls in Lemire's rejection zone, where numpy draws
again, or that has 2**32 tokens or more, runs `denoise_tokens` itself on
`_record_rng(seed, i)`, numpy's own generator. Tests check each step
against numpy's own construction.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, NamedTuple, Sequence

from .corpus import BitextPair, CorpusError, check_field_types, is_token_span
from .chatprep import CONTEXT_TAG, split_tags

if TYPE_CHECKING:
    import numpy as np


class DenoiseFormatError(CorpusError):
    """Target line cannot be split into tag / payload / context spans.
    From denoise_corpus, `record` is the pair's 0-based index and `line`
    its input line; the message names the line, else the record."""

    def __init__(self, reason: str, record: int | None = None, line: int | None = None):
        super().__init__(reason if record is None or line is not None
                         else f"record {record}: {reason}", line)
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


def _record_rng(seed: int, index: int) -> np.random.Generator:
    """Record index's generator, built as numpy documents it."""
    import numpy as np

    return np.random.Generator(np.random.PCG64(
        np.random.SeedSequence(seed, spawn_key=(index,))))


# numpy's SeedSequence hash constants (numpy/random/bit_generator.pyx)
# and PCG64's 128-bit LCG multiplier.
_MASK32 = 0xFFFFFFFF
_MASK64 = 2**64 - 1
_MASK128 = 2**128 - 1
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
# Powers of _PCG_MULT are taken mod this, see _pcg_draws.
_POWER_MOD = (_PCG_MULT - 1) << 128


def _hashmix(value, const: int, mult: int):
    """One SeedSequence hash step on a uint32 array; returns the hashed
    values and the next hash constant."""
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

    # A spawn key pads the seed's words with zeros to the pool size, and
    # SeedSequence(seed) hashes missing words as zeros: both mix one pool,
    # whose 16 hash steps (4 words in, 12 cross-mixes) leave this constant.
    pool = np.random.SeedSequence(seed).pool
    const = _INIT_A * pow(_MULT_A, 16, 2**32) & _MASK32

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


def _mulhi64(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """High 64 bits of the 128-bit products of two uint64 arrays, from
    their 32-bit limbs."""
    a0, a1 = a & _MASK32, a >> 32
    b0, b1 = b & _MASK32, b >> 32
    lo_hi, hi_lo = a0 * b1, a1 * b0
    mid = (a0 * b0 >> 32) + (lo_hi & _MASK32) + (hi_lo & _MASK32)
    return a1 * b1 + (lo_hi >> 32) + (hi_lo >> 32) + (mid >> 32)


def _mul128(a_hi, a_lo, b_hi, b_lo):
    """Products mod 2**128 of 128-bit numbers held as uint64 halves."""
    return _mulhi64(a_lo, b_lo) + a_lo * b_hi + a_hi * b_lo, a_lo * b_lo


def _halves(values: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """The high and the low 64 bits of 128-bit ints, as uint64 arrays."""
    import numpy as np

    return (np.array([v >> 64 for v in values], dtype=np.uint64),
            np.array([v & _MASK64 for v in values], dtype=np.uint64))


def _pcg_draws(words: np.ndarray, draws: np.ndarray) -> np.ndarray:
    """The 64-bit output of draw draws[e] (1-based) of a PCG64 seeded
    from words[e], a row of _record_states, for each e."""
    import numpy as np

    # t LCG steps take state s to M**t * s + S_t * inc, with M the
    # multiplier and S_t = 1 + M + ... + M**(t-1) = (M**t - 1) / (M - 1).
    # PCG64's set_seed takes inc = 2 * (w2, w3) + 1; from state 0, one
    # step gives inc, w = (w0, w1) is added and one more step is taken.
    # That last step starts from w + inc, so draw j is j + 1 steps
    # from there: M**(j+1) * (w + inc) + S_(j+1) * inc, which is
    # M**(j+1) * w + S_(j+2) * inc. Powers are taken mod (M - 1) * 2**128,
    # which keeps the division by M - 1 exact.
    steps, where = np.unique(draws, return_inverse=True)
    powers = [pow(_PCG_MULT, j + 1, _POWER_MOD) for j in steps.tolist()]
    mult_hi, mult_lo = _halves([p & _MASK128 for p in powers])
    sum_hi, sum_lo = _halves([(p * _PCG_MULT - 1) % _POWER_MOD // (_PCG_MULT - 1)
                              for p in powers])
    w0, w1, w2, w3 = words.T
    inc_hi, inc_lo = w2 << 1 | w3 >> 63, w3 << 1 | 1
    a_hi, a_lo = _mul128(mult_hi[where], mult_lo[where], w0, w1)
    b_hi, b_lo = _mul128(sum_hi[where], sum_lo[where], inc_hi, inc_lo)
    lo = a_lo + b_lo
    hi = a_hi + b_hi + (lo < a_lo)
    # XSL-RR: the halves xor-ed, rotated right by the top 6 bits.
    x = hi ^ lo
    rot = hi >> 58
    return x >> rot | x << (-rot & 63)


def _picks(words: np.ndarray, lengths: np.ndarray, ranks: np.ndarray):
    """Generator.integers(n) for hit k = ranks[e] of a record with n =
    lengths[e] < 2**32 tokens, seeded from words[e], after denoise_tokens'
    n doubles and k earlier picks that drew once each. Returns the picked
    token indices and whether each draw fell in Lemire's rejection zone,
    where numpy draws again and every later draw of the record moves."""
    import numpy as np

    n = lengths.astype(np.uint64)
    k = ranks.astype(np.uint64)
    # A pick draws 32 bits: the low, then the high half of one 64-bit draw.
    half = _pcg_draws(words, n + (k >> 1) + 1) >> ((k & 1) << 5) & _MASK32
    m = half * n
    return m >> 32, (m & _MASK32) < (2**32 - n) % n


def _record_draws(words: np.ndarray, lengths: np.ndarray, token_prob: float):
    """What denoise_tokens draws for each record i of a block, with
    lengths[i] tokens, from the PCG64 seeded from words[i].

    Returns (exact, record, position, pick): the records that need
    denoise_tokens itself (a pick in the rejection zone, or 2**32 tokens
    or more), and, for every other record, its hits in order as token
    `position` of `record` replaced by token `pick`."""
    import numpy as np

    exact = lengths >= 2**32
    n = np.where(exact, 0, lengths)
    record = np.repeat(np.arange(len(n)), n)
    # Token t of a record is its draw t + 1, a hit where the double
    # (x >> 11) * 2**-53 falls below token_prob.
    draw = np.arange(len(record)) - (np.cumsum(n) - n)[record] + 1
    hit = np.flatnonzero(_pcg_draws(words[record], draw) >> 11
                         < math.ceil(token_prob * 2**53))
    record, position = record[hit], draw[hit] - 1
    # A hit's rank among its record's hits; searchsorted finds each
    # record's first hit, as hits come in record order.
    rank = np.arange(len(hit)) - np.searchsorted(record, record)
    pick, rejected = _picks(words[record], n[record], rank)
    exact[record[rejected]] = True
    keep = ~exact[record]
    return exact, record[keep], position[keep], pick[keep]


def chosen_count(n: int, cfg: DenoiseConfig) -> int:
    """floor(pair_fraction * n): how many of n pairs choose_pairs picks,
    with pair_fraction read as the decimal its repr writes, not as the
    binary float, whose error would floor a whole count away."""
    return math.floor(Fraction(repr(cfg.pair_fraction)) * n)


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
    """chatprep.split_tags's split of a target without a span, refused
    unless it holds a single non-empty payload."""
    tag, payload, tail = split_tags(target)
    if tail.count(CONTEXT_TAG) > 1:
        raise DenoiseFormatError(f"multiple context indicators in target {target!r}")
    if not payload:
        raise DenoiseFormatError(f"empty payload in target {target!r}")
    return tag, payload, tail


def _check_span(target: str, span: tuple[int, int]) -> None:
    """Refuse a (start, end) span outside the target's single-space tokens."""
    start, end = span
    if not is_token_span(target, start, end):
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


# Payload tokens of the chosen records that one _noise_block draws for:
# enough to make its numpy calls cheap per token, few enough to bound its
# arrays.
_BLOCK_TOKENS = 1 << 14


def _noise_block(out: list[BitextPair], block: list[tuple[int, TargetSpans]],
                 cfg: DenoiseConfig) -> None:
    """Noise the chosen records of a block, given as (index, split
    target) in input order, into out."""
    import numpy as np

    words = _record_states(cfg.seed, [i for i, _ in block])
    lengths = np.array([len(spans.payload) for _, spans in block], dtype=np.int64)
    exact, records, positions, picks = _record_draws(words, lengths, cfg.token_prob)
    noised: dict[int, list[str]] = {}
    for r, position, pick in zip(records.tolist(), positions.tolist(), picks.tolist()):
        payload = block[r][1].payload
        tokens = noised.get(r)
        if tokens is None:
            tokens = noised[r] = list(payload)
        tokens[position] = payload[pick]
    for r in np.flatnonzero(exact).tolist():
        i, spans = block[r]
        noised[r] = denoise_tokens(spans.payload, cfg, _record_rng(cfg.seed, i))
    for r, tokens in noised.items():
        i, spans = block[r]
        target = spans.head + " ".join(tokens) + spans.tail
        # The bitext reader would refuse a blank target as empty.
        if target.strip():
            pair = out[i]
            out[i] = BitextPair(pair.source, target, pair.origin, pair.payload_span, pair.line)


def denoise_corpus(
    pairs: Sequence[BitextPair],
    cfg: DenoiseConfig,
    payload_spans: Sequence[tuple[int, int] | None] | None = None,
) -> list[BitextPair]:
    """Noise the chosen pairs' target payloads; everything else is
    byte-identical to the input. A noised target left blank keeps its
    input. Every record is checked as if chosen, in input order, so that
    the seed cannot decide what is accepted: a span must be in range and
    a target without one must split. A pair's payload_span marks its
    payload; payload_spans, where given, overrides the pairs' spans."""
    if payload_spans is not None and len(payload_spans) != len(pairs):
        raise ValueError("payload_spans length must match pairs")
    chosen = choose_pairs(len(pairs), cfg)
    out = list(pairs)
    block: list[tuple[int, TargetSpans]] = []
    block_tokens = 0
    # A check or split that fails names the record i it was on, and its line.
    try:
        for i, pair in enumerate(pairs):
            span = pair.payload_span if payload_spans is None else payload_spans[i]
            if i not in chosen:
                if span is None:
                    _split_chat_line(pair.target)
                else:
                    _check_span(pair.target, span)
                continue
            spans = split_target(pair.target, span)
            block.append((i, spans))
            block_tokens += len(spans.payload)
            if block_tokens >= _BLOCK_TOKENS:
                _noise_block(out, block, cfg)
                block, block_tokens = [], 0
    except DenoiseFormatError as exc:
        raise DenoiseFormatError(exc.reason, i, pair.line) from exc
    if block:
        _noise_block(out, block, cfg)
    return out
