"""Target-denoising corpus generation.

A fixed fraction of pairs is chosen (exact count, floor(fraction * n),
sampled without replacement) and, within each chosen pair, every target
payload token is independently replaced with probability
token_prob by a token drawn uniformly from the original target
payload (self-replacement allowed). Sources, unchosen pairs, speaker
tags, and context spans are never touched.

Randomness is pinned to numpy's PCG64. The pair selection uses
SeedSequence(seed); record i uses SeedSequence(seed, spawn_key=(i,)), so
output is a pure function of (corpus, config) regardless of processing
order or thread count.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
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


def _record_rng(seed: int, index: int) -> np.random.Generator:
    import numpy as np

    ss = np.random.SeedSequence(entropy=seed, spawn_key=(index,))
    return np.random.Generator(np.random.PCG64(ss))


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
    draws = rng.random(n)
    for i in range(n):
        if draws[i] < cfg.token_prob:
            out[i] = tokens[int(rng.integers(n))]
    return out


@dataclass(frozen=True)
class TargetSpans:
    """A target line split as prefix + payload tokens + suffix; joining
    the parts back with single spaces must reproduce the line exactly."""

    prefix: str
    payload: tuple[str, ...]
    suffix: str

    def rebuild(self, payload: Sequence[str]) -> str:
        mid = " ".join(payload)
        out = f"{self.prefix} {mid}" if self.prefix else mid
        return out + self.suffix


def split_target(
    target: str, payload_span: tuple[int, int] | None = None
) -> TargetSpans:
    """Locate the mutable payload of a target line.

    With an explicit (start, end) token span, the split is positional.
    Otherwise the chat line is parsed by `chatprep.split_tags`.
    """
    if payload_span is not None:
        tokens = target.split(" ")
        start, end = payload_span
        if not 0 <= start <= end <= len(tokens):
            raise DenoiseFormatError(
                f"span {payload_span} out of range for {target!r}"
            )
        prefix = " ".join(tokens[:start])
        payload = tuple(tokens[start:end])
        rest = tokens[end:]
        suffix = (" " + " ".join(rest)) if rest else ""
        spans = TargetSpans(prefix=prefix, payload=payload, suffix=suffix)
    else:
        prefix, payload, suffix = split_tags(target)
        if suffix.count(CONTEXT_TAG) > 1:
            raise DenoiseFormatError(
                f"multiple context indicators in target {target!r}"
            )
        if not payload:
            raise DenoiseFormatError(f"empty payload in target {target!r}")
        spans = TargetSpans(prefix=prefix, payload=tuple(payload.split(" ")), suffix=suffix)

    if spans.rebuild(spans.payload) != target:
        raise DenoiseFormatError(f"target {target!r} does not round-trip")
    return spans


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
    out: list[BitextPair] = []
    for i, pair in enumerate(pairs):
        if i not in chosen:
            out.append(pair)
            continue
        span = payload_spans[i] if payload_spans is not None else None
        try:
            spans = split_target(pair.target, span)
        except DenoiseFormatError as exc:
            raise DenoiseFormatError(exc.reason, i) from exc
        noised = denoise_tokens(spans.payload, cfg, _record_rng(cfg.seed, i))
        out.append(replace(pair, target=spans.rebuild(noised)))
    return out
