"""Corpus filtering: punctuation normalization, length, dedup, and ratio rules.

Rules run in a fixed order (normalize, length, dedup, ratio) and each
dropped pair is attributed to the first rule that rejects it, so the
report always satisfies input_count == kept_count + sum(drops).

All "exceeds" thresholds are strict: a 100-word sentence, a 40-char
word, and an exact 4:1 ratio are all kept.

Each side is normalized once and split once. Normalization skips the
character mapping for ASCII text (every mapped character is non-ASCII)
and the space-run collapse for text with no double space, so the common
case costs one `strip()`.
"""
from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from typing import Iterable

from .corpus import BitextPair, check_field_types

RULE_LENGTH = "length"
RULE_DEDUP = "dedup"
RULE_RATIO = "ratio"
# Rules that can drop a pair, in application order.
DROP_RULES = (RULE_LENGTH, RULE_DEDUP, RULE_RATIO)

# Pinned normalization mapping: curly quotes, guillemets, dashes,
# ellipsis, and exotic spaces, applied bit-exact and idempotent.
_CHAR_MAP = {
    0x201C: '"', 0x201D: '"', 0x201E: '"', 0x00AB: '"', 0x00BB: '"',
    0x2018: "'", 0x2019: "'", 0x201A: "'",
    0x2013: "-", 0x2014: "-",
    0x2026: "...",
    0x00A0: " ", 0x2009: " ", 0x202F: " ",
}
_SPACE_RUN = re.compile(r" {2,}")


def normalize_punctuation(text: str) -> str:
    if not text.isascii():
        text = text.translate(_CHAR_MAP)
    # After the mapping: NBSP -> space can create a run.
    if "  " in text:
        text = _SPACE_RUN.sub(" ", text)
    return text.strip()


@dataclass(frozen=True)
class FilterConfig:
    max_sentence_words: int = 100
    max_word_chars: int = 40
    max_ratio: float = 4.0

    def __post_init__(self):
        check_field_types(self)
        if self.max_sentence_words <= 0 or self.max_word_chars <= 0:
            raise ValueError("length thresholds must be positive")
        # NaN compares false with everything and inf never drops a pair.
        if not math.isfinite(self.max_ratio) or self.max_ratio < 1:
            raise ValueError(f"max_ratio must be finite and >= 1, got {self.max_ratio!r}")


@dataclass
class FilterReport:
    input_count: int = 0
    kept_count: int = 0
    dropped_by_rule: dict = field(
        default_factory=lambda: {r: 0 for r in DROP_RULES}
    )

    def as_dict(self) -> dict:
        return {
            "input_count": self.input_count,
            "kept_count": self.kept_count,
            "dropped_by_rule": dict(self.dropped_by_rule),
        }


def _length_reason(src_words: list[str], tgt_words: list[str], cfg: FilterConfig) -> str | None:
    for words in (src_words, tgt_words):
        if len(words) > cfg.max_sentence_words:
            return "sentence_too_long"
        if words and max(map(len, words)) > cfg.max_word_chars:
            return "word_too_long"
    return None


def _ratio_reason(n_src: int, n_tgt: int, cfg: FilterConfig) -> str | None:
    if n_src == 0 or n_tgt == 0:
        return "empty_side"
    if max(n_src, n_tgt) > cfg.max_ratio * min(n_src, n_tgt):
        return "ratio"
    return None


def check_length(pair: BitextPair, cfg: FilterConfig) -> str | None:
    """Return a drop reason or None. Character counts are code points."""
    return _length_reason(pair.source.split(), pair.target.split(), cfg)


def check_ratio(pair: BitextPair, cfg: FilterConfig) -> str | None:
    """Drop when the word-count ratio strictly exceeds max_ratio (either
    direction). A zero-word side is dropped instead of dividing by zero."""
    return _ratio_reason(len(pair.source.split()), len(pair.target.split()), cfg)


def filter_corpus(
    pairs: Iterable[BitextPair], cfg: FilterConfig | None = None
) -> tuple[list[BitextPair], FilterReport]:
    """Apply the rules in order; survivors keep input order. Normalization
    can move token boundaries, so kept pairs carry no payload span."""
    cfg = cfg or FilterConfig()
    report = FilterReport()
    kept: list[BitextPair] = []
    seen: set[tuple[str, str]] = set()
    for pair in pairs:
        report.input_count += 1
        # Called through the module global, once per side, so a wrapper
        # installed on it (the benchmark's tracer) sees every side.
        source = normalize_punctuation(pair.source)
        target = normalize_punctuation(pair.target)
        src_words = source.split()
        tgt_words = target.split()
        if _length_reason(src_words, tgt_words, cfg):
            report.dropped_by_rule[RULE_LENGTH] += 1
            continue
        key = (source, target)
        if key in seen:
            report.dropped_by_rule[RULE_DEDUP] += 1
            continue
        seen.add(key)
        if _ratio_reason(len(src_words), len(tgt_words), cfg):
            report.dropped_by_rule[RULE_RATIO] += 1
            continue
        report.kept_count += 1
        kept.append(BitextPair(source, target, pair.origin))
    return kept, report
