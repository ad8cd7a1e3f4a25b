"""Corpus filtering: punctuation normalization, length, dedup, and ratio rules.

Rules run in a fixed order (normalize, length, dedup, ratio) and each
dropped pair is attributed to the first rule that rejects it, so the
report always satisfies input_count == kept_count + sum(drops).

All "exceeds" thresholds are strict: a 100-word sentence, a 40-char
word, and an exact 4:1 ratio are all kept.

Each side is normalized once. Words are whitespace-separated, but a
normalized side that is printable has single spaces between its words
and none around them, so its words are counted from its spaces and its
longest word is bounded, or else found by one regex search, without
splitting it; any other side is split once. Normalization skips the
character mapping for ASCII text (every mapped character is non-ASCII)
and the space-run collapse for text with no double space, so ASCII text
costs one `strip()`. Non-ASCII text costs one `in` scan per mapped
character plus one `replace` per character present; every replacement
is ASCII, so this equals `str.translate` without its per-character
lookups.
"""
from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from typing import Iterable

from .corpus import FAIL_MODES, BitextPair, check_field_types

RULE_LENGTH = "length"
RULE_DEDUP = "dedup"
RULE_RATIO = "ratio"
# Rules that can drop a pair, in application order.
DROP_RULES = (RULE_LENGTH, RULE_DEDUP, RULE_RATIO)
# Why the length rule (the first two) or the ratio rule (the last two)
# dropped a pair.
DROP_REASONS = ("sentence_too_long", "word_too_long", "empty_side", "ratio")

# Pinned normalization mapping: curly quotes, guillemets, dashes,
# ellipsis, and exotic spaces, applied bit-exact and idempotent.
_CHAR_MAP = {
    0x201C: '"', 0x201D: '"', 0x201E: '"', 0x00AB: '"', 0x00BB: '"',
    0x2018: "'", 0x2019: "'", 0x201A: "'",
    0x2013: "-", 0x2014: "-",
    0x2026: "...",
    0x00A0: " ", 0x2009: " ", 0x202F: " ",
}
_CHAR_PAIRS = tuple((chr(code), replacement) for code, replacement in _CHAR_MAP.items())
_SPACE_RUN = re.compile(r" {2,}")


def normalize_punctuation(text: str) -> str:
    if not text.isascii():
        for char, replacement in _CHAR_PAIRS:
            if char in text:
                text = text.replace(char, replacement)
    # After the mapping: NBSP -> space can create a run.
    if "  " in text:
        text = _SPACE_RUN.sub(" ", text)
    return text.strip()


@dataclass(frozen=True)
class FilterConfig:
    max_words: int = 100
    max_word_chars: int = 40
    max_ratio: float = 4.0
    # What the reader does with a malformed input line (corpus.FAIL_MODES).
    fail_mode: str = FAIL_MODES[0]

    def __post_init__(self):
        check_field_types(self)
        if self.max_words <= 0 or self.max_word_chars <= 0:
            raise ValueError("length thresholds must be positive")
        # NaN compares false with everything and inf never drops a pair.
        if not math.isfinite(self.max_ratio) or self.max_ratio < 1:
            raise ValueError(f"max_ratio must be finite and >= 1, got {self.max_ratio!r}")
        if self.fail_mode not in FAIL_MODES:
            raise ValueError(f"fail_mode must be one of {', '.join(FAIL_MODES)}, "
                             f"got {self.fail_mode!r}")


@dataclass
class FilterReport:
    input_count: int = 0
    kept_count: int = 0
    dropped_by_rule: dict = field(
        default_factory=lambda: {r: 0 for r in DROP_RULES}
    )
    # Sums to the length and ratio drops of dropped_by_rule.
    dropped_by_reason: dict = field(
        default_factory=lambda: {r: 0 for r in DROP_REASONS}
    )

    def as_dict(self) -> dict:
        return {
            "input_count": self.input_count,
            "kept_count": self.kept_count,
            "dropped_by_rule": dict(self.dropped_by_rule),
            "dropped_by_reason": dict(self.dropped_by_reason),
        }


# sre refuses a repeat count of 2**32 - 1 (its MAXREPEAT) or more.
_MAX_REPEAT = 2**32 - 1
# What _word_count returns for a side with a word over max_word_chars.
_WORD_TOO_LONG = -1


def _long_word_search(max_word_chars: int):
    """A test of whether a normalized, printable side holds a word of
    more than max_word_chars characters (code points), that is, a run of
    max_word_chars + 1 non-space characters."""
    if max_word_chars + 1 < _MAX_REPEAT:
        return re.compile(f"[^ ]{{{max_word_chars + 1}}}").search
    # Past sre's limit only a side of 4 GiB or more can hold such a word.
    return lambda side: max(map(len, side.split(" "))) > max_word_chars


def _word_count(side: str, max_words: int, max_word_chars: int, long_word) -> int:
    """The number of words of a normalized side, or _WORD_TOO_LONG if it
    has at most max_words words and one of them is over max_word_chars
    characters.

    A printable side is not split: normalization has stripped it and
    collapsed its space runs, and every whitespace character but the
    space is unprintable, so its words are separated by single spaces.
    With s spaces its longest word has at most len(side) - 2s characters,
    so most sides are cleared without a search."""
    if side.isprintable():
        if not side:
            return 0
        spaces = side.count(" ")
        if spaces < max_words and len(side) - 2 * spaces > max_word_chars and long_word(side):
            return _WORD_TOO_LONG
        return spaces + 1
    words = side.split()
    if len(words) <= max_words and words and max(map(len, words)) > max_word_chars:
        return _WORD_TOO_LONG
    return len(words)


def filter_corpus(
    pairs: Iterable[BitextPair], cfg: FilterConfig | None = None
) -> tuple[list[BitextPair], FilterReport]:
    """Apply the rules in order; survivors keep input order. Normalization
    can move token boundaries, so kept pairs carry no payload span. A pair
    that normalization left as it was and that carries no span is kept as
    the input object itself."""
    cfg = cfg or FilterConfig()
    max_words, max_word_chars, max_ratio = cfg.max_words, cfg.max_word_chars, cfg.max_ratio
    long_word = _long_word_search(max_word_chars)
    kept: list[BitextPair] = []
    seen: set[tuple[str, str]] = set()
    count = sentence_too_long = word_too_long = dedup = empty_side = ratio = 0
    for pair in pairs:
        count += 1
        # Called through the module global, once per side, so a wrapper
        # installed on it (the benchmark's tracer) sees every side.
        source = normalize_punctuation(pair.source)
        target = normalize_punctuation(pair.target)
        # Length: the source's sentence, then its words, then the target's.
        n_src = _word_count(source, max_words, max_word_chars, long_word)
        if n_src > max_words:
            sentence_too_long += 1
            continue
        if n_src == _WORD_TOO_LONG:
            word_too_long += 1
            continue
        n_tgt = _word_count(target, max_words, max_word_chars, long_word)
        if n_tgt > max_words:
            sentence_too_long += 1
            continue
        if n_tgt == _WORD_TOO_LONG:
            word_too_long += 1
            continue
        key = (source, target)
        if key in seen:
            dedup += 1
            continue
        seen.add(key)
        # Ratio, max(n) > max_ratio * min(n): a zero-word side is dropped
        # instead of dividing by zero.
        if n_src == 0 or n_tgt == 0:
            empty_side += 1
            continue
        if n_src > max_ratio * n_tgt if n_src >= n_tgt else n_tgt > max_ratio * n_src:
            ratio += 1
            continue
        if source is pair.source and target is pair.target and pair.payload_span is None:
            kept.append(pair)
        else:
            kept.append(BitextPair(source, target, pair.origin, line=pair.line))
    report = FilterReport(count, len(kept))
    report.dropped_by_rule.update({RULE_LENGTH: sentence_too_long + word_too_long,
                                   RULE_DEDUP: dedup, RULE_RATIO: empty_side + ratio})
    report.dropped_by_reason.update(sentence_too_long=sentence_too_long,
                                    word_too_long=word_too_long,
                                    empty_side=empty_side, ratio=ratio)
    return kept, report
