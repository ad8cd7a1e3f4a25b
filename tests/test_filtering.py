import random
import string
import sys
from unittest import mock

import pytest
from hypothesis import example, given, strategies as st

import chatmt.filtering as filtering
import oracle
from chatmt.corpus import ORIGINS, BitextPair
from chatmt.filtering import (
    _CHAR_MAP,
    DROP_REASONS,
    RULE_LENGTH,
    RULE_RATIO,
    FilterConfig,
    filter_corpus,
    normalize_punctuation,
)

CFG = FilterConfig()


class TestNormalizePunctuation:
    def test_curly_quotes(self):
        assert normalize_punctuation("“Hi”") == '"Hi"'

    def test_nbsp(self):
        assert normalize_punctuation("a\u00A0b") == "a b"

    def test_ellipsis(self):
        assert normalize_punctuation("x…") == "x..."

    def test_full_table(self):
        assert normalize_punctuation("‘a’ ‚b «c»") == "'a' 'b \"c\""
        assert normalize_punctuation("a–b—c") == "a-b-c"
        assert normalize_punctuation("a\u2009b\u202Fc") == "a b c"

    def test_space_collapse_and_trim(self):
        assert normalize_punctuation("  a   b  ") == "a b"

    @given(st.text())
    def test_idempotent(self, s):
        once = normalize_punctuation(s)
        assert normalize_punctuation(once) == once

    # ASCII letters, spaces, tabs and every mapped character, so NBSP next
    # to a space and all-whitespace text are drawn often.
    @given(st.text(alphabet=string.ascii_letters + " \t" + "".join(map(chr, _CHAR_MAP))))
    def test_fast_path_matches_full_passes(self, s):
        assert normalize_punctuation(s) == oracle.normalize(s)

    @given(st.text())
    def test_matches_full_passes_on_any_text(self, s):
        assert normalize_punctuation(s) == oracle.normalize(s)

    # Non-ASCII text with some mapped characters present and others absent.
    @given(st.text(alphabet=st.sampled_from(list(_CHAR_MAP)).map(chr)
                   | st.sampled_from("ab \u00e4\u00f6\u00fc\u00df\u4e2d\u6587\U0001F600\U00020000")))
    def test_matches_full_passes_on_mixed_non_ascii(self, s):
        assert normalize_punctuation(s) == oracle.normalize(s)


def dropped_by(source, target):
    """The rule filter_corpus drops the pair by, or None if it keeps it."""
    _, report = filter_corpus([BitextPair(source, target)], CFG)
    rules = [rule for rule, n in report.dropped_by_rule.items() if n]
    return rules[0] if rules else None


def dropped_reason(source, target):
    """The reason filter_corpus reports dropping the pair for, or None."""
    _, report = filter_corpus([BitextPair(source, target)], CFG)
    reasons = [reason for reason, n in report.dropped_by_reason.items() if n]
    return reasons[0] if reasons else None


class TestLength:
    def test_101_words_dropped(self):
        source = " ".join("a" * 1 for _ in range(101))
        assert dropped_by(source, "ok") == RULE_LENGTH
        assert dropped_reason(source, "ok") == "sentence_too_long"

    def test_41_char_word_dropped(self):
        assert dropped_by("ok", "x" * 41) == RULE_LENGTH
        assert dropped_reason("ok", "x" * 41) == "word_too_long"

    def test_boundaries_kept(self):
        # 100 words against 1 fails the ratio rule, which runs later.
        for source, target in [(" ".join(["w"] * 100), "ok"), ("ok", "x" * 40)]:
            assert dropped_by(source, target) in (None, RULE_RATIO)
            assert dropped_reason(source, target) not in ("sentence_too_long", "word_too_long")

    def test_unicode_chars_counted_as_code_points(self):
        # 40 two-byte characters must still pass.
        assert dropped_by("ok", "ä" * 40) is None
        assert dropped_reason("ok", "ä" * 40) is None
        assert dropped_by("ok", "ä" * 41) == RULE_LENGTH
        assert dropped_reason("ok", "ä" * 41) == "word_too_long"


class TestRatio:
    def test_5_to_1_dropped(self):
        assert dropped_by("one", "a b c d e") == RULE_RATIO
        assert dropped_reason("one", "a b c d e") == "ratio"

    def test_exact_4_to_1_kept(self):
        target = " ".join(["x"] * 16)
        assert dropped_by("a b c d", target) is None
        assert dropped_reason("a b c d", target) is None

    def test_balanced_kept(self):
        assert dropped_by("a b c", "x y z") is None
        assert dropped_reason("a b c", "x y z") is None

    def test_empty_side(self):
        assert dropped_by(" ", "x") == RULE_RATIO
        assert dropped_reason(" ", "x") == "empty_side"
        # The bitext readers refuse a blank side, so only this API sees one.
        _, report = filter_corpus([BitextPair(" ", "x"), BitextPair("y", "\u00a0")], CFG)
        assert report.dropped_by_reason == {**dict.fromkeys(DROP_REASONS, 0), "empty_side": 2}

    @given(st.integers(1, 30), st.integers(1, 30))
    def test_symmetric(self, ns, nt):
        a, b = " ".join(["a"] * ns), " ".join(["b"] * nt)
        assert dropped_by(a, b) == dropped_by(b, a)
        assert dropped_reason(a, b) == dropped_reason(b, a)


def test_dedup_examples():
    a, b, c, d = (BitextPair(*p) for p in [("a", "b"), ("a", "b"), ("a", "c"), ("c", "d")])
    for pairs, want, dropped in [([a, b], [a], 1), ([a, c], [a, c], 0), ([a, d, b, d], [a, d], 2)]:
        kept, report = filter_corpus(pairs)
        assert kept == want
        assert report.dropped_by_rule["dedup"] == dropped


def test_filter_micro_corpus(micro_corpus):
    kept, report = filter_corpus(micro_corpus)
    assert report.input_count == 10
    assert report.kept_count == len(kept) == 7
    assert report.dropped_by_rule == {"length": 1, "dedup": 1, "ratio": 1}
    rekept, rereport = filter_corpus(kept)
    assert rekept == kept
    assert sum(rereport.dropped_by_rule.values()) == 0


def test_filter_empty_input():
    kept, report = filter_corpus([])
    assert kept == []
    assert report.input_count == report.kept_count == 0
    assert all(v == 0 for v in report.dropped_by_rule.values())


def test_config_validation():
    with pytest.raises(ValueError):
        FilterConfig(max_words=0)
    with pytest.raises(ValueError):
        FilterConfig(max_ratio=0.5)


@pytest.mark.parametrize("kwargs, named", [
    ({"max_ratio": float("nan")}, "max_ratio"),
    ({"max_ratio": float("inf")}, "max_ratio"),
    ({"max_ratio": float("-inf")}, "max_ratio"),
    ({"max_words": "100"}, "max_words"),
    ({"max_words": 100.0}, "max_words"),
    ({"max_word_chars": True}, "max_word_chars"),
    ({"max_ratio": "4"}, "max_ratio"),
    ({"max_ratio": False}, "max_ratio"),
    ({"fail_mode": "x"}, "fail_mode must be one of fail_fast, skip_and_count, got 'x'"),
])
def test_config_rejects_bad_values(kwargs, named):
    with pytest.raises(ValueError, match=named):
        FilterConfig(**kwargs)


def test_config_accepts_int_ratio():
    assert FilterConfig(max_ratio=2).max_ratio == 2


# Pieces that join into sides with words of 1-6 characters (the ellipsis
# grows to three), mapped punctuation, runs of spaces and NBSPs, tabs, and
# sides that normalize to no words at all.
_PIECES = ["a", "bb", "ccc", "dddd", "eeeee", "“", "”", "–", "…", "\u00a0", " ", "  ", "\t", ""]
_sides = st.lists(st.sampled_from(_PIECES), max_size=10).map("".join)
_pairs = st.builds(BitextPair, _sides, _sides, st.sampled_from(ORIGINS),
                   st.sampled_from([None, (0, 0)]))


@given(
    # Duplicates are appended so the dedup rule sees repeats.
    st.lists(_pairs, max_size=20).map(lambda ps: ps + ps[::3]),
    st.builds(FilterConfig, st.integers(1, 6), st.integers(1, 5),
              st.sampled_from([1, 1.5, 2.0, 4.0])),
)
def test_filter_corpus_matches_reference(pairs, cfg):
    kept, report = filter_corpus(pairs, cfg)
    assert (kept, report.as_dict()) == oracle.filter_corpus(pairs, cfg)
    assert report.kept_count == len(kept)
    assert all(p.payload_span is None for p in kept)


def random_corpus(rng: random.Random, max_pairs: int = 30):
    vocab = ["a", "bb", "ccc", "w" * 41, "“quoted”", "x…"]
    pairs = []
    for _ in range(rng.randint(0, max_pairs)):
        src = " ".join(rng.choices(vocab, k=rng.randint(1, 12)))
        tgt = " ".join(rng.choices(vocab, k=rng.randint(1, 12)))
        pairs.append(BitextPair(src, tgt))
        if pairs and rng.random() < 0.2:
            pairs.append(rng.choice(pairs))  # inject duplicates
    return pairs


@pytest.mark.parametrize("seed", range(20))
def test_filter_accounting_and_idempotence(seed):
    rng = random.Random(seed)
    pairs = random_corpus(rng)
    kept, report = filter_corpus(pairs)
    assert report.input_count == len(pairs)
    assert report.input_count == report.kept_count + sum(report.dropped_by_rule.values())
    kept2, report2 = filter_corpus(kept)
    assert kept2 == kept
    assert sum(report2.dropped_by_rule.values()) == 0


@pytest.mark.parametrize("seed", range(10))
def test_filter_monotonicity_no_invented_pairs(seed):
    rng = random.Random(1000 + seed)
    pairs = random_corpus(rng)
    normalized = {
        (normalize_punctuation(p.source), normalize_punctuation(p.target))
        for p in pairs
    }
    kept, _ = filter_corpus(pairs)
    assert all((p.source, p.target) in normalized for p in kept)


# Every whitespace character; the mapped characters (three map to a
# space), letters, umlauts, NUL and a zero-width space (neither is
# whitespace, and NUL is not printable). A third of the draws are a
# letter or a space, so sides have several words, and a third are
# whitespace, so some sides keep whitespace that is not a space.
_WHITESPACE = [chr(c) for c in range(sys.maxunicode + 1) if chr(c).isspace()]
_OTHERS = ([chr(c) for c in _CHAR_MAP] + list(string.ascii_letters) + list("äöüÄÖÜß")
           + ["\x00", "\u200b"])
_any_side = st.text(alphabet=st.sampled_from("ab ä") | st.sampled_from(_WHITESPACE)
                    | st.sampled_from(_OTHERS), max_size=14)
_any_pair = st.builds(BitextPair, _any_side, _any_side, st.sampled_from(ORIGINS),
                      st.sampled_from([None, (0, 0), (0, 1)]))


@given(
    # Repeats of earlier pairs, as they are and with a span.
    st.lists(_any_pair, max_size=12).map(lambda ps: ps + ps[::2] + [
        BitextPair(p.source, p.target, p.origin, (0, 0)) for p in ps[1::3]]),
    st.builds(FilterConfig, st.integers(1, 5), st.integers(1, 5), st.floats(1, 4)),
    # Lowering sre's repeat limit sends every word search to the split.
    st.booleans(),
)
# Words of exactly max_word_chars, on a side long enough to be searched.
@example([BitextPair("ab ab", "ab ab")], FilterConfig(5, 2, 4.0), False)
@example([BitextPair("ab ab", "ab ab")], FilterConfig(5, 2, 4.0), True)
def test_filter_corpus_matches_split_words(pairs, cfg, past_repeat_limit):
    with mock.patch.object(filtering, "_MAX_REPEAT", 0 if past_repeat_limit else
                           filtering._MAX_REPEAT):
        kept, report = filter_corpus(pairs, cfg)
    assert (kept, report.as_dict()) == oracle.filter_corpus(pairs, cfg)


def test_only_the_space_is_printable_whitespace():
    # A printable normalized side is therefore split by single spaces.
    assert [c for c in _WHITESPACE if c.isprintable()] == [" "]


def test_unchanged_pairs_kept_as_input_objects():
    plain, span, spaced = (BitextPair("a b", "c d"), BitextPair("e f", "g h", payload_span=(0, 1)),
                           BitextPair("i  j", "k l"))
    kept, _ = filter_corpus([plain, span, spaced])
    assert kept == [plain, BitextPair("e f", "g h"), BitextPair("i j", "k l")]
    assert kept[0] is plain
    assert kept[1] is not span and kept[2] is not spaced


# sre refuses a repeat of 2**32 - 1 or more; each of these still filters.
@pytest.mark.parametrize("max_word_chars", [2**32 - 3, 2**32 - 2, 2**32, 10**30])
def test_huge_max_word_chars(max_word_chars):
    cfg = FilterConfig(max_word_chars=max_word_chars)
    pairs = [BitextPair("a " + "x" * 50, "b c"), BitextPair("a\tb", "c d"),
             BitextPair(" ".join("w" * 101), "d")]
    kept, report = filter_corpus(pairs, cfg)
    assert (kept, report.as_dict()) == oracle.filter_corpus(pairs, cfg)
    assert report.kept_count == 2


@given(st.lists(_any_pair, max_size=8))
def test_normalizes_each_side_once_through_the_module(pairs):
    # The benchmark's tracer counts sides by wrapping this module global.
    calls = []

    def counted(text):
        calls.append(text)
        return normalize_punctuation(text)

    with mock.patch.object(filtering, "normalize_punctuation", counted):
        filter_corpus(pairs)
    assert calls == [side for p in pairs for side in (p.source, p.target)]
