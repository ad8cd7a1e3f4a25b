import random
import re
import string

import pytest
from hypothesis import given, strategies as st

from chatmt.corpus import ORIGINS, BitextPair
from chatmt.filtering import (
    _CHAR_MAP,
    DROP_RULES,
    FilterConfig,
    check_length,
    check_ratio,
    filter_corpus,
    normalize_punctuation,
)

CFG = FilterConfig()


def reference_normalize(text):
    """normalize_punctuation without its fast path: every pass on every text."""
    return re.sub(" {2,}", " ", text.translate(_CHAR_MAP)).strip()


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
        assert normalize_punctuation(s) == reference_normalize(s)


class TestLength:
    def test_101_words_dropped(self):
        pair = BitextPair(" ".join("a" * 1 for _ in range(101)), "ok")
        assert check_length(pair, CFG) == "sentence_too_long"

    def test_41_char_word_dropped(self):
        pair = BitextPair("ok", "x" * 41)
        assert check_length(pair, CFG) == "word_too_long"

    def test_boundaries_kept(self):
        assert check_length(BitextPair(" ".join(["w"] * 100), "ok"), CFG) is None
        assert check_length(BitextPair("ok", "x" * 40), CFG) is None

    def test_unicode_chars_counted_as_code_points(self):
        # 40 two-byte characters must still pass.
        assert check_length(BitextPair("ok", "ä" * 40), CFG) is None
        assert check_length(BitextPair("ok", "ä" * 41), CFG) == "word_too_long"


class TestRatio:
    def test_5_to_1_dropped(self):
        assert check_ratio(BitextPair("one", "a b c d e"), CFG) == "ratio"

    def test_exact_4_to_1_kept(self):
        assert check_ratio(BitextPair("a b c d", " ".join(["x"] * 16)), CFG) is None

    def test_balanced_kept(self):
        assert check_ratio(BitextPair("a b c", "x y z"), CFG) is None

    def test_empty_side(self):
        assert check_ratio(BitextPair(" ", "x"), CFG) == "empty_side"

    @given(st.integers(1, 30), st.integers(1, 30))
    def test_symmetric(self, ns, nt):
        fwd = check_ratio(BitextPair(" ".join(["a"] * ns), " ".join(["b"] * nt)), CFG)
        rev = check_ratio(BitextPair(" ".join(["b"] * nt), " ".join(["a"] * ns)), CFG)
        assert (fwd is None) == (rev is None)


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
        FilterConfig(max_sentence_words=0)
    with pytest.raises(ValueError):
        FilterConfig(max_ratio=0.5)


@pytest.mark.parametrize("kwargs, named", [
    ({"max_ratio": float("nan")}, "max_ratio"),
    ({"max_ratio": float("inf")}, "max_ratio"),
    ({"max_ratio": float("-inf")}, "max_ratio"),
    ({"max_sentence_words": "100"}, "max_sentence_words"),
    ({"max_sentence_words": 100.0}, "max_sentence_words"),
    ({"max_word_chars": True}, "max_word_chars"),
    ({"max_ratio": "4"}, "max_ratio"),
    ({"max_ratio": False}, "max_ratio"),
])
def test_config_rejects_bad_values(kwargs, named):
    with pytest.raises(ValueError, match=named):
        FilterConfig(**kwargs)


def test_config_accepts_int_ratio():
    assert FilterConfig(max_ratio=2).max_ratio == 2


def reference_filter(pairs, cfg):
    """filter_corpus as first written: the full normalization passes on
    every side, and each rule splitting the sides again."""
    def length_reason(pair):
        for side in (pair.source, pair.target):
            words = side.split()
            if len(words) > cfg.max_sentence_words:
                return "sentence_too_long"
            if any(len(w) > cfg.max_word_chars for w in words):
                return "word_too_long"
        return None

    def ratio_reason(pair):
        n_src, n_tgt = len(pair.source.split()), len(pair.target.split())
        if n_src == 0 or n_tgt == 0:
            return "empty_side"
        return "ratio" if max(n_src, n_tgt) > cfg.max_ratio * min(n_src, n_tgt) else None

    kept, dropped, seen = [], dict.fromkeys(DROP_RULES, 0), set()
    for pair in pairs:
        pair = BitextPair(reference_normalize(pair.source), reference_normalize(pair.target),
                          pair.origin)
        if length_reason(pair):
            dropped["length"] += 1
            continue
        if (pair.source, pair.target) in seen:
            dropped["dedup"] += 1
            continue
        seen.add((pair.source, pair.target))
        if ratio_reason(pair):
            dropped["ratio"] += 1
            continue
        kept.append(pair)
    return kept, dropped


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
    want_kept, want_dropped = reference_filter(pairs, cfg)
    assert kept == want_kept
    assert report.dropped_by_rule == want_dropped
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
