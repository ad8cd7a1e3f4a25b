import random

import pytest
from hypothesis import given, strategies as st

from chatmt.corpus import BitextPair
from chatmt.filtering import (
    FilterConfig,
    check_length,
    check_ratio,
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
