import random
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

import oracle
from chatmt.chatprep import RESERVED_TAGS, strip_tags
from chatmt.corpus import BITEXT_FORMATS, BitextPair, parse_bitext, write_bitext
from chatmt import denoise
from chatmt.denoise import (
    DenoiseConfig,
    DenoiseFormatError,
    _picks,
    _record_draws,
    _record_rng,
    _record_states,
    _split_chat_line,
    choose_pairs,
    chosen_count,
    denoise_corpus,
    denoise_tokens,
    split_target,
)
from oracle import outcome, record_rng


class TestChoosePairs:
    def test_exact_count(self):
        cfg = DenoiseConfig(seed=1)
        assert len(choose_pairs(10, cfg)) == 3

    def test_zero_fraction(self):
        assert choose_pairs(10, DenoiseConfig(pair_fraction=0.0, seed=1)) == set()

    def test_floor_semantics(self):
        assert choose_pairs(3, DenoiseConfig(seed=1)) == set()

    def test_large_corpus_exact(self):
        assert len(choose_pairs(10_000, DenoiseConfig(seed=7))) == 3000

    def test_deterministic(self):
        cfg = DenoiseConfig(seed=99)
        assert choose_pairs(50, cfg) == choose_pairs(50, cfg)

    def test_distinct_and_in_range(self):
        chosen = choose_pairs(20, DenoiseConfig(pair_fraction=0.5, seed=3))
        assert len(chosen) == 10
        assert all(0 <= i < 20 for i in chosen)

    # The float product 0.29 * 10**8 is 28999999.999999996.
    @pytest.mark.parametrize("n, pair_fraction, count", [
        (100, 0.29, 29), (10_000, 0.3, 3000), (10**8, 0.29, 29_000_000),
        (10**8, 0.57, 57_000_000), (10**8, 0.58, 58_000_000), (10**8, 1.0, 10**8),
    ])
    def test_count_reads_pair_fraction_as_written(self, n, pair_fraction, count):
        assert chosen_count(n, DenoiseConfig(pair_fraction=pair_fraction)) == count


@given(st.integers(0, 300), st.sampled_from([0.0, 0.3, 1.0]) | st.floats(0.0, 1.0))
def test_chosen_count_is_the_reports_count(n, pair_fraction):
    cfg = DenoiseConfig(pair_fraction=pair_fraction, seed=1)
    assert chosen_count(n, cfg) == len(oracle.choose_pairs(n, cfg)) == len(choose_pairs(n, cfg))


class TestDenoiseTokens:
    def test_identical_tokens_unchanged(self):
        cfg = DenoiseConfig(token_prob=1.0, seed=5)
        for seed in range(5):
            out = denoise_tokens(["x", "x", "x"], cfg, record_rng(seed, 0))
            assert out == ["x", "x", "x"]

    def test_prob_zero_unchanged(self):
        cfg = DenoiseConfig(token_prob=0.0, seed=5)
        tokens = ["a", "b", "c"]
        assert denoise_tokens(tokens, cfg, record_rng(5, 0)) == tokens

    def test_prob_one_membership(self):
        cfg = DenoiseConfig(token_prob=1.0, seed=5)
        rng = random.Random(0)
        for i in range(50):
            tokens = [f"t{rng.randint(0, 9)}" for _ in range(rng.randint(1, 20))]
            out = denoise_tokens(tokens, cfg, record_rng(5, i))
            assert len(out) == len(tokens)
            assert all(tok in tokens for tok in out)

    def test_empty(self):
        assert denoise_tokens([], DenoiseConfig(seed=1), record_rng(1, 0)) == []


class TestSplitTarget:
    def test_plain_payload(self):
        assert split_target("ein zwei drei") == ("", ("ein", "zwei", "drei"), "")

    def test_tag_and_context(self):
        spans = split_target("<agent> Guten Tag <context begins> Hallo <SEP> x")
        assert spans.head == "<agent> "
        assert spans.payload == ("Guten", "Tag")
        assert spans.tail == " <context begins> Hallo <SEP> x"

    def test_explicit_span(self):
        assert split_target("a b c d", payload_span=(1, 3)) == ("a ", ("b", "c"), " d")

    def test_bad_span(self):
        with pytest.raises(DenoiseFormatError):
            split_target("a b", payload_span=(0, 5))

    def test_double_indicator_rejected(self):
        with pytest.raises(DenoiseFormatError):
            split_target("a <context begins> b <context begins> c")

    def test_empty_payload_rejected(self):
        with pytest.raises(DenoiseFormatError):
            split_target("<agent> <context begins> x")


def make_corpus(n, n_tokens=12, with_structure=False):
    pairs = []
    for i in range(n):
        payload = " ".join(f"w{i}_{j}" for j in range(n_tokens))
        if with_structure:
            tgt = f"<agent> {payload} <context begins> ctx{i} <SEP> older{i}"
        else:
            tgt = payload
        pairs.append(BitextPair(source=f"src {i}", target=tgt))
    return pairs


class TestDenoiseCorpus:
    def test_zero_fraction_identity(self):
        pairs = make_corpus(50)
        cfg = DenoiseConfig(pair_fraction=0.0, seed=3)
        assert denoise_corpus(pairs, cfg) == pairs

    def test_determinism(self):
        pairs = make_corpus(200)
        cfg = DenoiseConfig(seed=11, token_prob=0.5)
        assert denoise_corpus(pairs, cfg) == denoise_corpus(pairs, cfg)

    def test_sources_and_unchosen_untouched(self):
        pairs = make_corpus(100)
        cfg = DenoiseConfig(seed=4, token_prob=1.0)
        out = denoise_corpus(pairs, cfg)
        chosen = choose_pairs(100, cfg)
        for i, (a, b) in enumerate(zip(pairs, out)):
            assert a.source == b.source
            if i not in chosen:
                assert a == b

    def test_length_preserved_and_pool_closure(self):
        pairs = make_corpus(100)
        cfg = DenoiseConfig(seed=4, token_prob=0.9)
        out = denoise_corpus(pairs, cfg)
        for a, b in zip(pairs, out):
            orig = a.target.split(" ")
            new = b.target.split(" ")
            assert len(orig) == len(new)
            assert all(tok in orig for tok in new)

    def test_structure_immune(self):
        pairs = make_corpus(60, with_structure=True)
        cfg = DenoiseConfig(seed=8, token_prob=1.0)
        out = denoise_corpus(pairs, cfg)
        for a, b in zip(pairs, out):
            orig_spans = split_target(a.target)
            new_spans = split_target(b.target)
            assert new_spans.head == orig_spans.head
            assert new_spans.tail == orig_spans.tail
            assert len(new_spans.payload) == len(orig_spans.payload)

    def test_order_independent_substreams(self):
        # Noising a prefix of the corpus must agree with noising the full
        # corpus on the records the two runs share... not literally (the
        # selection depends on n), so check the per-record generator only.
        cfg = DenoiseConfig(seed=21)
        a = record_rng(cfg.seed, 5).random(4)
        b = record_rng(cfg.seed, 5).random(4)
        c = record_rng(cfg.seed, 6).random(4)
        assert np.allclose(a, b)
        assert not np.allclose(a, c)

    def test_unparseable_record_names_index(self):
        pairs = [BitextPair("s", "a <context begins> b <context begins> c")]
        cfg = DenoiseConfig(pair_fraction=1.0, seed=0)
        with pytest.raises(DenoiseFormatError, match="record 0"):
            denoise_corpus(pairs, cfg)

    @pytest.mark.parametrize("pair_fraction", [0.0, 1.0])
    def test_error_on_parsed_pairs_names_the_line_and_the_record(self, pair_fraction):
        # A blank JSONL line is no record, so pair 1 is read from line 3.
        pairs = list(parse_bitext(['{"source": "s", "target": "ok"}\n', "\n",
                                   '{"source": "s", "target": "<agent> <context begins> x"}\n'],
                                  "jsonl"))
        with pytest.raises(DenoiseFormatError) as info:
            denoise_corpus(pairs, DenoiseConfig(pair_fraction=pair_fraction))
        assert str(info.value) == "line 3: empty payload in target '<agent> <context begins> x'"
        assert (info.value.record, info.value.line) == (1, 3)

    @pytest.mark.parametrize("pair_fraction", [0.0, 0.5, 1.0])
    def test_first_unparseable_record_whether_chosen_or_not(self, pair_fraction):
        pairs = make_corpus(8, with_structure=True)
        pairs[5] = BitextPair("s", "<agent> <context begins> x")
        pairs[6] = BitextPair("s", "a <context begins> b <context begins> c")
        for seed in range(8):
            cfg = DenoiseConfig(pair_fraction=pair_fraction, seed=seed)
            with pytest.raises(DenoiseFormatError, match="record 5: empty payload"):
                denoise_corpus(pairs, cfg)

    @pytest.mark.parametrize("pair_fraction", [0.0, 0.5, 1.0])
    def test_first_out_of_range_span_whether_chosen_or_not(self, pair_fraction):
        pairs = [BitextPair("s", "a b", payload_span=(0, 5))]
        for seed in range(4):
            cfg = DenoiseConfig(pair_fraction=pair_fraction, seed=seed)
            with pytest.raises(DenoiseFormatError, match=r"record 0: span \(0, 5\) out of range"):
                denoise_corpus(pairs, cfg, [(0, 5)])
        # A bad span ahead of an unsplittable target is the one reported.
        pairs = make_corpus(8, with_structure=True)
        pairs[6] = BitextPair("s", "<agent> <context begins> x")
        spans = [None] * 8
        spans[3] = (1, pairs[3].target.count(" ") + 2)
        for seed in range(8):
            cfg = DenoiseConfig(pair_fraction=pair_fraction, seed=seed)
            with pytest.raises(DenoiseFormatError, match=r"record 3: span"):
                denoise_corpus(pairs, cfg, spans)

    def test_pairs_own_spans_without_the_argument(self):
        # Split as a chat line, the last "keep" would be payload too.
        pairs = [BitextPair("s", "keep keep a b c d e f g h i j keep", payload_span=(2, 12))
                 for _ in range(4)]
        cfg = DenoiseConfig(pair_fraction=1.0, token_prob=1.0, seed=1)
        out = denoise_corpus(pairs, cfg)
        assert out == denoise_corpus(pairs, cfg, [p.payload_span for p in pairs])
        assert out == oracle.denoise_corpus(pairs, cfg)
        assert out != pairs
        for pair in out:
            tokens = pair.target.split(" ")
            assert tokens[:2] + tokens[12:] == ["keep"] * 3

    def test_blank_noised_target_keeps_its_input(self):
        # Seed 12 draws the empty token for both tokens of " x".
        cfg = DenoiseConfig(pair_fraction=1.0, token_prob=1.0, seed=12)
        assert denoise_tokens(["", "x"], cfg, record_rng(12, 0)) == ["", ""]
        pairs = [BitextPair("s", " x")]
        assert denoise_corpus(pairs, cfg) == pairs


# Guards of the library API that no CLI path reaches.
@pytest.mark.parametrize("call, message", [
    (lambda: list(parse_bitext(["s\tt\n"], "csv")), "unknown bitext format 'csv'"),
    (lambda: list(parse_bitext(["s\tt\n"], "tsv", "raise")), "unknown fail mode 'raise'"),
    (lambda: list(write_bitext([BitextPair("s", "t")], "csv")), "unknown bitext format 'csv'"),
    (lambda: choose_pairs(-1, DenoiseConfig()), "n must be >= 0"),
    (lambda: denoise_corpus([BitextPair("s", "t")], DenoiseConfig(), []),
     "payload_spans length must match pairs"),
], ids=["parse-format", "parse-fail-mode", "write-format", "choose-negative", "spans-length"])
def test_api_guards_raise_value_error(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message


def test_golden_small_corpus():
    """Frozen outputs pin the seeded generator; a change here means the
    RNG scheme changed and every downstream corpus would silently shift."""
    pairs = make_corpus(10, n_tokens=4)
    cfg = DenoiseConfig(pair_fraction=0.5, token_prob=0.5, seed=42)
    out = denoise_corpus(pairs, cfg)
    golden = {i: out[i].target for i in sorted(choose_pairs(10, cfg))}
    expected = GOLDEN_TARGETS
    assert golden == expected


# Frozen from a reference run; see test_golden_small_corpus.
GOLDEN_TARGETS = {
    0: "w0_0 w0_1 w0_2 w0_2",
    3: "w3_0 w3_1 w3_2 w3_2",
    4: "w4_3 w4_1 w4_2 w4_3",
    5: "w5_3 w5_0 w5_1 w5_2",
    7: "w7_3 w7_3 w7_2 w7_0",
}


# --- target splits against the oracle's split -----------------------------

chat_lines = st.lists(
    st.sampled_from(["a", "bc", "<x>", " ", "  ", *RESERVED_TAGS]), max_size=12
).map("".join)


@given(chat_lines)
@example("<agent>\tx")
@example("<agent>x <context begins> y")
@example(" <agent> x")
@example("<agent>  x")
@example("<context begins> x")
def test_chat_line_parsing_matches_reference(text):
    assert strip_tags(text) == oracle.split_chat_line(text)[1]
    assert outcome(split_target, text) == outcome(oracle.split_target, text)


# Up to three leading tags (with or without their space), spaces and
# payload words, then up to five context pieces: indicators with or
# without the space before them, text and separators.
_structured_lines = st.tuples(
    st.lists(st.sampled_from(["<agent>", "<customer>", "<BT>", "<agent> ", "<customer> ",
                              "<BT> ", " ", "a", "b c"]), max_size=3),
    st.lists(st.sampled_from([" <context begins>", "<context begins>", " x", " <SEP> y", "z"]),
             max_size=5),
).map(lambda parts: "".join(parts[0] + parts[1]))


@given(chat_lines | _structured_lines)
@example("")
@example("<customer> ")
@example("<agent>  <context begins> x")
@example("<BT> <context begins> x <context begins> y")
@example("a <context begins><context begins>")
def test_chat_line_check_refuses_what_the_split_refuses(target):
    checked, split = outcome(_split_chat_line, target), outcome(oracle.split_target, target)
    assert checked == (("ok", oracle.split_chat_line(target)) if split[0] == "ok" else split)


_targets = st.lists(
    st.sampled_from(["a", "bc", "a", "", "<agent>", "<customer>", "<context begins>", "<SEP>"]),
    min_size=1, max_size=6,
).map(" ".join)
# Leading, trailing and doubled spaces put empty tokens next to spans.
_pads = st.sampled_from(["", " ", "  "])


@st.composite
def _spanned_targets(draw):
    target = draw(_pads) + draw(_targets) + draw(_pads)
    n = target.count(" ") + 1
    start = draw(st.integers(0, n))
    return target, (start, draw(st.integers(start, n + 1)))


@example(("a b", (1, 1)))
@example((" x", (1, 2)))
@example(("<agent> a <context begins> b", None))
@given(st.tuples(chat_lines, st.none()) | _spanned_targets())
def test_split_target_rebuilds_to_target_with_parent_payload(case):
    target, span = case
    split = outcome(split_target, target, span)
    assert split == outcome(oracle.split_target, target, span)
    if split[0] == "ok":
        head, payload, tail = split[1]
        assert head + " ".join(payload) + tail == target


# --- record streams against one SeedSequence per record ------------------

EDGE_SEEDS = (0, 1, 2**32 - 1, 2**32, 2**64 - 1)
EDGE_INDICES = [0, 2**32 - 1, 2**32, 2**40]


def _examples(test):
    for seed in EDGE_SEEDS:
        test = example(seed, EDGE_INDICES)(test)
    return test


@_examples
@given(st.sampled_from(EDGE_SEEDS) | st.integers(0, 2**64 - 1),
       st.lists(st.sampled_from(EDGE_INDICES) | st.integers(0, sys.maxsize),
                min_size=1, max_size=8))
def test_record_states_match_numpy(seed, indices):
    states = _record_states(seed, indices)
    assert states.dtype == np.uint64 and states.shape == (len(indices), 4)
    for index, row in zip(indices, states):
        seq = np.random.SeedSequence(entropy=seed, spawn_key=(index,))
        assert row.tolist() == seq.generate_state(4, np.uint64).tolist()
        assert _record_rng(seed, index).bit_generator.state == np.random.PCG64(seq).state


@st.composite
def _corpora(draw):
    targets = draw(st.lists(_targets, max_size=30))
    if not draw(st.booleans()):
        spans = None
    else:
        targets = [draw(_pads) + target + draw(_pads) for target in targets]
        spans = []
        for target in targets:
            n = target.count(" ") + 1
            start = draw(st.integers(0, n))
            spans.append(draw(st.none() | st.tuples(st.just(start), st.integers(start, n + 1))))
    pairs = [BitextPair(f"s{i}", target, payload_span=spans[i] if spans else None)
             for i, target in enumerate(targets)]
    return pairs, spans


_fractions = st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)


@given(_corpora(), _fractions, st.integers(0, 2**64 - 1))
def test_every_in_range_span_denoises(corpus, token_prob, seed):
    pairs, _ = corpus
    pairs = [p for p in pairs if p.payload_span and p.payload_span[1] <= p.target.count(" ") + 1]
    cfg = DenoiseConfig(pair_fraction=1.0, token_prob=token_prob, seed=seed)
    for pair, noised in zip(pairs, denoise_corpus(pairs, cfg, [p.payload_span for p in pairs])):
        start, end = pair.payload_span
        before, after = pair.target.split(" "), noised.target.split(" ")
        assert len(after) == len(before)
        assert after[:start] == before[:start] and after[end:] == before[end:]


@example(([BitextPair("s", "a")], [(0, 1)]), 1.0, 1.0, 0)
@example(([BitextPair("s", "a b", payload_span=(0, 5))], [(0, 5)]), 0.0, 1.0, 0)
@example(([BitextPair("s", "<agent> a"), BitextPair("s", "b")], None), 1.0, 1.0, 2**64 - 1)
@example(([BitextPair("s", " x")], None), 1.0, 1.0, 12)
@given(_corpora(), _fractions, _fractions, st.sampled_from(EDGE_SEEDS) | st.integers(0, 2**64 - 1))
def test_denoise_corpus_matches_per_record_seed_sequences(corpus, pair_fraction, token_prob, seed):
    pairs, spans = corpus
    cfg = DenoiseConfig(pair_fraction=pair_fraction, token_prob=token_prob, seed=seed)
    assert outcome(denoise_corpus, pairs, cfg, spans) == \
        outcome(oracle.denoise_corpus, pairs, cfg, spans)


def _denoise_accepts(pair):
    try:
        split_target(pair.target, pair.payload_span)
    except DenoiseFormatError:
        return False
    return True


@example(([BitextPair("s", " x")], None), "tsv", 1.0, 1.0, 12)
@given(_corpora(), st.sampled_from(BITEXT_FORMATS), _fractions, _fractions,
       st.integers(0, 2**64 - 1))
def test_denoised_output_parses_back(corpus, fmt, pair_fraction, token_prob, seed):
    pairs = [p if fmt == "jsonl" else replace(p, payload_span=None) for p in corpus[0]]
    # Only inputs the reader yields and denoise accepts.
    pairs = [p for p in pairs if p.target.strip() and _denoise_accepts(p)]
    cfg = DenoiseConfig(pair_fraction=pair_fraction, token_prob=token_prob, seed=seed)
    noised = denoise_corpus(pairs, cfg, [p.payload_span for p in pairs])
    assert list(parse_bitext(write_bitext(noised, fmt), fmt)) == noised


# --- vectorized draws against numpy's own generators -----------------------

_lengths = st.lists(st.sampled_from([0, 1, 2]) | st.integers(0, 40), min_size=1, max_size=8)


def _draw_examples(test):
    for seed in EDGE_SEEDS:
        for token_prob in (0.0, 1.0, 0.15):
            test = example(seed, EDGE_INDICES, [0, 1, 2, 9], token_prob)(test)
    return test


@_draw_examples
@given(st.sampled_from(EDGE_SEEDS) | st.integers(0, 2**64 - 1),
       st.lists(st.sampled_from(EDGE_INDICES) | st.integers(0, sys.maxsize),
                min_size=1, max_size=8),
       _lengths, _fractions)
def test_record_draws_match_numpy(seed, indices, lengths, token_prob):
    lengths = (lengths * len(indices))[:len(indices)]
    words = _record_states(seed, indices)
    exact, records, positions, picks = _record_draws(
        words, np.array(lengths, dtype=np.int64), token_prob)
    assert exact.shape == (len(indices),)
    for r, (index, n) in enumerate(zip(indices, lengths)):
        hits, rejected = oracle.record_draws(seed, index, n, token_prob)
        assert exact[r] == rejected
        mine = [(int(p), int(k)) for p, k in zip(positions[records == r], picks[records == r])]
        assert mine == ([] if rejected else hits)


@given(st.sampled_from(EDGE_SEEDS) | st.integers(0, 2**64 - 1),
       st.sampled_from(EDGE_INDICES) | st.integers(0, sys.maxsize),
       st.sampled_from([2**31 + 1, 3 * 2**30, 2**32 - 1]) | st.integers(2**31, 2**32 - 1),
       st.integers(0, 5))
def test_picks_near_2_32_match_numpy(seed, index, n, rank):
    # Lengths this large reject about a quarter to a half of all draws.
    pick, rejected = _picks(_record_states(seed, [index]), np.array([n]), np.array([rank]))

    def positioned():
        # After n doubles and rank earlier 32-bit draws.
        rng = record_rng(seed, index)
        rng.bit_generator.advance(n + rank // 2)
        if rank % 2:
            rng.integers(2**32, dtype=np.uint64)
        return rng

    m = int(positioned().integers(2**32, dtype=np.uint64)) * n
    assert rejected[0] == (m & 0xFFFFFFFF < (2**32 - n) % n)
    if not rejected[0]:
        assert pick[0] == m >> 32 == positioned().integers(n)


def test_records_of_more_than_2_32_tokens_take_the_exact_path():
    # No tokens are built: the lengths alone send them to denoise_tokens.
    # (Exactly 2**32 is left out: a draw function that expanded it would
    # need 32 GB, where these lengths fail at once.)
    words = _record_states(3, [0, 1, 2, 3])
    exact, records, _, _ = _record_draws(
        words, np.array([2**32 + 1, 2, 2**40, 2**63 - 1], dtype=np.int64), 1.0)
    assert exact.tolist() == [True, False, True, True]
    assert set(records.tolist()) == {1}


def test_a_rejected_pick_sends_its_whole_record_to_the_exact_path(monkeypatch):
    # Every token hits; the second pick of each record is rejected.
    monkeypatch.setattr(denoise, "_picks", lambda words, n, ranks: (ranks, ranks == 1))
    exact, records, positions, picks = _record_draws(
        _record_states(0, [0, 1, 2]), np.array([3, 1, 4], dtype=np.int64), 1.0)
    assert exact.tolist() == [True, False, True]
    assert records.tolist() == [1] and positions.tolist() == [0] and picks.tolist() == [0]


class _RejectEvery:
    """Stands in for st.data() in an example: the True it draws forces
    every pick into the rejection zone (it broadcasts over the picks)."""

    def draw(self, strategy):
        return True


# Seed 0 chooses records 1 and 2 of 3, so each exact-path record's place
# in its block differs from its input index.
@example(([BitextPair(f"s{i}", target) for i, target in
           enumerate(["x y z", "a b c d e f", "g h i j k l"])], None),
         0.7, 1.0, 0, _RejectEvery())
@given(_corpora(), _fractions, _fractions, st.integers(0, 2**64 - 1), st.data())
def test_exact_path_records_match_per_record_seed_sequences(
        corpus, pair_fraction, token_prob, seed, data):
    # Send any records to the exact path, as a pick in the rejection
    # zone does.
    pairs, spans = corpus

    def rejecting(words, lengths, ranks):
        pick, rejected = _picks(words, lengths, ranks)
        forced = data.draw(st.lists(st.booleans(), min_size=len(pick), max_size=len(pick)))
        return pick, rejected | np.array(forced, dtype=bool)

    cfg = DenoiseConfig(pair_fraction=pair_fraction, token_prob=token_prob, seed=seed)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(denoise, "_picks", rejecting)
        assert outcome(denoise_corpus, pairs, cfg, spans) == \
            outcome(oracle.denoise_corpus, pairs, cfg, spans)


@pytest.mark.parametrize("rejected", [False, True])
@pytest.mark.parametrize("block_tokens", [None, 5])
def test_record_rng_is_built_once_per_exact_path_record(monkeypatch, rejected, block_tokens):
    # Every token hits; either every pick is rejected, so that every chosen
    # record takes the exact path, or none is. perfbench's
    # denoise.rngs_built counts these calls.
    calls = []

    def counted(seed, index):
        calls.append((seed, index))
        return _record_rng(seed, index)

    monkeypatch.setattr(denoise, "_record_rng", counted)
    monkeypatch.setattr(denoise, "_picks", lambda words, n, ranks: (
        np.zeros_like(ranks), np.full(len(ranks), rejected)))
    if block_tokens:
        monkeypatch.setattr(denoise, "_BLOCK_TOKENS", block_tokens)
    pairs = make_corpus(20, n_tokens=3)
    cfg = DenoiseConfig(pair_fraction=0.5, token_prob=1.0, seed=7)
    noised = denoise_corpus(pairs, cfg)
    chosen = sorted(choose_pairs(len(pairs), cfg))
    assert calls == ([(cfg.seed, i) for i in chosen] if rejected else [])
    if rejected:
        assert noised == oracle.denoise_corpus(pairs, cfg)
    else:
        assert all(noised[i].target == " ".join([f"w{i}_0"] * 3) for i in chosen)


@pytest.mark.parametrize("block_tokens, n_tokens", [
    (1, 1), (7, 1), (7, 12), (None, 12), (None, 40),
])
def test_corpus_of_several_blocks_matches_per_record_seed_sequences(
        monkeypatch, block_tokens, n_tokens):
    if block_tokens:
        monkeypatch.setattr(denoise, "_BLOCK_TOKENS", block_tokens)
    n = max(3 * denoise._BLOCK_TOKENS // n_tokens, 200) + 10
    pairs = make_corpus(n, n_tokens=n_tokens, with_structure=True)
    cfg = DenoiseConfig(pair_fraction=0.9, token_prob=0.3, seed=2**64 - 1)
    assert len(choose_pairs(n, cfg)) * n_tokens > 2 * denoise._BLOCK_TOKENS
    assert denoise_corpus(pairs, cfg) == oracle.denoise_corpus(pairs, cfg)
