import random
from dataclasses import replace

import pytest
from hypothesis import example, given, strategies as st

import oracle
from chatmt.corpus import BitextPair, ChatRecord, Dialogue
from chatmt.chatprep import (
    CONTEXT_TAG,
    RESERVED_TAGS,
    ContextConfig,
    SEP_TAG,
    TagError,
    build_context,
    prepare_chat_corpus,
    split_tags,
    strip_tags,
)
from chatmt.denoise import DenoiseConfig, denoise_corpus
from conftest import make_dialogue
from oracle import outcome


def rec(idx, speaker, src, tgt, src_lang="de", tgt_lang="en"):
    return ChatRecord(
        dialogue_id="d1",
        turn_index=idx,
        speaker=speaker,
        src_text=src,
        tgt_text=tgt,
        src_lang=src_lang,
        tgt_lang=tgt_lang,
    )


@pytest.fixture
def dialogue():
    return Dialogue(
        dialogue_id="d1",
        turns=(
            rec(0, "customer", "Hallo", "Hello"),
            rec(1, "agent", "Wie kann ich helfen?", "How can I help?"),
            rec(2, "customer", "Mein Paket fehlt", "My parcel is missing"),
        ),
    )


def tag_speaker(r):
    """The pair build_context makes of a lone turn with no context."""
    return build_context(Dialogue("d1", (r,)), 0, ContextConfig(n_prev=0))


class TestTagSpeaker:
    def test_customer(self):
        pair = tag_speaker(rec(0, "customer", "Hallo", "Hello"))
        assert pair == BitextPair("<customer> Hallo", "<customer> Hello")

    def test_agent(self):
        pair = tag_speaker(rec(0, "agent", "Wie bitte?", "Pardon?"))
        assert pair == BitextPair("<agent> Wie bitte?", "<agent> Pardon?")

    def test_roundtrip(self):
        r = rec(0, "agent", "Wie bitte?", "Pardon?")
        assert strip_tags(tag_speaker(r).source) == r.src_text


class TestBuildContext:
    def test_one_prev_same_language(self, dialogue):
        cfg = ContextConfig(n_prev=1)
        pair = build_context(dialogue, 1, cfg)
        assert pair.source == "<agent> Wie kann ich helfen? <context begins> Hallo"
        assert pair.target == "<agent> How can I help? <context begins> Hello"

    def test_turn_zero_no_indicator(self, dialogue):
        for mode in ("same_language", "mixed_language"):
            pair = build_context(dialogue, 0, ContextConfig(n_prev=2, mode=mode))
            assert pair == BitextPair("<customer> Hallo", "<customer> Hello")

    def test_tag_counts(self, dialogue):
        pair = build_context(dialogue, 2, ContextConfig(n_prev=2))
        for side in (pair.source, pair.target):
            assert side.count(CONTEXT_TAG) == 1
            assert side.count(SEP_TAG) == 1

    def test_context_most_recent_first(self, dialogue):
        pair = build_context(dialogue, 2, ContextConfig(n_prev=2))
        assert pair.source == (
            "<customer> Mein Paket fehlt <context begins> "
            "Wie kann ich helfen? <SEP> Hallo"
        )

    def test_mixed_language_uses_speaker_side(self, dialogue):
        # De->En direction: customer's own language is the source side,
        # agent's own language is the target side.
        pair = build_context(dialogue, 2, ContextConfig(n_prev=2, mode="mixed_language"))
        assert pair.source == (
            "<customer> Mein Paket fehlt <context begins> "
            "How can I help? <SEP> Hallo"
        )
        assert pair.target == (
            "<customer> My parcel is missing <context begins> "
            "Wie kann ich helfen? <SEP> Hello"
        )

    def test_no_speaker_tags(self, dialogue):
        pair = build_context(dialogue, 1, ContextConfig(n_prev=1, speaker_tags=False))
        assert pair.source == "Wie kann ich helfen? <context begins> Hallo"

    def test_unknown_turn_errors(self, dialogue):
        with pytest.raises(ValueError):
            build_context(dialogue, 3, ContextConfig())

    def test_n_prev_bounds(self):
        with pytest.raises(ValueError):
            ContextConfig(n_prev=4)

    @pytest.mark.parametrize("kwargs, message", [
        ({"n_prev": -1}, "n_prev must be in 0..3"),
        ({"mode": "x"}, "unknown context mode 'x'"),
    ])
    def test_config_refusals(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            ContextConfig(**kwargs)


class TestStripTags:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("<customer> Hallo <context begins> x <SEP> y", "Hallo"),
            ("<BT> guten tag", "guten tag"),
            ("plain text", "plain text"),
            ("<agent> Zwei Wörter", "Zwei Wörter"),
        ],
    )
    def test_examples(self, text, expected):
        assert strip_tags(text) == expected


# Leading tags with and without their space, other whitespace after a
# tag, words, context indicators with and without the space before them,
# and separators.
_chat_lines = st.lists(
    st.sampled_from(["<agent>", "<customer>", "<BT>", "<agent> ", "<customer> ", "<BT> ",
                     " ", "\t", "a", "b c", " <context begins>", "<context begins>", " <SEP> y"]),
    max_size=8,
).map("".join)


@given(_chat_lines)
@example("")
@example("<BT>")
@example("<agent>\tx <context begins> y")
@example("<customer>  <context begins>")
@example("a <context begins> <context begins>")
def test_split_tags_matches_reference(text):
    assert split_tags(text) == oracle.split_chat_line(text)


def test_prepare_rejects_reserved_tags():
    d = Dialogue("d1", (rec(0, "agent", "a <SEP> b", "x"),))
    with pytest.raises(TagError):
        list(prepare_chat_corpus([d], ContextConfig()))


@pytest.mark.parametrize("seed", range(30))
@pytest.mark.parametrize("mode", ["same_language", "mixed_language"])
def test_random_dialogue_properties(seed, mode):
    rng = random.Random(seed)
    d = make_dialogue(rng, f"d{seed}")
    for n_prev in range(4):
        cfg = ContextConfig(n_prev=n_prev, mode=mode)
        for r in d.turns:
            pair = build_context(d, r.turn_index, cfg)
            k = min(n_prev, r.turn_index)
            # payload round trip
            assert strip_tags(pair.source) == r.src_text
            assert strip_tags(pair.target) == r.tgt_text
            # tag counts
            for side in (pair.source, pair.target):
                assert side.count(CONTEXT_TAG) == (1 if k else 0)
                assert side.count(SEP_TAG) == max(k - 1, 0)
    # n_prev monotonicity: longer history only appends text
    for r in d.turns:
        for m in range(3):
            if r.turn_index < m + 1:
                continue
            shorter = build_context(d, r.turn_index, ContextConfig(n_prev=m, mode=mode))
            longer = build_context(d, r.turn_index, ContextConfig(n_prev=m + 1, mode=mode))
            assert longer.source.startswith(shorter.source)
            assert longer.source != shorter.source
            assert longer.target.startswith(shorter.target)


# Texts joined from pieces that hold partial tags. Joined pieces such as
# "<SEP" + ">" can form a whole tag, so a draw may hold one; a dialogue
# may also get one text built to hold a whole tag.
_clean_texts = st.lists(
    st.sampled_from(["a", "bc", "ü", " ", "<", ">", "<SEP", "<context begins",
                     "context begins>", "<agent", "SEP>"]),
    min_size=1, max_size=6,
).map("".join)
_tagged_texts = st.tuples(_clean_texts, st.sampled_from(oracle.RESERVED_TAGS), _clean_texts).map(
    "".join)


@st.composite
def _dialogues(draw, texts=_clean_texts, tagged=True):
    """1-3 dialogues of texts; where tagged, one text may hold a whole tag."""
    dialogues = []
    for n in range(draw(st.integers(1, 3))):
        turns = [
            ChatRecord(
                dialogue_id=f"d{n}", turn_index=i,
                speaker=draw(st.sampled_from(["agent", "customer"])),
                src_text=draw(texts), tgt_text=draw(texts),
                src_lang=draw(st.sampled_from(["en", "de"])),
                tgt_lang=draw(st.sampled_from(["en", "de"])),
            )
            for i in range(draw(st.integers(1, 6)))
        ]
        if tagged and draw(st.booleans()):
            i = draw(st.integers(0, len(turns) - 1))
            side = draw(st.sampled_from(["src_text", "tgt_text"]))
            turns[i] = replace(turns[i], **{side: draw(_tagged_texts)})
        dialogues.append(Dialogue(f"d{n}", tuple(turns)))
    return dialogues


_CONTEXT_CONFIGS = [
    ContextConfig(n_prev=n_prev, mode=mode, speaker_tags=tags)
    for n_prev in range(4)
    for mode in ("same_language", "mixed_language")
    for tags in (True, False)
]


@given(_dialogues(), st.integers(-1, 7))
def test_chatprep_matches_reference(dialogues, turn_index):
    d = dialogues[0]
    for cfg in _CONTEXT_CONFIGS:
        assert outcome(prepare_chat_corpus, dialogues, cfg) == \
            outcome(oracle.prepare_chat_corpus, dialogues, cfg)
        assert outcome(build_context, d, turn_index, cfg) == \
            outcome(oracle.build_context, d, turn_index, cfg)


# Texts parse_chat and prepare_chat_corpus accept, none blank and none
# holding a reserved tag: leading spaces, tabs and words starting with "<".
_accepted_texts = st.lists(
    st.sampled_from([" ", "  ", "\t", "a", "bc", "ü", "<", ">", "<x>", "<agent", "agent>",
                     "<SEP", "<BT", "<context", "begins>", "<customer"]),
    min_size=1, max_size=6,
).map("".join).filter(lambda t: t.strip() and not any(tag in t for tag in RESERVED_TAGS))


@given(_dialogues(_accepted_texts, tagged=False))
@example([Dialogue("d0", (rec(0, "agent", " a", "\tb"), rec(1, "customer", "<agent", " <SEP")))])
def test_every_chatprep_pair_denoises(dialogues):
    """The pipeline hands chatprep's pairs to denoise: every pair chatprep
    yields splits, so denoise refuses none of them."""
    for cfg in _CONTEXT_CONFIGS:
        pairs = list(prepare_chat_corpus(dialogues, cfg))
        noised = denoise_corpus(pairs, DenoiseConfig(pair_fraction=1.0, token_prob=0.5))
        assert [p.source for p in noised] == [p.source for p in pairs]
