import json

import pytest
from hypothesis import given, strategies as st

from chatmt.corpus import (
    BitextPair,
    CorpusError,
    ParseStats,
    parse_bitext,
    parse_chat,
    write_bitext,
)

text_strategy = st.text(
    alphabet=st.characters(blacklist_characters="\t\n\r", blacklist_categories=("Cs",)),
    min_size=1,
).filter(lambda s: s.strip())


def test_parse_single_tsv_row():
    pairs = list(parse_bitext(["Hello\tHallo\n"], "tsv"))
    assert pairs == [BitextPair("Hello", "Hallo")]


def test_parse_tsv_too_many_tabs_fail_fast():
    with pytest.raises(CorpusError, match="line 1"):
        list(parse_bitext(["a\tb\tc\n"], "tsv"))


def test_parse_tsv_skip_mode_counts():
    lines = ["a\tb\n", "broken line\n", "c\td\n"]
    stats = ParseStats()
    pairs = list(parse_bitext(lines, "tsv", on_error="skip", stats=stats))
    assert [p.source for p in pairs] == ["a", "c"]
    assert stats.skipped == 1


def test_parse_rejects_empty_sides():
    with pytest.raises(CorpusError):
        list(parse_bitext(["  \tb\n"], "tsv"))
    with pytest.raises(CorpusError):
        list(parse_bitext(['{"source": "a", "target": " "}\n'], "jsonl"))


def test_jsonl_origin_roundtrip():
    pairs = [BitextPair("guten tag", "good day", origin="synthetic"),
             BitextPair("hallo", "<agent> hello there", payload_span=(1, 3))]
    lines = list(write_bitext(pairs, "jsonl"))
    assert lines[1].endswith('"origin": "genuine", "target_payload_span": [1, 3]}\n')
    assert list(parse_bitext(lines, "jsonl")) == pairs


def test_jsonl_default_origin_and_bad_origin():
    (pair,) = parse_bitext(['{"source": "a", "target": "b"}'], "jsonl")
    assert pair.origin == "genuine"
    with pytest.raises(CorpusError):
        list(parse_bitext(['{"source": "a", "target": "b", "origin": "x"}'], "jsonl"))


def test_write_tsv_simple_and_tab_rejection():
    assert list(write_bitext([BitextPair("a", "b")], "tsv")) == ["a\tb\n"]
    # The reader splits lines on \r as well as \n.
    for char in "\t\n\r":
        with pytest.raises(CorpusError):
            list(write_bitext([BitextPair(f"a{char}x", "b")], "tsv"))
        with pytest.raises(CorpusError):
            list(write_bitext([BitextPair("a", f"b{char}")], "tsv"))


@given(st.lists(st.tuples(text_strategy, text_strategy), min_size=1, max_size=20))
def test_tsv_roundtrip_identity(raw):
    pairs = [BitextPair(s, t) for s, t in raw]
    assert list(parse_bitext(write_bitext(pairs, "tsv"), "tsv")) == pairs


@given(
    st.lists(
        st.tuples(text_strategy, text_strategy, st.sampled_from(["genuine", "synthetic"])),
        min_size=1,
        max_size=20,
    )
)
def test_jsonl_roundtrip_identity(raw):
    pairs = [BitextPair(s, t, o) for s, t, o in raw]
    assert list(parse_bitext(write_bitext(pairs, "jsonl"), "jsonl")) == pairs


# Characters JSON must escape (quotes, backslashes, controls) or that
# ensure_ascii=False writes raw (U+2028/U+2029, non-BMP), and lone surrogates.
_JSON_SPECIAL = '"\\/\x00\x08\x0c\x1f\x7f\x80\u2028\u2029\u00e4\ufeff\U0001F600\U0010FFFF'
_json_chars = st.characters(blacklist_categories=("Cs",)) | st.sampled_from(_JSON_SPECIAL)
_surrogates = st.sampled_from(["\ud800", "\udbff", "\udc00", "\udfff"])
_origins = st.sampled_from(["genuine", "synthetic"])


def _dumps_line(pair):
    """A JSONL bitext line as json.dumps writes it."""
    obj = {"source": pair.source, "target": pair.target, "origin": pair.origin}
    if pair.payload_span is not None:
        obj["target_payload_span"] = pair.payload_span
    return json.dumps(obj, ensure_ascii=False) + "\n"


@given(st.lists(st.builds(
    BitextPair, st.text(_json_chars | _surrogates), st.text(_json_chars | _surrogates), _origins,
    st.none() | st.tuples(st.integers(0, 2**80), st.integers(0, 2**80)),
), max_size=10))
def test_jsonl_lines_equal_json_dumps(pairs):
    assert list(write_bitext(pairs, "jsonl")) == [_dumps_line(pair) for pair in pairs]


@st.composite
def _readable_pairs(draw):
    """Pairs parse_bitext can yield: non-blank sides, spans in range."""
    side = st.text(_json_chars).filter(str.strip)
    target = draw(side)
    n = target.count(" ") + 1
    span = None
    if draw(st.booleans()):
        start = draw(st.integers(0, n))
        span = (start, draw(st.integers(start, n)))
    return BitextPair(draw(side), target, draw(_origins), span)


@given(st.lists(_readable_pairs(), min_size=1, max_size=10))
def test_jsonl_written_lines_parse_back(pairs):
    assert list(parse_bitext(write_bitext(pairs, "jsonl"), "jsonl")) == pairs


def _chat_line(did, idx, speaker="agent"):
    return (
        f'{{"dialogue_id": "{did}", "turn_index": {idx}, "speaker": "{speaker}", '
        f'"src_text": "s{idx}", "tgt_text": "t{idx}", "src_lang": "de", "tgt_lang": "en"}}'
    )


def test_parse_chat_groups_and_sorts():
    lines = [_chat_line("d1", 1), _chat_line("d1", 0), _chat_line("d2", 0)]
    dialogues = parse_chat(lines)
    assert [d.dialogue_id for d in dialogues] == ["d1", "d2"]
    assert [r.turn_index for r in dialogues[0].turns] == [0, 1]


def test_parse_chat_contiguity_error():
    with pytest.raises(CorpusError, match="d1"):
        parse_chat([_chat_line("d1", 0), _chat_line("d1", 2)])


def test_parse_chat_duplicate_turn_error():
    with pytest.raises(CorpusError, match="duplicate"):
        parse_chat([_chat_line("d1", 0), _chat_line("d1", 0)])


def test_parse_chat_unknown_speaker_error():
    with pytest.raises(CorpusError, match="speaker"):
        parse_chat([_chat_line("d1", 0, speaker="robot")])
