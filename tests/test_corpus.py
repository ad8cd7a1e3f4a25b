import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import oracle
from chatmt.cli import _read_lines
from chatmt.corpus import (
    SPEAKERS,
    BitextPair,
    CorpusError,
    ParseStats,
    _loads,
    parse_bitext,
    parse_chat,
    write_bitext,
)
from oracle import outcome

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
    pairs = list(parse_bitext(lines, "tsv", fail_mode="skip_and_count", stats=stats))
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


@given(st.lists(st.builds(
    BitextPair, st.text(_json_chars | _surrogates), st.text(_json_chars | _surrogates), _origins,
    st.none() | st.tuples(st.integers(0, 2**80), st.integers(0, 2**80)),
), max_size=10))
def test_jsonl_lines_equal_json_dumps(pairs):
    assert list(write_bitext(pairs, "jsonl")) == oracle.write_bitext(pairs, "jsonl")


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


_tsv_side = st.text(st.characters(blacklist_characters="\t\r\n", blacklist_categories=("Cs",)),
                    min_size=1, max_size=6).filter(str.strip)
_tsv_row = st.tuples(_tsv_side, _tsv_side).map("\t".join)
# The text reader decodes 8 KiB at a time; this first row puts the CRLF
# that ends it across that boundary.
_STRADDLE = "x" * 8189 + "\ty\r\n"


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(_tsv_row, st.sampled_from(["\n", "\r", "\r\n"])), max_size=8),
       st.just("") | _tsv_row, st.booleans(),
       st.none() | st.tuples(st.integers(0, 2**16),
                             st.sampled_from([b"\xff", b"\x80", b"\xe4\xb8", b"\xed\xa0\x80"])))
def test_parse_reads_lines_and_names_or_skips_the_first_invalid_one(rows, last, straddle,
                                                                    invalid):
    # `last` is the text after the final line end: no final newline
    # unless it is empty. `invalid` inserts bytes that are not UTF-8.
    data = ((_STRADDLE if straddle else "") + "".join(row + end for row, end in rows)
            + last).encode("utf-8")
    if invalid is not None:
        at, insert = invalid
        at %= len(data) + 1
        data = data[:at] + insert + data[at:]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "in.tsv"
        path.write_bytes(data)
        for fail_mode in ("skip_and_count", "fail_fast"):
            got = outcome(lambda: [(p, p.line) for p in
                                   parse_bitext(_read_lines(path), "tsv", fail_mode)])
            assert got == outcome(lambda: [(p, p.line) for p in oracle.parse_bitext(
                oracle.read_lines(data), "tsv", fail_mode)])
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # `got` is the fail-fast outcome. Lines end as the text reader ends
        # them: LF, CR, or CRLF once.
        ends = (data.count(b"\n", 0, exc.start) + data.count(b"\r", 0, exc.start)
                - data.count(b"\r\n", 0, exc.start))
        assert got[1] == f"line {ends + 1}: invalid UTF-8: {exc.reason}"


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


def test_parse_chat_contiguity_error_names_the_first_turn_out_of_place():
    # d1's turns 0, 3, 2: sorted, turn 2 is the first out of place, on line 4.
    lines = [_chat_line("d1", 0), _chat_line("d2", 0), _chat_line("d1", 3), _chat_line("d1", 2)]
    with pytest.raises(CorpusError) as info:
        parse_chat(lines)
    assert str(info.value) == \
        "line 4: dialogue 'd1': turn indices not contiguous (expected 1, found 2)"
    assert info.value.line == 4


def test_parse_chat_duplicate_turn_error():
    with pytest.raises(CorpusError, match="duplicate"):
        parse_chat([_chat_line("d1", 0), _chat_line("d1", 0)])


def test_parse_chat_unknown_speaker_error():
    with pytest.raises(CorpusError, match="speaker"):
        parse_chat([_chat_line("d1", 0, speaker="robot")])


# Per field: wrong types, blank texts ("\x1c" is whitespace to str.strip),
# unknown speakers, turn indices that are bools, floats, negative or
# strings, and turn indices or dialogue ids that make a gap or a duplicate.
_TEXT_ODDITIES = ["", " ", "\x1c", " \t", 5, None, "x"]
_ODD_VALUES = {
    "dialogue_id": st.sampled_from([1, None, "d0", "d1", "d9"]),
    "turn_index": st.sampled_from([True, False, 1.0, -1, "1", None, 0, 1, 2, 5, 9]),
    "speaker": st.sampled_from(["robot", "", "Agent", 3, None]),
    "src_text": st.sampled_from(_TEXT_ODDITIES),
    "tgt_text": st.sampled_from(_TEXT_ODDITIES),
    "src_lang": st.sampled_from([None, 1, ["en"], "fr"]),
    "tgt_lang": st.sampled_from([None, 1, ["en"], "fr"]),
}
_NON_OBJECTS = st.sampled_from(["[1, 2]", '"text"', "3", "null", "true", "{", "[]"])
# Unicode whitespace only is still no record, though JSON would refuse it
# around a value.
_BLANK_LINES = st.sampled_from(["", "\n", "  \n", "\t\n", "\u00a0\n", "\u2028\n"])
_UNICODE_SPACES = st.sampled_from(["\u00a0", "\u2028", "\u3000", "\x1c"])


@st.composite
def _chat_corpora(draw):
    """Lines of a few dialogues in shuffled order, most often well formed,
    with up to three faults: a field set to an odd value or dropped, a
    missing line, a duplicated line, a non-object line, blank lines and a
    line wrapped in Unicode whitespace that is not JSON's."""
    records = []
    for d in range(draw(st.integers(1, 3))):
        for turn in range(draw(st.integers(1, 4))):
            records.append({
                "dialogue_id": f"d{d}", "turn_index": turn,
                "speaker": draw(st.sampled_from(SPEAKERS)),
                "src_text": draw(st.sampled_from(["hallo", "wie geht's", "ä b"])),
                "tgt_text": draw(st.sampled_from(["hello", "how are you", "a b"])),
                "src_lang": "de", "tgt_lang": "en",
            })
    records = draw(st.permutations(records))
    lines = [json.dumps(rec) + "\n" for rec in records]
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(lines) - 1))
        fault = draw(st.sampled_from(
            ["value", "drop", "gap", "duplicate", "non_object", "blank", "wrapped"]))
        if fault in ("value", "drop"):
            rec = dict(records[draw(st.integers(0, len(records) - 1))])
            # Faults in more fields than one put the checks' order to the test.
            for key in draw(st.lists(st.sampled_from(oracle.CHAT_FIELDS), min_size=1, max_size=3,
                                     unique=True)):
                if fault == "value":
                    rec[key] = draw(_ODD_VALUES[key])
                else:
                    del rec[key]
            lines[i] = json.dumps(rec) + "\n"
        elif fault == "gap":
            if len(lines) > 1:
                del lines[i]
        elif fault == "duplicate":
            lines.insert(draw(st.integers(0, len(lines))), lines[i])
        elif fault == "non_object":
            lines.insert(i, draw(_NON_OBJECTS) + "\n")
        elif fault == "wrapped":
            head, tail = draw(_UNICODE_SPACES | st.just("")), draw(_UNICODE_SPACES | st.just(""))
            lines[i] = head + lines[i].rstrip("\n") + tail + "\n"
        else:
            lines.insert(i, draw(_BLANK_LINES))
    return lines


def _odd_chat_line(**fields):
    return json.dumps({**json.loads(_chat_line("d0", 0)), **fields})


# One fault in a few hundred corpora is a blank text or an odd language
# with no earlier fault to mask it; the default 100 examples miss some.
@settings(max_examples=600)
@given(_chat_corpora())
@example([_odd_chat_line(src_text="\x1c")])
@example([_odd_chat_line(tgt_text=" ")])
@example([_odd_chat_line(speaker="robot", tgt_text="")])
@example([_odd_chat_line(turn_index=True, src_lang=1)])
@example([_chat_line("d0", 1), _chat_line("d1", 0), _chat_line("d0", 0), _chat_line("d0", 1)])
@example(["\u00a0\n", "\u2028\n", _chat_line("d0", 0)])
@example([_chat_line("d0", 0), "\u00a0" + _chat_line("d0", 1)])
def test_parse_chat_matches_reference(lines):
    assert outcome(parse_chat, lines) == \
        outcome(oracle.parse_chat, [line.encode() for line in lines])


_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(_json_chars | _surrogates),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(_json_chars, max_size=3), children, max_size=3),
    max_leaves=8,
)
_JSON_ODD_LINES = st.sampled_from([
    "NaN", "-Infinity", '{"a": Infinity}', '"\\ud800"', '["x \\uDFFF"]',
    '"\\ud83d\\ude00"', "[" * 100_000 + "]" * 100_000, "", "{", "[1,]", '{"a" 1}',
    "1 2", "tru", "\ufeff{}", "{} {}",
])


@st.composite
def _json_lines(draw):
    raw = json.dumps(draw(_json_values), ensure_ascii=draw(st.booleans()))
    around = st.sampled_from(["", " ", "\t", " \t "])
    head = draw(around | st.just("\ufeff"))
    tail = draw(around | st.sampled_from([" 1", "x", "}", "]", ","]))
    return head + raw + tail


@given(_json_lines() | _JSON_ODD_LINES, st.integers(1, 10**6))
def test_loads_matches_json_loads(raw, line):
    # Compared by repr: NaN != NaN, and -0.0 == 0.0.
    now, ref = outcome(_loads, raw, line), outcome(oracle.loads, raw, line)
    assert (repr(now[1]) if now[0] == "ok" else now) == (repr(ref[1]) if ref[0] == "ok" else ref)
