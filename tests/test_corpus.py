import json

import pytest
from hypothesis import example, given, settings, strategies as st

from chatmt.corpus import (
    SPEAKERS,
    BitextPair,
    ChatRecord,
    CorpusError,
    Dialogue,
    ParseStats,
    _loads,
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


# ------------------------------------------------ reference parsers
# The straightforward versions the parse layer replaced: json.loads, one
# ChatRecord built by keyword, a global set of (dialogue, turn) keys and a
# sort per dialogue. The tests below hold the fast versions to them.

def _ref_loads(raw, line):
    try:
        obj = json.loads(raw)
        if "\\u" in raw and ("\\ud" in raw or "\\uD" in raw):
            json.dumps(obj, ensure_ascii=False).encode("utf-8")
    except (json.JSONDecodeError, RecursionError) as exc:
        raise CorpusError(f"invalid JSON: {exc}", line) from exc
    except UnicodeEncodeError as exc:
        raise CorpusError(f"text is not valid Unicode: {exc.reason}", line) from None
    return obj


def _ref_parse_chat(lines):
    by_dialogue = {}
    seen = set()
    for lineno, raw in enumerate(lines, start=1):
        raw = raw.strip()
        if not raw:
            continue
        obj = _ref_loads(raw, lineno)
        try:
            rec = ChatRecord(
                dialogue_id=obj["dialogue_id"], turn_index=obj["turn_index"],
                speaker=obj["speaker"], src_text=obj["src_text"], tgt_text=obj["tgt_text"],
                src_lang=obj["src_lang"], tgt_lang=obj["tgt_lang"],
            )
        except (KeyError, TypeError) as exc:
            raise CorpusError(f"bad chat record: {exc}", lineno) from exc
        for name in ("dialogue_id", "speaker", "src_text", "tgt_text", "src_lang", "tgt_lang"):
            if not isinstance(getattr(rec, name), str):
                raise CorpusError(f"{name} must be a string", lineno)
        for name in ("src_text", "tgt_text"):
            if not getattr(rec, name).strip():
                raise CorpusError(f"empty {name}", lineno)
        if rec.speaker not in SPEAKERS:
            raise CorpusError(f"unknown speaker {rec.speaker!r}", lineno)
        if type(rec.turn_index) is not int or rec.turn_index < 0:
            raise CorpusError(f"bad turn_index {rec.turn_index!r}", lineno)
        key = (rec.dialogue_id, rec.turn_index)
        if key in seen:
            raise CorpusError(
                f"duplicate turn {rec.turn_index} in dialogue {rec.dialogue_id!r}", lineno)
        seen.add(key)
        by_dialogue.setdefault(rec.dialogue_id, []).append(rec)
    dialogues = []
    for did, recs in by_dialogue.items():
        recs.sort(key=lambda r: r.turn_index)
        for expected, rec in enumerate(recs):
            if rec.turn_index != expected:
                raise CorpusError(
                    f"dialogue {did!r}: turn indices not contiguous "
                    f"(expected {expected}, found {rec.turn_index})")
        dialogues.append(Dialogue(dialogue_id=did, turns=tuple(recs)))
    return dialogues


def _outcome(parse, *args):
    """What parse returns, or its exception's type, message and line."""
    try:
        return parse(*args)
    except Exception as exc:
        return type(exc), str(exc), getattr(exc, "line", None)


_CHAT_KEYS = ("dialogue_id", "turn_index", "speaker", "src_text", "tgt_text",
              "src_lang", "tgt_lang")
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
_BLANK_LINES = st.sampled_from(["", "\n", "  \n", "\t\n"])


@st.composite
def _chat_corpora(draw):
    """Lines of a few dialogues in shuffled order, most often well formed,
    with up to three faults: a field set to an odd value or dropped, a
    missing line, a duplicated line, a non-object line and blank lines."""
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
            ["value", "drop", "gap", "duplicate", "non_object", "blank"]))
        if fault in ("value", "drop"):
            rec = dict(records[draw(st.integers(0, len(records) - 1))])
            # Faults in more fields than one put the checks' order to the test.
            for key in draw(st.lists(st.sampled_from(_CHAT_KEYS), min_size=1, max_size=3,
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
        else:
            lines.insert(i, draw(_BLANK_LINES))
    return lines


def _worded_as_now(outcome):
    """The reference's outcome with its two old messages for a record that
    is not an object or lacks a field, worded as the bitext reader words
    them."""
    if not isinstance(outcome, tuple):
        return outcome
    kind, message, line = outcome
    old = message.removeprefix(f"line {line}: bad chat record: ")
    if old == message:
        return outcome
    # A KeyError's message is the missing key's repr; any other is a TypeError.
    if old in map(repr, _CHAT_KEYS):
        return kind, f"line {line}: missing field {old}", line
    return kind, f"line {line}: expected a JSON object", line


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
def test_parse_chat_matches_reference(lines):
    assert _outcome(parse_chat, lines) == _worded_as_now(_outcome(_ref_parse_chat, lines))


def test_parse_chat_reference_messages_are_mapped():
    record = json.loads(_chat_line("d1", 0))
    del record["speaker"]
    for line, now in [("[1, 2]", "expected a JSON object"), ('"text"', "expected a JSON object"),
                      ("3", "expected a JSON object"), ("null", "expected a JSON object"),
                      (json.dumps(record), "missing field 'speaker'")]:
        expected = (CorpusError, f"line 1: {now}", 1)
        assert _outcome(parse_chat, [line]) == expected
        assert _worded_as_now(_outcome(_ref_parse_chat, [line])) == expected


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
    now, ref = _outcome(_loads, raw, line), _outcome(_ref_loads, raw, line)
    assert (now if isinstance(now, tuple) else repr(now)) == \
        (ref if isinstance(ref, tuple) else repr(ref))
