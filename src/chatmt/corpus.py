"""Data model and line-oriented IO for bitext and chat-dialogue corpora.

Text is UTF-8 everywhere; the parsers refuse a line holding bytes that
are not UTF-8, naming it, instead of silently mangling it. "Word"
throughout the toolkit means a whitespace separated substring.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from json.encoder import encode_basestring
from operator import itemgetter
from typing import Iterable, Iterator

GENUINE = "genuine"
SYNTHETIC = "synthetic"
ORIGINS = (GENUINE, SYNTHETIC)

AGENT = "agent"
CUSTOMER = "customer"
SPEAKERS = (AGENT, CUSTOMER)

BITEXT_FORMATS = ("tsv", "jsonl")
# What parse_bitext does with a malformed line: stop at it, or skip it.
FAIL_MODES = ("fail_fast", "skip_and_count")

_CHAT_STR_FIELDS = ("dialogue_id", "speaker", "src_text", "tgt_text", "src_lang", "tgt_lang")
# The C scanner behind json.loads, without its wrapper's per-call checks.
_raw_decode = json.JSONDecoder().raw_decode


class CorpusError(ValueError):
    """Malformed record or corpus-level invariant violation."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


# Config field annotation -> (accepted value types, name in messages).
# bool is an int subclass, so it is refused for int and float fields.
_FIELD_TYPES = {
    "int": ((int,), "an integer"),
    "float": ((int, float), "a number"),
    "bool": ((bool,), "a boolean"),
    "str": ((str,), "a string"),
}


def check_field_types(cfg) -> None:
    """Raise ValueError naming the first field of a config dataclass whose
    value does not match its annotation."""
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        types, name = _FIELD_TYPES[f.type]
        if not isinstance(value, types) or (isinstance(value, bool) and f.type != "bool"):
            raise ValueError(f"{f.name} must be {name}, got {value!r}")


def is_token_span(target: str, start: int, end: int) -> bool:
    """Whether tokens start:end of the target, split on single spaces,
    are a span of it: 0 <= start <= end <= its token count."""
    return 0 <= start <= end <= target.count(" ") + 1


# BitextPair and ChatRecord are slotted and mutable: the stages build one
# per line, and a frozen dataclass, whose __init__ sets each field through
# object.__setattr__, costs about 3x as much to build. No stage writes into
# a record it is given (tests/test_records.py).
@dataclass(slots=True)
class BitextPair:
    source: str
    target: str
    origin: str = GENUINE
    # (start, end) token indices of the target's mutable payload, split on
    # single spaces; carried only by JSONL as "target_payload_span".
    payload_span: tuple[int, int] | None = None
    # 1-based input line parse_bitext read the pair from, which an error
    # about it names; None for a pair built otherwise. Not compared.
    line: int | None = field(default=None, compare=False)


@dataclass(slots=True)
class ChatRecord:
    dialogue_id: str
    turn_index: int
    speaker: str
    src_text: str
    tgt_text: str
    src_lang: str
    tgt_lang: str
    # 1-based input line parse_chat read the turn from, which build_context
    # copies onto the turn's pair; None for a record built otherwise. It is
    # not a field of the chat line, and not compared.
    line: int | None = field(default=None, compare=False)


# A chat line's values in ChatRecord's field order; a missing key raises
# KeyError naming the first one missing.
_chat_fields = itemgetter(*(f.name for f in fields(ChatRecord) if f.name != "line"))


@dataclass(frozen=True)
class Dialogue:
    dialogue_id: str
    turns: tuple[ChatRecord, ...]


@dataclass
class ParseStats:
    """Filled in by parse_bitext: `skipped` counts the malformed lines
    dropped under skip_and_count."""

    skipped: int = 0


def _check_utf8(raw: str, line: int) -> None:
    """Refuse a line holding bytes that are not UTF-8. The CLI's reader
    decodes each such byte to a lone surrogate (surrogateescape), which no
    valid UTF-8 decodes to, so only non-ASCII lines need this check, and
    the line's own bytes give the strict decoder's reason. Call it on the
    line as read, end included: stripping could change the reason."""
    try:
        raw.encode("utf-8")
    except UnicodeEncodeError:
        try:
            raw.encode("utf-8", "surrogateescape").decode("utf-8")
        except UnicodeError as exc:
            raise CorpusError(f"invalid UTF-8: {exc.reason}", line) from None


# `not s or s.isspace()` is `not s.strip()` without the copy.
def _check_pair_fields(source: str, target: str, line: int) -> None:
    if not source or source.isspace():
        raise CorpusError("empty source side", line)
    if not target or target.isspace():
        raise CorpusError("empty target side", line)


def _loads(raw: str, line: int):
    """Decode one JSON line. A \\uD800-\\uDFFF escape is the only way a
    strictly decoded line can carry a lone surrogate, which UTF-8 cannot
    encode, so only lines holding one are checked.

    A line that is one JSON value and nothing else goes straight to the
    decoder; any other line (whitespace or data around the value, a BOM, an
    error) goes through json.loads, so the objects accepted and the errors
    raised are json.loads's own."""
    try:
        try:
            obj, end = _raw_decode(raw)
        except (ValueError, RecursionError):
            end = None
        if end != len(raw):
            obj = json.loads(raw)
        if "\\u" in raw and ("\\ud" in raw or "\\uD" in raw):
            json.dumps(obj, ensure_ascii=False).encode("utf-8")
    except UnicodeEncodeError as exc:
        raise CorpusError(f"text is not valid Unicode: {exc.reason}", line) from None
    except (ValueError, RecursionError) as exc:
        # A JSONDecodeError, or the plain ValueError of an integer longer
        # than int() converts (sys.get_int_max_str_digits()).
        raise CorpusError(f"invalid JSON: {exc}", line) from exc
    return obj


def _parse_tsv_line(raw: str, line: int) -> BitextPair:
    sides = raw.split("\t")
    if len(sides) != 2:
        raise CorpusError(f"expected exactly one tab, found {len(sides) - 1}", line)
    source, target = sides
    _check_pair_fields(source, target, line)
    return BitextPair(source, target, line=line)


def _parse_jsonl_line(raw: str, line: int) -> BitextPair:
    obj = _loads(raw, line)
    if not isinstance(obj, dict):
        raise CorpusError("expected a JSON object", line)
    try:
        source = obj["source"]
        target = obj["target"]
    except KeyError as exc:
        raise CorpusError(f"missing field {exc}", line) from exc
    if not isinstance(source, str) or not isinstance(target, str):
        raise CorpusError("source/target must be strings", line)
    origin = obj.get("origin", GENUINE)
    if origin not in ORIGINS:
        raise CorpusError(f"unknown origin {origin!r}", line)
    _check_pair_fields(source, target, line)
    span = obj.get("target_payload_span")
    # type(), not isinstance(): a JSON true would pass as the int 1.
    if span is not None and not (
        isinstance(span, list) and len(span) == 2 and all(type(i) is int for i in span)
        and is_token_span(target, *span)
    ):
        raise CorpusError(
            f"target_payload_span {json.dumps(span)} is not a [start, end] "
            "token span of the target", line)
    return BitextPair(source=source, target=target, origin=origin,
                      payload_span=None if span is None else tuple(span), line=line)


def parse_bitext(
    lines: Iterable[str],
    fmt: str = "tsv",
    fail_mode: str = FAIL_MODES[0],
    stats: ParseStats | None = None,
) -> Iterator[BitextPair]:
    """Yield pairs from TSV or JSONL lines, in input order, each with its
    1-based input line in `line`.

    A JSONL line that is empty or whitespace only is no record, as in
    parse_chat. fail_fast stops at the first malformed line, naming it;
    skip_and_count drops malformed lines, a line that is not UTF-8
    included, and counts them in `stats`.
    """
    if fmt not in BITEXT_FORMATS:
        raise ValueError(f"unknown bitext format {fmt!r}")
    if fail_mode not in FAIL_MODES:
        raise ValueError(f"unknown fail mode {fail_mode!r}")
    parse_line = _parse_tsv_line if fmt == "tsv" else _parse_jsonl_line
    for lineno, raw in enumerate(lines, start=1):
        try:
            if not raw.isascii():
                _check_utf8(raw, lineno)
            raw = raw.rstrip("\n").rstrip("\r")
            if fmt == "tsv" or raw and not raw.isspace():
                yield parse_line(raw, lineno)
        except CorpusError:
            if fail_mode == "fail_fast":
                raise
            if stats is not None:
                stats.skipped += 1


def write_bitext(pairs: Iterable[BitextPair], fmt: str = "tsv") -> Iterator[str]:
    """Serialize pairs to lines (newline included).

    TSV refuses text containing tabs, newlines or carriage returns (the
    reader splits lines on both of the latter) so parse(write(x)) == x
    always holds; the error names the refused pair's line. TSV carries
    neither the origin flag nor the payload span; use JSONL when the corpus
    mixes genuine and synthetic data or marks payload spans.
    """
    if fmt not in BITEXT_FORMATS:
        raise ValueError(f"unknown bitext format {fmt!r}")
    for pair in pairs:
        if fmt == "tsv":
            for text in (pair.source, pair.target):
                if "\t" in text or "\n" in text or "\r" in text:
                    raise CorpusError(
                        f"tab, newline or carriage return in text {text!r} "
                        "cannot be written as TSV", pair.line)
            yield f"{pair.source}\t{pair.target}\n"
        else:
            # The bytes of json.dumps(obj, ensure_ascii=False) + "\n" for obj =
            # {"source", "target", "origin"[, "target_payload_span"]}, with
            # the string encoder json.dumps itself uses but no encoder built
            # per line.
            head = (f'{{"source": {encode_basestring(pair.source)}, '
                    f'"target": {encode_basestring(pair.target)}, '
                    f'"origin": {encode_basestring(pair.origin)}')
            span = pair.payload_span
            if span is None:
                yield head + "}\n"
            else:
                yield f'{head}, "target_payload_span": [{span[0]}, {span[1]}]}}\n'


def parse_chat(lines: Iterable[str]) -> list[Dialogue]:
    """Parse chat JSONL into dialogues ordered by first appearance, each
    turn with its 1-based input line in `line`.

    Validates UTF-8, field types, non-blank texts, speaker values,
    (dialogue_id, turn_index) uniqueness, and that turn indices are
    contiguous from 0 within each dialogue.
    """
    by_dialogue: dict[str, dict[int, ChatRecord]] = {}
    for lineno, raw in enumerate(lines, start=1):
        if not raw.isascii():
            _check_utf8(raw, lineno)
        # As in parse_bitext's JSONL: only JSON whitespace may surround the value.
        raw = raw.rstrip("\n").rstrip("\r")
        if not raw or raw.isspace():
            continue
        obj = _loads(raw, lineno)
        if type(obj) is not dict:
            raise CorpusError("expected a JSON object", lineno)
        try:
            did, turn, speaker, src_text, tgt_text, src_lang, tgt_lang = _chat_fields(obj)
        except KeyError as exc:
            raise CorpusError(f"missing field {exc}", lineno) from None
        if not (type(did) is str and type(speaker) is str and type(src_text) is str
                and type(tgt_text) is str and type(src_lang) is str and type(tgt_lang) is str):
            name = next(name for name in _CHAT_STR_FIELDS if type(obj[name]) is not str)
            raise CorpusError(f"{name} must be a string", lineno)
        # A blank text would make a pair side that parse_bitext refuses.
        if not src_text or src_text.isspace():
            raise CorpusError("empty src_text", lineno)
        if not tgt_text or tgt_text.isspace():
            raise CorpusError("empty tgt_text", lineno)
        if speaker not in SPEAKERS:
            raise CorpusError(f"unknown speaker {speaker!r}", lineno)
        # type(), not isinstance(): a JSON true would pass as the int 1.
        if type(turn) is not int or turn < 0:
            raise CorpusError(f"bad turn_index {turn!r}", lineno)
        turns = by_dialogue.setdefault(did, {})
        if turn in turns:
            raise CorpusError(f"duplicate turn {turn} in dialogue {did!r}", lineno)
        turns[turn] = ChatRecord(did, turn, speaker, src_text, tgt_text, src_lang, tgt_lang,
                                 lineno)

    dialogues = []
    for did, turns in by_dialogue.items():
        # Distinct indices >= 0 are 0..n-1 exactly when the largest is n-1.
        if max(turns) != len(turns) - 1:
            for expected, index in enumerate(sorted(turns)):
                if index != expected:
                    raise CorpusError(
                        f"dialogue {did!r}: turn indices not contiguous "
                        f"(expected {expected}, found {index})", turns[index].line)
        dialogues.append(Dialogue(did, tuple(map(turns.__getitem__, range(len(turns))))))
    return dialogues
