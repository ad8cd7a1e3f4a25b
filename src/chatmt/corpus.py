"""Data model and line-oriented IO for bitext and chat-dialogue corpora.

Text is UTF-8 everywhere; callers open files with encoding="utf-8" and
strict error handling so invalid bytes fail loudly instead of being
silently mangled. "Word" throughout the toolkit means a whitespace
separated substring.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, fields
from typing import Iterable, Iterator

GENUINE = "genuine"
SYNTHETIC = "synthetic"
ORIGINS = (GENUINE, SYNTHETIC)

AGENT = "agent"
CUSTOMER = "customer"
SPEAKERS = (AGENT, CUSTOMER)

BITEXT_FORMATS = ("tsv", "jsonl")


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


@dataclass(frozen=True)
class BitextPair:
    source: str
    target: str
    origin: str = GENUINE
    # (start, end) token indices of the target's mutable payload, split on
    # single spaces; carried only by JSONL as "target_payload_span".
    payload_span: tuple[int, int] | None = None


@dataclass(frozen=True)
class ChatRecord:
    dialogue_id: str
    turn_index: int
    speaker: str
    src_text: str
    tgt_text: str
    src_lang: str
    tgt_lang: str


@dataclass(frozen=True)
class Dialogue:
    dialogue_id: str
    turns: tuple[ChatRecord, ...]


@dataclass
class ParseStats:
    """Mutable counter filled in by parse_bitext when on_error="skip"."""

    skipped: int = 0


def _check_pair_fields(source: str, target: str, line: int) -> None:
    if not source.strip():
        raise CorpusError("empty source side", line)
    if not target.strip():
        raise CorpusError("empty target side", line)


def _parse_tsv_line(raw: str, line: int) -> BitextPair:
    if raw.count("\t") != 1:
        raise CorpusError(
            f"expected exactly one tab, found {raw.count(chr(9))}", line
        )
    source, target = raw.split("\t")
    _check_pair_fields(source, target, line)
    return BitextPair(source=source, target=target)


def _parse_jsonl_line(raw: str, line: int) -> BitextPair:
    try:
        obj = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise CorpusError(f"invalid JSON: {exc}", line) from exc
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
        and 0 <= span[0] <= span[1] <= target.count(" ") + 1
    ):
        raise CorpusError(
            f"target_payload_span {json.dumps(span)} is not a [start, end] "
            "token span of the target", line)
    return BitextPair(source=source, target=target, origin=origin,
                      payload_span=None if span is None else tuple(span))


def parse_bitext(
    lines: Iterable[str],
    fmt: str = "tsv",
    on_error: str = "raise",
    stats: ParseStats | None = None,
) -> Iterator[BitextPair]:
    """Yield pairs from TSV or JSONL lines, in input order.

    on_error="raise" fails fast with the 1-based line number;
    on_error="skip" drops malformed lines and counts them in `stats`.
    """
    if fmt not in BITEXT_FORMATS:
        raise ValueError(f"unknown bitext format {fmt!r}")
    if on_error not in ("raise", "skip"):
        raise ValueError(f"unknown error mode {on_error!r}")
    parse_line = _parse_tsv_line if fmt == "tsv" else _parse_jsonl_line
    for lineno, raw in enumerate(lines, start=1):
        raw = raw.rstrip("\n").rstrip("\r")
        if not raw and fmt == "jsonl":
            continue
        try:
            yield parse_line(raw, lineno)
        except CorpusError:
            if on_error == "raise":
                raise
            if stats is not None:
                stats.skipped += 1


def write_bitext(pairs: Iterable[BitextPair], fmt: str = "tsv") -> Iterator[str]:
    """Serialize pairs to lines (newline included).

    TSV refuses text containing tabs or newlines so parse(write(x)) == x
    always holds. TSV carries neither the origin flag nor the payload
    span; use JSONL when the corpus mixes genuine and synthetic data or
    marks payload spans.
    """
    if fmt not in BITEXT_FORMATS:
        raise ValueError(f"unknown bitext format {fmt!r}")
    for pair in pairs:
        if fmt == "tsv":
            for text in (pair.source, pair.target):
                if "\t" in text or "\n" in text:
                    raise CorpusError(
                        f"tab or newline in text {text!r} cannot be written as TSV"
                    )
            yield f"{pair.source}\t{pair.target}\n"
        else:
            obj = {"source": pair.source, "target": pair.target, "origin": pair.origin}
            if pair.payload_span is not None:
                obj["target_payload_span"] = pair.payload_span
            yield json.dumps(obj, ensure_ascii=False) + "\n"


def parse_chat(lines: Iterable[str]) -> list[Dialogue]:
    """Parse chat JSONL into dialogues ordered by first appearance.

    Validates speaker values, (dialogue_id, turn_index) uniqueness, and
    that turn indices are contiguous from 0 within each dialogue.
    """
    by_dialogue: dict[str, list[ChatRecord]] = {}
    seen: set[tuple[str, int]] = set()
    for lineno, raw in enumerate(lines, start=1):
        raw = raw.strip()
        if not raw:
            continue
        try:
            obj = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise CorpusError(f"invalid JSON: {exc}", lineno) from exc
        try:
            rec = ChatRecord(
                dialogue_id=obj["dialogue_id"],
                turn_index=obj["turn_index"],
                speaker=obj["speaker"],
                src_text=obj["src_text"],
                tgt_text=obj["tgt_text"],
                src_lang=obj["src_lang"],
                tgt_lang=obj["tgt_lang"],
            )
        except (KeyError, TypeError) as exc:
            raise CorpusError(f"bad chat record: {exc}", lineno) from exc
        if rec.speaker not in SPEAKERS:
            raise CorpusError(f"unknown speaker {rec.speaker!r}", lineno)
        if not isinstance(rec.turn_index, int) or rec.turn_index < 0:
            raise CorpusError(f"bad turn_index {rec.turn_index!r}", lineno)
        key = (rec.dialogue_id, rec.turn_index)
        if key in seen:
            raise CorpusError(
                f"duplicate turn {rec.turn_index} in dialogue {rec.dialogue_id!r}",
                lineno,
            )
        seen.add(key)
        by_dialogue.setdefault(rec.dialogue_id, []).append(rec)

    dialogues = []
    for did, recs in by_dialogue.items():
        recs.sort(key=lambda r: r.turn_index)
        for expected, rec in enumerate(recs):
            if rec.turn_index != expected:
                raise CorpusError(
                    f"dialogue {did!r}: turn indices not contiguous "
                    f"(expected {expected}, found {rec.turn_index})"
                )
        dialogues.append(Dialogue(dialogue_id=did, turns=tuple(recs)))
    return dialogues

