"""The one reference the differential tests hold chatmt to: the plainest
form of each chatmt function a test compares, with none of its fast
paths.

- reading: the bytes split into lines as the text reader splits them,
  each line decoded strictly on its own;
- JSON: `json.loads` per read line and `json.dumps` per written line;
- filter: `str.translate` normalization and `str.split` word counts;
- chatprep: chat parsing and context building one turn at a time;
- denoise: one chat-line split, and one numpy `Generator` per chosen
  record;
- ensemble: exact `Fraction` arithmetic, one term at a time, and one
  float conversion per weighted score;
- attention: out-of-place kernels over the whole grid.

Errors are worded as chatmt words them, so `outcome` compares the
exception's type, message and line too. A change that must keep chatmt's
results edits the function here its stage is held to, and never adds a
second reference in a test module (tests/test_oracle.py checks that).
"""
from __future__ import annotations

import json
import math
import re
from dataclasses import replace
from fractions import Fraction
from types import GeneratorType

import numpy as np

from chatmt.corpus import BitextPair, ChatRecord, CorpusError, Dialogue
from chatmt.chatprep import TagError
from chatmt.denoise import DenoiseFormatError, TargetSpans
from chatmt.ensemble import EnsembleSelection, ScoreSet
from chatmt.filtering import _CHAR_MAP, DROP_REASONS, DROP_RULES


def outcome(fn, *args):
    """("ok", what fn(*args) returns, a generator drained into a list), or
    the exception that ended the call as (type, message, line, record,
    what a generator yielded before it)."""
    items = []
    try:
        result = fn(*args)
        if not isinstance(result, GeneratorType):
            return "ok", result
        for item in result:
            items.append(item)
        return "ok", items
    except Exception as exc:  # compared, not handled
        return (type(exc), str(exc), getattr(exc, "line", None),
                getattr(exc, "record", None), items)


# ------------------------------------------------------------- reading

def read_lines(data: bytes) -> list[bytes]:
    """A file's lines as the text reader splits them: at LF, CRLF or a
    lone CR, each line keeping its end."""
    return data.splitlines(keepends=True)


def decode(raw: bytes, line: int) -> str:
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise CorpusError(f"invalid UTF-8: {exc.reason}", line) from None


def loads(raw: str, line: int):
    try:
        obj = json.loads(raw)
        if "\\u" in raw and ("\\ud" in raw or "\\uD" in raw):
            json.dumps(obj, ensure_ascii=False).encode("utf-8")
    except UnicodeEncodeError as exc:
        raise CorpusError(f"text is not valid Unicode: {exc.reason}", line) from None
    except (ValueError, RecursionError) as exc:
        raise CorpusError(f"invalid JSON: {exc}", line) from exc
    return obj


# -------------------------------------------------------------- bitext

def _check_sides(source: str, target: str, line: int) -> None:
    if not source.strip():
        raise CorpusError("empty source side", line)
    if not target.strip():
        raise CorpusError("empty target side", line)


def _tsv_pair(text: str, line: int) -> BitextPair:
    sides = text.split("\t")
    if len(sides) != 2:
        raise CorpusError(f"expected exactly one tab, found {len(sides) - 1}", line)
    _check_sides(*sides, line)
    return BitextPair(*sides, line=line)


def _jsonl_pair(text: str, line: int) -> BitextPair:
    obj = loads(text, line)
    if not isinstance(obj, dict):
        raise CorpusError("expected a JSON object", line)
    for key in ("source", "target"):
        if key not in obj:
            raise CorpusError(f"missing field {key!r}", line)
    source, target = obj["source"], obj["target"]
    if not isinstance(source, str) or not isinstance(target, str):
        raise CorpusError("source/target must be strings", line)
    origin = obj.get("origin", "genuine")
    if origin not in ("genuine", "synthetic"):
        raise CorpusError(f"unknown origin {origin!r}", line)
    _check_sides(source, target, line)
    span = obj.get("target_payload_span")
    if span is not None and not (isinstance(span, list) and len(span) == 2
                                 and all(type(i) is int for i in span)
                                 and 0 <= span[0] <= span[1] <= len(target.split(" "))):
        raise CorpusError(f"target_payload_span {json.dumps(span)} is not a "
                          "[start, end] token span of the target", line)
    return BitextPair(source, target, origin, None if span is None else tuple(span), line)


def parse_bitext(lines: list[bytes], fmt: str, fail_mode: str = "fail_fast") -> list[BitextPair]:
    """The pairs of TSV or JSONL lines (a JSONL line that is empty or
    whitespace is no record);
    fail_mode="skip_and_count" drops each malformed line."""
    pairs = []
    for lineno, raw in enumerate(lines, start=1):
        try:
            text = decode(raw, lineno).rstrip("\r\n")
            if fmt == "tsv":
                pairs.append(_tsv_pair(text, lineno))
            elif text.strip():
                pairs.append(_jsonl_pair(text, lineno))
        except CorpusError:
            if fail_mode == "fail_fast":
                raise
    return pairs


def write_bitext(pairs, fmt: str) -> list[str]:
    lines = []
    for pair in pairs:
        if fmt == "tsv":
            for text in (pair.source, pair.target):
                if "\t" in text or "\n" in text or "\r" in text:
                    raise CorpusError(f"tab, newline or carriage return in text {text!r} "
                                      "cannot be written as TSV", pair.line)
            lines.append(f"{pair.source}\t{pair.target}\n")
        else:
            obj = {"source": pair.source, "target": pair.target, "origin": pair.origin}
            if pair.payload_span is not None:
                obj["target_payload_span"] = list(pair.payload_span)
            lines.append(json.dumps(obj, ensure_ascii=False) + "\n")
    return lines


# ---------------------------------------------------------------- chat

CHAT_FIELDS = ("dialogue_id", "turn_index", "speaker", "src_text", "tgt_text",
               "src_lang", "tgt_lang")


def parse_chat(lines: list[bytes]) -> list[Dialogue]:
    """Dialogues in order of first appearance, each record checked field
    by field and each dialogue's turns sorted."""
    by_dialogue, seen = {}, set()
    for lineno, raw in enumerate(lines, start=1):
        text = decode(raw, lineno).strip()
        if not text:
            continue
        obj = loads(text, lineno)
        if not isinstance(obj, dict):
            raise CorpusError("expected a JSON object", lineno)
        for key in CHAT_FIELDS:
            if key not in obj:
                raise CorpusError(f"missing field {key!r}", lineno)
        rec = ChatRecord(**{key: obj[key] for key in CHAT_FIELDS}, line=lineno)
        for name in CHAT_FIELDS:
            if name != "turn_index" and not isinstance(getattr(rec, name), str):
                raise CorpusError(f"{name} must be a string", lineno)
        for name in ("src_text", "tgt_text"):
            if not getattr(rec, name).strip():
                raise CorpusError(f"empty {name}", lineno)
        if rec.speaker not in ("agent", "customer"):
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
                    f"(expected {expected}, found {rec.turn_index})", rec.line)
        dialogues.append(Dialogue(dialogue_id=did, turns=tuple(recs)))
    return dialogues


RESERVED_TAGS = ("<BT>", "<agent>", "<customer>", "<context begins>", "<SEP>")
LEADING_TAGS = ("<agent>", "<customer>", "<BT>")


def build_context(d: Dialogue, turn_index: int, cfg) -> BitextPair:
    if not 0 <= turn_index < len(d.turns):
        raise ValueError(
            f"turn {turn_index} not in dialogue {d.dialogue_id!r} "
            f"({len(d.turns)} turns)"
        )
    cur = d.turns[turn_index]
    source, target = cur.src_text, cur.tgt_text
    if cfg.speaker_tags:
        tag = "<agent>" if cur.speaker == "agent" else "<customer>"
        source, target = f"{tag} {source}", f"{tag} {target}"
    k = min(cfg.n_prev, turn_index)
    if k == 0:
        return BitextPair(source, target, line=cur.line)
    src_ctx, tgt_ctx = [], []
    for prev in reversed(d.turns[turn_index - k:turn_index]):
        if cfg.mode == "same_language":
            src_ctx.append(prev.src_text)
            tgt_ctx.append(prev.tgt_text)
        else:
            # The agent's own language is English; the customer's is the other.
            src_is_own = (prev.src_lang == "en" if prev.speaker == "agent"
                          else prev.src_lang != "en")
            own, translation = ((prev.src_text, prev.tgt_text) if src_is_own
                                else (prev.tgt_text, prev.src_text))
            src_ctx.append(own)
            tgt_ctx.append(translation)
    return BitextPair(f"{source} <context begins> {' <SEP> '.join(src_ctx)}",
                      f"{target} <context begins> {' <SEP> '.join(tgt_ctx)}", line=cur.line)


def prepare_chat_corpus(dialogues, cfg):
    """Each dialogue's reserved-tag checks, then its pairs."""
    for d in dialogues:
        for r in d.turns:
            for name in ("src_text", "tgt_text"):
                text = getattr(r, name)
                if any(tag in text for tag in RESERVED_TAGS):
                    raise TagError(f"{d.dialogue_id}/{r.turn_index} {name} contains a "
                                   f"reserved tag: {text!r}", r.line)
        for r in d.turns:
            yield build_context(d, r.turn_index, cfg)


# ----------------------------------------------------------- filtering

def normalize(text: str) -> str:
    return re.sub(" {2,}", " ", text.translate(_CHAR_MAP)).strip()


def filter_corpus(pairs, cfg) -> tuple[list[BitextPair], dict]:
    """The kept pairs and FilterReport.as_dict(): both sides normalized
    and split into words, the rules applied in order (length, dedup,
    ratio), each drop counted by its rule and reason."""
    kept, seen, count = [], set(), 0
    by_rule, by_reason = dict.fromkeys(DROP_RULES, 0), dict.fromkeys(DROP_REASONS, 0)
    for pair in pairs:
        count += 1
        source, target = normalize(pair.source), normalize(pair.target)
        src_words, tgt_words = source.split(), target.split()
        reason = None
        for words in (src_words, tgt_words):
            if len(words) > cfg.max_words:
                reason = "sentence_too_long"
            elif any(len(word) > cfg.max_word_chars for word in words):
                reason = "word_too_long"
            if reason:
                break
        if reason:
            by_rule["length"] += 1
            by_reason[reason] += 1
            continue
        if (source, target) in seen:
            by_rule["dedup"] += 1
            continue
        seen.add((source, target))
        n_src, n_tgt = len(src_words), len(tgt_words)
        if n_src == 0 or n_tgt == 0:
            reason = "empty_side"
        elif max(n_src, n_tgt) > cfg.max_ratio * min(n_src, n_tgt):
            reason = "ratio"
        if reason:
            by_rule["ratio"] += 1
            by_reason[reason] += 1
            continue
        kept.append(BitextPair(source, target, pair.origin, line=pair.line))
    return kept, {"input_count": count, "kept_count": len(kept),
                  "dropped_by_rule": by_rule, "dropped_by_reason": by_reason}


# ------------------------------------------------------------- denoise

def split_chat_line(text: str) -> tuple[str, str, str]:
    """(leading tag or "", payload, tail) of a chat line: the tail runs
    from the first " <context begins>" on, and a leading tag stands alone
    or before a space."""
    head, sep, tail = text.partition(" <context begins>")
    for tag in LEADING_TAGS:
        if head == tag:
            return tag, "", sep + tail
        if head.startswith(tag + " "):
            return tag, head[len(tag) + 1:], sep + tail
    return "", head, sep + tail


def split_target(target: str, payload_span=None) -> TargetSpans:
    if payload_span is not None:
        tokens = target.split(" ")
        start, end = payload_span
        if not 0 <= start <= end <= len(tokens):
            raise DenoiseFormatError(f"span {payload_span} out of range for {target!r}")
        if start == end:
            return TargetSpans(target, (), "")
        return TargetSpans(" ".join(tokens[:start]) + " " if start else "",
                           tuple(tokens[start:end]),
                           " " + " ".join(tokens[end:]) if end < len(tokens) else "")
    tag, payload, tail = split_chat_line(target)
    if tail.count("<context begins>") > 1:
        raise DenoiseFormatError(f"multiple context indicators in target {target!r}")
    if not payload:
        raise DenoiseFormatError(f"empty payload in target {target!r}")
    return TargetSpans(f"{tag} " if tag else "", tuple(payload.split(" ")), tail)


def record_rng(seed: int, index: int) -> np.random.Generator:
    """Record index's generator, built as numpy documents it."""
    return np.random.Generator(np.random.PCG64(
        np.random.SeedSequence(entropy=seed, spawn_key=(index,))))


def choose_pairs(n: int, cfg) -> set[int]:
    k = math.floor(Fraction(repr(cfg.pair_fraction)) * n)
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(cfg.seed)))
    return {int(i) for i in rng.choice(n, size=k, replace=False)} if k else set()


def denoise_tokens(tokens, token_prob: float, rng) -> list:
    n = len(tokens)
    if n == 0:
        return []
    out = list(tokens)
    draws = rng.random(n)
    for i in range(n):
        if draws[i] < token_prob:
            out[i] = tokens[int(rng.integers(n))]
    return out


def record_draws(seed: int, index: int, n: int, token_prob: float):
    """denoise_tokens' draws for record index of n tokens: its hits as
    (position, pick), and whether a pick's 32-bit draw fell in Lemire's
    rejection zone, where numpy draws again."""
    rng = record_rng(seed, index)
    hits = [t for t, x in enumerate(rng.random(n).tolist()) if x < token_prob]
    rejected = False
    for _ in hits:
        # integers(2**32) returns one 32-bit draw as it is.
        m = int(rng.integers(2**32, dtype=np.uint64)) * n
        rejected |= m & 0xFFFFFFFF < (2**32 - n) % n
    picks = denoise_tokens(list(range(n)), token_prob, record_rng(seed, index))
    return [(t, picks[t]) for t in hits], rejected


def denoise_corpus(pairs, cfg, payload_spans=None) -> list[BitextPair]:
    """Every target split, in input order, before any is noised; then each
    chosen target's payload noised by its own generator. A noised target
    left blank keeps its input."""
    if payload_spans is not None and len(payload_spans) != len(pairs):
        raise ValueError("payload_spans length must match pairs")
    spans = []
    for i, pair in enumerate(pairs):
        try:
            span = pair.payload_span if payload_spans is None else payload_spans[i]
            spans.append(split_target(pair.target, span))
        except DenoiseFormatError as exc:
            raise DenoiseFormatError(exc.reason, i, pair.line) from exc
    chosen = choose_pairs(len(pairs), cfg)
    out = list(pairs)
    for i in sorted(chosen):
        head, payload, tail = spans[i]
        noised = denoise_tokens(payload, cfg.token_prob, record_rng(cfg.seed, i))
        target = head + " ".join(noised) + tail
        if target.strip():
            out[i] = replace(pairs[i], target=target)
    return out


# -------------------------------------------------------------- stages
# A command's output bytes for its input bytes, or the CorpusError it
# exits 2 with.

def run_filter(data: bytes, in_fmt: str, out_fmt: str, cfg, fail_mode="fail_fast") -> bytes:
    kept, _ = filter_corpus(parse_bitext(read_lines(data), in_fmt, fail_mode), cfg)
    return "".join(write_bitext(kept, out_fmt)).encode("utf-8")


def run_chatprep(data: bytes, out_fmt: str, cfg) -> bytes:
    pairs = prepare_chat_corpus(parse_chat(read_lines(data)), cfg)
    return "".join(write_bitext(pairs, out_fmt)).encode("utf-8")


def run_denoise(data: bytes, in_fmt: str, out_fmt: str, cfg) -> bytes:
    pairs = parse_bitext(read_lines(data), in_fmt)
    noised = denoise_corpus(pairs, cfg, [p.payload_span for p in pairs])
    return "".join(write_bitext(noised, out_fmt)).encode("utf-8")


def run_pipeline(bitext: bytes, chat: bytes, filter_fmt: str, chatprep_fmt: str,
                 denoise_fmt: str, filter_cfg, context_cfg,
                 denoise_cfg) -> tuple[bytes, bytes, bytes]:
    """filter's, chatprep's and denoise's outputs, each in its stage's
    format (filter's for both its sides); denoise reads chatprep's output
    in chatprep's format."""
    filtered = run_filter(bitext, filter_fmt, filter_fmt, filter_cfg)
    prepped = run_chatprep(chat, chatprep_fmt, context_cfg)
    return filtered, prepped, run_denoise(prepped, chatprep_fmt, denoise_fmt, denoise_cfg)


def run_bsce(data: bytes, e: int) -> bytes:
    """bsce-select's `--out` bytes for a valid scores file and an ensemble
    size in range, or the CorpusError of a model id holding a lone
    surrogate or of a weighted score no float holds."""
    obj = json.loads(data)
    for model in obj["models"]:
        if any(0xD800 <= ord(c) <= 0xDFFF for c in model):
            raise CorpusError(f"bad scores file: model id {model!r} is not valid Unicode")
    s = ScoreSet.from_lists(obj["models"], obj["comet"], obj["pairwise"])
    try:
        sel = select_ensemble(s, e)
    except OverflowError as exc:
        raise CorpusError(f"bad scores file: {exc}") from None
    return (json.dumps(sel.as_dict(), ensure_ascii=False, indent=2) + "\n").encode("utf-8")


# ------------------------------------------------------------ ensemble

def select_ensemble(s, e: int) -> EnsembleSelection:
    """Greedy selection with one Fraction per similarity term: the best
    weighted score first, then the remaining model least similar on
    average to the pool; ties go to the higher validation score, then to
    the smaller model id."""
    n = s.n
    comet = [Fraction(c) for c in s.comet]
    sims = [sum((Fraction(s.pairwise[i][j]) for j in range(n) if j != i), Fraction(0)) / (n - 1)
            for i in range(n)]
    c_min, c_max = min(comet), max(comet)
    s_min, s_max = min(sims), max(sims)
    weight = Fraction(0) if c_max == c_min else (s_max - s_min) / (c_max - c_min)
    scores = [(comet[i] - c_min) * weight + (s_max - sims[i]) for i in range(n)]
    pool = [min(range(n), key=lambda i: (-scores[i], -comet[i], s.model_ids[i]))]
    diagnostics = []
    while len(pool) < e:
        remaining = [i for i in range(n) if i not in pool]
        avg = {i: sum((Fraction(s.pairwise[i][j]) for j in pool), Fraction(0)) / len(pool)
               for i in remaining}
        diagnostics.append([(s.model_ids[i], float(avg[i])) for i in remaining])
        pool.append(min(remaining, key=lambda i: (avg[i], -comet[i], s.model_ids[i])))
    weighted = []
    for model, score in zip(s.model_ids, scores):
        try:
            weighted.append(float(score))
        except OverflowError:
            raise OverflowError(f"the weighted score of model {model!r} is beyond "
                                "float range") from None
    return EnsembleSelection([s.model_ids[i] for i in pool], weighted, diagnostics)


# ----------------------------------------------------------- attention

def prefix_mean_oracle(y):
    """Row i: the mean of rows 0..i of y, each prefix summed on its own."""
    t = y.shape[0]
    return np.stack([y[: i + 1].sum(axis=0) / (i + 1) for i in range(t)])


def softmax_rows(x):
    shifted = x - x.max(axis=-1, keepdims=True)
    ex = np.exp(shifted)
    return ex / ex.sum(axis=-1, keepdims=True)


def ffn(x, params):
    h = x @ params.w1 + params.b1
    if params.use_activation:
        h = np.maximum(h, 0.0)
    return h @ params.w2 + params.b2


def aan_context(y, params):
    y = np.asarray(y, dtype=float)
    return ffn(np.cumsum(y, axis=0) / np.arange(1, y.shape[0] + 1)[:, None], params)


def standard_attention(q, k, v):
    q, k, v = (np.asarray(a, dtype=float) for a in (q, k, v))
    return softmax_rows(q @ k.T / np.sqrt(q.shape[1])) @ v


def talking_heads_attention(q, k, v, w_logits, w_scores):
    q, k, v, wl, ws = (np.asarray(a, dtype=float) for a in (q, k, v, w_logits, w_scores))
    logits = q @ k.transpose(0, 2, 1) / np.sqrt(q.shape[2])
    probs = softmax_rows(np.einsum("hmn,hg->gmn", logits, wl))
    return np.einsum("hmn,hg->gmn", probs, ws) @ v
