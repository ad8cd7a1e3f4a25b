"""Fine-tuning corpus construction: synthetic-data tagging, speaker tags,
and prompt-style context concatenation.

Output format for an utterance with k preceding contexts:

    <agent> payload <context begins> ctx_1 <SEP> ... <SEP> ctx_k

Contexts are ordered most recent first, so growing n_prev only appends
text: the line built with n_prev=m is a prefix of the one built with
n_prev=m+1 whenever enough history exists.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from .corpus import AGENT, BitextPair, ChatRecord, Dialogue, SYNTHETIC, check_field_types

BT_TAG = "<BT>"
AGENT_TAG = "<agent>"
CUSTOMER_TAG = "<customer>"
CONTEXT_TAG = "<context begins>"
SEP_TAG = "<SEP>"
RESERVED_TAGS = (BT_TAG, AGENT_TAG, CUSTOMER_TAG, CONTEXT_TAG, SEP_TAG)

# The agent side of the WMT'22 chat task speaks English; the customer
# speaks the other language of the pair.
AGENT_LANG = "en"

SAME_LANGUAGE = "same_language"
MIXED_LANGUAGE = "mixed_language"
MODES = (SAME_LANGUAGE, MIXED_LANGUAGE)


class TagError(ValueError):
    """Misuse of the reserved pseudo-token conventions."""


@dataclass(frozen=True)
class ContextConfig:
    n_prev: int = 2
    mode: str = SAME_LANGUAGE
    speaker_tags: bool = True

    def __post_init__(self):
        check_field_types(self)
        if not 0 <= self.n_prev <= 3:
            raise ValueError("n_prev must be in 0..3")
        if self.mode not in MODES:
            raise ValueError(f"unknown context mode {self.mode!r}")


def contains_reserved_tag(text: str) -> bool:
    return any(tag in text for tag in RESERVED_TAGS)


def check_no_reserved_tags(text: str, where: str = "input") -> None:
    if contains_reserved_tag(text):
        raise TagError(f"{where} contains a reserved tag: {text!r}")


def tag_synthetic(pair: BitextPair) -> BitextPair:
    """Prefix the source of a synthetic pair with the pseudo tag."""
    if pair.origin != SYNTHETIC:
        raise TagError("tag_synthetic called on a non-synthetic pair")
    if pair.source.startswith(BT_TAG + " ") or pair.source == BT_TAG:
        raise TagError(f"source already tagged: {pair.source!r}")
    return BitextPair(
        source=f"{BT_TAG} {pair.source}", target=pair.target, origin=pair.origin
    )


def speaker_tag(speaker: str) -> str:
    return AGENT_TAG if speaker == AGENT else CUSTOMER_TAG


def tag_speaker(rec: ChatRecord) -> BitextPair:
    tag = speaker_tag(rec.speaker)
    return BitextPair(source=f"{tag} {rec.src_text}", target=f"{tag} {rec.tgt_text}")


def _own_language_side(rec: ChatRecord) -> tuple[str, str]:
    """(own-language text, translation text) for the turn's speaker."""
    src_is_own = (
        rec.src_lang == AGENT_LANG
        if rec.speaker == AGENT
        else rec.src_lang != AGENT_LANG
    )
    if src_is_own:
        return rec.src_text, rec.tgt_text
    return rec.tgt_text, rec.src_text


def build_context(d: Dialogue, turn_index: int, cfg: ContextConfig) -> BitextPair:
    """Build one training pair for the given turn with up to n_prev
    preceding utterances appended after the context indicator."""
    if not 0 <= turn_index < len(d.turns):
        raise ValueError(
            f"turn {turn_index} not in dialogue {d.dialogue_id!r} "
            f"({len(d.turns)} turns)"
        )
    cur = d.turns[turn_index]
    if cfg.speaker_tags:
        base = tag_speaker(cur)
    else:
        base = BitextPair(source=cur.src_text, target=cur.tgt_text)

    k = min(cfg.n_prev, turn_index)
    if k == 0:
        return base

    src_ctx: list[str] = []
    tgt_ctx: list[str] = []
    # Most recent context first; stop=None when the window reaches turn 0.
    stop = turn_index - 1 - k
    for prev in d.turns[turn_index - 1 : (stop if stop >= 0 else None) : -1]:
        if cfg.mode == SAME_LANGUAGE:
            src_ctx.append(prev.src_text)
            tgt_ctx.append(prev.tgt_text)
        else:
            own, translation = _own_language_side(prev)
            src_ctx.append(own)
            tgt_ctx.append(translation)

    sep = f" {SEP_TAG} "
    return BitextPair(
        source=f"{base.source} {CONTEXT_TAG} {sep.join(src_ctx)}",
        target=f"{base.target} {CONTEXT_TAG} {sep.join(tgt_ctx)}",
    )


def strip_tags(text: str) -> str:
    """Recover the raw payload: drop one leading pseudo tag and anything
    from the context indicator onward."""
    head, _, _ = text.partition(f" {CONTEXT_TAG}")
    for tag in (AGENT_TAG, CUSTOMER_TAG, BT_TAG):
        if head.startswith(tag + " "):
            return head[len(tag) + 1 :]
        if head == tag:
            return ""
    return head


def prepare_chat_corpus(
    dialogues: Iterable[Dialogue], cfg: ContextConfig
) -> Iterator[BitextPair]:
    """Map whole dialogues to training pairs, ordered by (dialogue,
    turn_index). Rejects utterances that already contain reserved tags;
    they would make the tagged lines ambiguous."""
    for d in dialogues:
        for rec in d.turns:
            check_no_reserved_tags(
                rec.src_text, f"{d.dialogue_id}/{rec.turn_index} src_text"
            )
            check_no_reserved_tags(
                rec.tgt_text, f"{d.dialogue_id}/{rec.turn_index} tgt_text"
            )
        for rec in d.turns:
            yield build_context(d, rec.turn_index, cfg)
