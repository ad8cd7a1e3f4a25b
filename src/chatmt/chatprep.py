"""Fine-tuning corpus construction: speaker tags and prompt-style context
concatenation.

Output format for an utterance with k preceding contexts:

    <agent> payload <context begins> ctx_1 <SEP> ... <SEP> ctx_k

Contexts are ordered most recent first, so growing n_prev only appends
text: the line built with n_prev=m is a prefix of the one built with
n_prev=m+1 whenever enough history exists.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .corpus import AGENT, BitextPair, ChatRecord, CorpusError, Dialogue, check_field_types

# <BT> marks back-translated text. chatprep never writes it, but a line
# from outside may lead with it, so it is reserved and parsed like the
# speaker tags.
BT_TAG = "<BT>"
AGENT_TAG = "<agent>"
CUSTOMER_TAG = "<customer>"
CONTEXT_TAG = "<context begins>"
SEP_TAG = "<SEP>"
RESERVED_TAGS = (BT_TAG, AGENT_TAG, CUSTOMER_TAG, CONTEXT_TAG, SEP_TAG)
# Tags that can open a line, ahead of its payload.
LEADING_TAGS = (AGENT_TAG, CUSTOMER_TAG, BT_TAG)
_RESERVED_TAG = re.compile("|".join(map(re.escape, RESERVED_TAGS)))
_SEP = f" {SEP_TAG} "
# Where split_tags ends a line's payload: the context indicator after it.
_CONTEXT_START = f" {CONTEXT_TAG}"

# The agent side of the WMT'22 chat task speaks English; the customer
# speaks the other language of the pair.
AGENT_LANG = "en"

SAME_LANGUAGE = "same_language"
MIXED_LANGUAGE = "mixed_language"
MODES = (SAME_LANGUAGE, MIXED_LANGUAGE)


class TagError(CorpusError):
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


def context_sides(turns: Sequence[ChatRecord], mode: str) -> tuple[list[str], list[str]]:
    """Each turn's text as a context on the source side and on the target
    side: its source and target text in same_language mode, its speaker's
    own-language text and its translation in mixed_language mode."""
    if mode == SAME_LANGUAGE:
        return [rec.src_text for rec in turns], [rec.tgt_text for rec in turns]
    own, other = zip(*map(_own_language_side, turns))
    return list(own), list(other)


def build_context(d: Dialogue, turn_index: int, cfg: ContextConfig,
                  sides: tuple[list[str], list[str]] | None = None) -> BitextPair:
    """Build one training pair for the given turn, carrying the turn's
    input line, with up to n_prev preceding utterances appended after the
    context indicator. `sides` is context_sides(d.turns, cfg.mode), for a
    caller that builds every turn of d."""
    if not 0 <= turn_index < len(d.turns):
        raise ValueError(
            f"turn {turn_index} not in dialogue {d.dialogue_id!r} "
            f"({len(d.turns)} turns)"
        )
    cur = d.turns[turn_index]
    source, target = cur.src_text, cur.tgt_text
    if cfg.speaker_tags:
        tag = AGENT_TAG if cur.speaker == AGENT else CUSTOMER_TAG
        source, target = f"{tag} {source}", f"{tag} {target}"

    k = cfg.n_prev if cfg.n_prev < turn_index else turn_index
    if k == 0:
        return BitextPair(source, target, line=cur.line)
    src_ctx, tgt_ctx = sides or context_sides(d.turns, cfg.mode)
    # Most recent context first: turns turn_index - 1 down to turn_index - k.
    stop = turn_index - k - 1 if k < turn_index else None
    return BitextPair(
        f"{source} {CONTEXT_TAG} {_SEP.join(src_ctx[turn_index - 1 : stop : -1])}",
        f"{target} {CONTEXT_TAG} {_SEP.join(tgt_ctx[turn_index - 1 : stop : -1])}",
        line=cur.line,
    )


def split_tags(text: str) -> tuple[str, str, str]:
    """Split a chat line into (leading tag or "", payload, suffix), the one
    reader of the chat line. The suffix runs from the first " <context
    begins>" on, or is ""; before it, a leading tag is one of LEADING_TAGS
    up to the first space, and the payload is the rest."""
    head, sep, tail = text.partition(_CONTEXT_START)
    tag, _, payload = head.partition(" ")
    if tag in LEADING_TAGS:
        return tag, payload, sep + tail
    return "", head, sep + tail


def strip_tags(text: str) -> str:
    """Recover the raw payload: drop one leading pseudo tag and anything
    from the context indicator onward."""
    return split_tags(text)[1]


def prepare_chat_corpus(
    dialogues: Iterable[Dialogue], cfg: ContextConfig
) -> Iterator[BitextPair]:
    """Map whole dialogues to training pairs, ordered by (dialogue,
    turn_index). Rejects utterances that already contain reserved tags,
    naming the turn's input line; they would make the tagged lines
    ambiguous. Each dialogue's context texts are taken once, by
    context_sides, for all its turns."""
    search = _RESERVED_TAG.search
    for d in dialogues:
        for rec in d.turns:
            # Every reserved tag starts with "<"; the message is built
            # only for a text that holds a tag.
            src, tgt = rec.src_text, rec.tgt_text
            if ("<" in src and search(src)) or ("<" in tgt and search(tgt)):
                name, text = ("src_text", src) if search(src) else ("tgt_text", tgt)
                raise TagError(f"{d.dialogue_id}/{rec.turn_index} {name} contains a "
                               f"reserved tag: {text!r}", rec.line)
        sides = context_sides(d.turns, cfg.mode) if cfg.n_prev else None
        for turn_index in range(len(d.turns)):
            yield build_context(d, turn_index, cfg, sides)
