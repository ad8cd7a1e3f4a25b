"""BitextPair and ChatRecord are slotted, mutable records. These tests hold
what `frozen=True` used to guarantee: no stage writes into a record it is
given. They also keep the records slotted, since a revert to dict-backed
records would show in no output byte."""
import copy
import json

import pytest

from chatmt.chatprep import MIXED_LANGUAGE, SAME_LANGUAGE, ContextConfig, prepare_chat_corpus
from chatmt.corpus import (
    BITEXT_FORMATS, SYNTHETIC, BitextPair, ChatRecord, parse_chat, write_bitext,
)
from chatmt.denoise import DenoiseConfig, choose_pairs, denoise_corpus
from chatmt.filtering import FilterConfig, filter_corpus, normalize_punctuation


def _unchanged_after(func, *args):
    """Call func and assert that every argument equals a deep copy taken
    before the call; returns func's result, drained if it is a generator."""
    before = copy.deepcopy(args)
    out = func(*args)
    if not isinstance(out, (list, tuple)):
        out = list(out)
    assert args == before
    return out


def bitext_pairs():
    return [
        BitextPair("hello there", "hallo du"),
        BitextPair("a synthetic pair", "ein synthetisches Paar", SYNTHETIC),
        BitextPair("keep the span", "<agent> bitte behalte die Spanne <context begins> ja",
                   SYNTHETIC, (1, 5)),
        # Normalization rewrites both sides.
        BitextPair("„quoted“  text…", "«zitiert»  Text – so"),
        BitextPair(" ".join(["a"] * 101), "zu lang"),
        BitextPair("hello there", "hallo du"),
        BitextPair("thanks", "danke sehr gerne vielen lieben"),
        BitextPair("<customer> wie geht es dir heute", "<customer> how are you doing today"),
        BitextPair("one two three four", "eins zwei drei vier"),
        BitextPair("good night", "gute Nacht <context begins> guten Morgen <SEP> hallo"),
    ]


def test_filter_corpus_leaves_its_input_unchanged():
    pairs = bitext_pairs()
    assert any(normalize_punctuation(p.source) != p.source for p in pairs)
    _, report = _unchanged_after(filter_corpus, pairs, FilterConfig())
    assert 0 < report.kept_count < report.input_count


@pytest.mark.parametrize("fraction, seed", [(0.5, 3), (1.0, 7)])
def test_denoise_corpus_leaves_its_input_unchanged(fraction, seed):
    pairs = bitext_pairs()
    cfg = DenoiseConfig(pair_fraction=fraction, token_prob=1.0, seed=seed)
    chosen = choose_pairs(len(pairs), cfg)
    noised = _unchanged_after(denoise_corpus, pairs, cfg, [p.payload_span for p in pairs])
    changed = {i for i, (a, b) in enumerate(zip(pairs, noised)) if a.target != b.target}
    assert changed and changed <= chosen
    assert 2 in chosen


CHAT = [
    {"dialogue_id": "d1", "turn_index": 0, "speaker": "customer", "src_text": "Hallo",
     "tgt_text": "Hello", "src_lang": "de", "tgt_lang": "en"},
    {"dialogue_id": "d2", "turn_index": 0, "speaker": "agent", "src_text": "Guten Morgen",
     "tgt_text": "Good morning", "src_lang": "de", "tgt_lang": "en"},
    {"dialogue_id": "d1", "turn_index": 1, "speaker": "agent", "src_text": "How can I help?",
     "tgt_text": "Wie kann ich helfen?", "src_lang": "en", "tgt_lang": "de"},
    {"dialogue_id": "d1", "turn_index": 2, "speaker": "customer", "src_text": "Mein Paket",
     "tgt_text": "My parcel", "src_lang": "de", "tgt_lang": "en"},
]


@pytest.mark.parametrize("mode", [SAME_LANGUAGE, MIXED_LANGUAGE])
@pytest.mark.parametrize("tags", [True, False])
def test_prepare_chat_corpus_leaves_its_dialogues_unchanged(mode, tags):
    dialogues = parse_chat(json.dumps(obj) + "\n" for obj in CHAT)
    cfg = ContextConfig(n_prev=2, mode=mode, speaker_tags=tags)
    pairs = _unchanged_after(prepare_chat_corpus, dialogues, cfg)
    assert len(pairs) == len(CHAT)


@pytest.mark.parametrize("fmt", BITEXT_FORMATS)
def test_write_bitext_leaves_its_input_unchanged(fmt):
    lines = _unchanged_after(write_bitext, bitext_pairs(), fmt)
    assert len(lines) == len(bitext_pairs())


def test_a_stage_that_writes_into_a_record_fails_the_check():
    def overwrite(pairs):
        pairs[0].target = "changed"
        return pairs

    with pytest.raises(AssertionError):
        _unchanged_after(overwrite, bitext_pairs())


@pytest.mark.parametrize("record", [
    BitextPair("s", "t"),
    ChatRecord("d", 0, "agent", "s", "t", "de", "en"),
], ids=lambda r: type(r).__name__)
def test_records_are_slotted(record):
    assert "__slots__" in type(record).__dict__
    assert not hasattr(record, "__dict__")
