#!/usr/bin/env python3
"""Seeded input generator for the chatmt benchmark.

Every input is a pure function of (spec, seed): the same seed gives the
same bytes. Each spec exposes the knobs the benchmark varies (size,
non-ASCII share, duplicate share, dialogue length, synthetic share and
payload spans). `write_inputs` writes the files and returns their sha256,
so every result records exactly which inputs it measured.

Run on its own to inspect a workload's inputs:

    python3 perfbench/gen.py --workload chat-tsv --seed 1 --out /tmp/inputs
"""
from __future__ import annotations

import argparse
import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path

DE_WORDS = (
    "hallo guten tag wie geht es ihnen danke bitte paket bestellung morgen "
    "hilfe problem gerne rechnung lieferung adresse konto passwort frage "
    "antwort heute leider schon noch einmal wieder kunde nummer zahlung "
    "karte termin woche monat versand ware preis rabatt gutschein".split()
)
EN_WORDS = (
    "hello good day how are you thanks please parcel order morning help "
    "problem sure invoice delivery address account password question answer "
    "today sorry already still once again customer number payment card "
    "appointment week month shipping goods price discount voucher".split()
)
# Umlaut words stay non-ASCII after normalization; the punctuation below
# is what normalize_punctuation rewrites.
DE_UMLAUT_WORDS = (
    "grüße möchte über größe schön für zurück später bestätigung straße "
    "gebühr rückerstattung änderung prüfen können müssen".split()
)
NORMALIZABLE = (
    ("\u201c", "\u201d"), ("\u201e", "\u201c"), ("\u2018", "\u2019"),
    ("\u00ab", "\u00bb"), ("", " \u2013"), ("", " \u2014"), ("", "\u2026"),
    ("", "\u00a0ok"), ("\u2009", ""), ("", "\u202f!"),
)
# Shares of bitext pairs that each filter rule drops: a side over the
# length limit, a word over the word limit, a bad length ratio.
TOO_LONG, WORD_TOO_LONG, BAD_RATIO = 0.03, 0.01, 0.04


def sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


@dataclass(frozen=True)
class BitextSpec:
    """Noisy bitext for `chatmt filter`.

    non_ascii: share of sides with umlaut words and punctuation that
    normalization rewrites. dup: share of lines copied from an earlier
    line. synthetic: share with origin "synthetic" (JSONL only).
    """

    pairs: int
    fmt: str = "tsv"
    non_ascii: float = 0.0
    dup: float = 0.05
    synthetic: float = 0.0

    def render(self, rng: random.Random) -> str:
        return "".join(bitext_lines(self, rng))


@dataclass(frozen=True)
class ChatSpec:
    """Chat JSONL for `chatmt chatprep`; each dialogue has between
    min_turns and max_turns turns."""

    dialogues: int
    min_turns: int = 2
    max_turns: int = 5

    def render(self, rng: random.Random) -> str:
        return "".join(chat_lines(self, rng))


@dataclass(frozen=True)
class SpanSpec:
    """Bitext JSONL for `chatmt denoise`; a `spans` share of records carry
    target_payload_span with 0-2 prefix and 0-4 suffix tokens."""

    pairs: int
    spans: float = 1.0
    non_ascii: float = 0.0
    synthetic: float = 0.0

    def render(self, rng: random.Random) -> str:
        return "".join(span_lines(self, rng))


@dataclass(frozen=True)
class ScoresSpec:
    """Scores JSON for `chatmt bsce-select`."""

    models: int

    def render(self, rng: random.Random) -> str:
        return scores_text(self, rng)


def _sentence(rng: random.Random, words, lo: int, hi: int) -> str:
    return " ".join(rng.choices(words, k=rng.randint(lo, hi)))


def _decorate(rng: random.Random, text: str) -> str:
    """Mix in umlaut words and wrap in punctuation that normalization
    rewrites, so the side is both non-ASCII and changed by the filter."""
    words = text.split(" ")
    words[rng.randrange(len(words))] = rng.choice(DE_UMLAUT_WORDS)
    left, right = rng.choice(NORMALIZABLE)
    return f"{left}{' '.join(words)}{right}"


def _side(rng: random.Random, words, non_ascii: float, lo=1, hi=12) -> str:
    text = _sentence(rng, words, lo, hi)
    return _decorate(rng, text) if rng.random() < non_ascii else text


def bitext_records(spec: BitextSpec, rng: random.Random) -> list[tuple[str, str, str]]:
    records: list[tuple[str, str, str]] = []
    for _ in range(spec.pairs):
        roll = rng.random()
        if records and roll < spec.dup:
            records.append(rng.choice(records))
            continue
        roll -= spec.dup
        src = _side(rng, DE_WORDS, spec.non_ascii)
        tgt = _side(rng, EN_WORDS, spec.non_ascii)
        if roll < TOO_LONG:
            src = " ".join(["wort"] * rng.randint(101, 130))
        elif roll < TOO_LONG + WORD_TOO_LONG:
            tgt = f"{tgt} {'x' * rng.randint(41, 60)}"
        elif roll < TOO_LONG + WORD_TOO_LONG + BAD_RATIO:
            tgt = _sentence(rng, EN_WORDS, 5 * len(src.split()), 5 * len(src.split()) + 3)
        origin = "synthetic" if rng.random() < spec.synthetic else "genuine"
        records.append((src, tgt, origin))
    return records


def bitext_lines(spec: BitextSpec, rng: random.Random) -> list[str]:
    records = bitext_records(spec, rng)
    if spec.fmt == "tsv":
        return [f"{s}\t{t}\n" for s, t, _ in records]
    return [
        json.dumps({"source": s, "target": t, "origin": o}, ensure_ascii=False) + "\n"
        for s, t, o in records
    ]


def chat_lines(spec: ChatSpec, rng: random.Random) -> list[str]:
    lines = []
    for d in range(spec.dialogues):
        for t in range(rng.randint(spec.min_turns, spec.max_turns)):
            lines.append(json.dumps({
                "dialogue_id": f"dlg{d:06d}",
                "turn_index": t,
                "speaker": rng.choice(("agent", "customer")),
                "src_text": _sentence(rng, DE_WORDS, 2, 14),
                "tgt_text": _sentence(rng, EN_WORDS, 2, 14),
                "src_lang": "de",
                "tgt_lang": "en",
            }) + "\n")
    return lines


def span_lines(spec: SpanSpec, rng: random.Random) -> list[str]:
    lines = []
    for _ in range(spec.pairs):
        prefix = [f"[{rng.choice(('de', 'en', 'fr'))}]"] * rng.randint(0, 2)
        payload = _side(rng, EN_WORDS, spec.non_ascii, 2, 14).split(" ")
        suffix = ["|"] + _sentence(rng, EN_WORDS, 1, 3).split(" ") if rng.random() < 0.5 else []
        obj = {
            "source": _side(rng, DE_WORDS, spec.non_ascii, 2, 14),
            "target": " ".join(prefix + payload + suffix),
            "origin": "synthetic" if rng.random() < spec.synthetic else "genuine",
        }
        if rng.random() < spec.spans:
            obj["target_payload_span"] = [len(prefix), len(prefix) + len(payload)]
        lines.append(json.dumps(obj, ensure_ascii=False) + "\n")
    return lines


def scores_text(spec: ScoresSpec, rng: random.Random) -> str:
    n = spec.models
    pairwise = [[0.0 if i == j else round(rng.uniform(0.6, 1.0), 4) for j in range(n)]
                for i in range(n)]
    return json.dumps({
        "models": [f"ft{i + 1}" for i in range(n)],
        "comet": [round(rng.uniform(0.70, 0.80), 4) for _ in range(n)],
        "pairwise": pairwise,
    }) + "\n"


def write_inputs(specs: dict, seed: int, out_dir: Path) -> dict[str, str]:
    """Write each named input under out_dir; return {name: sha256}.

    Each file draws from its own stream, seeded by (seed, name), so adding
    an input to a workload does not change the others.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    digests = {}
    for name, spec in specs.items():
        path = out_dir / name
        path.write_text(spec.render(random.Random(f"{seed}:{name}")), encoding="utf-8")
        digests[name] = sha256_file(path)
    return digests


def main() -> None:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes")
    args = parser.parse_args()
    wl = WORKLOADS[args.workload]
    specs = wl.smoke_inputs if args.smoke else wl.inputs
    for name, digest in write_inputs(specs, args.seed, args.out).items():
        print(f"{digest}  {args.out / name}")


if __name__ == "__main__":
    main()
