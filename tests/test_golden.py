"""Golden output guard: sha256 of the sample pipeline, ensemble selection,
a span-carrying JSONL denoise run and a non-ASCII JSONL filter run. A refactor must leave every byte
of these outputs unchanged; a deliberate change of bytes re-pins here and
says why."""
import hashlib
import json
import random
import subprocess
import sys
from pathlib import Path

from chatmt.cli import main

ROOT = Path(__file__).resolve().parent.parent
SAMPLE_FILES = ("bitext.tsv", "chat.jsonl", "scores.json", "pipeline.json")

PINS = {
    "bitext.filtered.tsv":
        "9a400a889e552b4cf09dbe6f68785e50792b9484e0916a3c9aed36bb990ce620",
    "chat.prepped.tsv":
        "520da1086904d742a707afe1ccca02c3c84419dbf8cd74bac75e33b8d3933996",
    "chat.noised.tsv":
        "d18f5b858fbf07caf9bc44adadeb9f0a05e7448aee3084d50ad0155f754fb13c",
    "selection.json":
        "d58b6627e8eda47c58b227d9351b8c07e97bf6910ee6966ef7718c808c09bafe",
    "spans.noised.jsonl":
        "11636295221a8836c48715d3f28ec4face076ae2b3f1384ae5692cf6526c7547",
}
# Pinned apart from PINS so that those stay as they were first taken.
FILTERED_JSONL_PIN = "c233d67afdbc6a32fb281dffaa09477534ef92f970530b144221117414568c15"

WORDS = ["hallo", "paket", "bestellung", "größe", "café", "naïve", "über", "straße",
         "morgen", "hilfe", "order", "parcel", "thanks", "déjà", "vu"]
TAGS = ["<agent>", "<customer>", "<BT>"]
# Every character normalize_punctuation maps, plus a no-break space run.
PUNCT = ["\u201c", "\u201d", "\u201e", "\u00ab", "\u00bb", "\u2018", "\u2019", "\u201a",
         "\u2013", "\u2014", "\u2026", "\u00a0", "\u2009", "\u202f", "\u00a0\u00a0 \u00a0"]


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def make_sample(out_dir: Path) -> None:
    subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "make_sample_data.py"),
         "--out-dir", str(out_dir), "--seed", "42"],
        check=True, capture_output=True,
    )


def span_corpus_lines(seed: int, n: int) -> list[str]:
    """JSONL bitext mixing explicit payload spans, chat-tagged targets
    without spans, and genuine, synthetic and defaulted origins."""
    rng = random.Random(seed)
    lines = []
    for i in range(n):
        source = " ".join(rng.choices(WORDS, k=rng.randint(1, 6)))
        rec = {"source": source}
        roll = rng.random()
        if roll < 0.5:
            pre = rng.choices(WORDS, k=rng.randint(0, 2))
            payload = rng.choices(WORDS, k=rng.randint(1, 8))
            post = rng.choices(WORDS, k=rng.randint(0, 3))
            rec["target"] = " ".join(pre + payload + post)
            rec["target_payload_span"] = [len(pre), len(pre) + len(payload)]
        else:
            target = " ".join(rng.choices(WORDS, k=rng.randint(1, 8)))
            if roll < 0.8:
                target = f"{rng.choice(TAGS)} {target}"
            if roll < 0.65:
                target += " <context begins> " + " ".join(rng.choices(WORDS, k=3))
            rec["target"] = target
        origin = rng.choice(["genuine", "synthetic", None])
        if origin is not None:
            rec["origin"] = origin
        lines.append(json.dumps(rec, ensure_ascii=False) + "\n")
    return lines


def punct_corpus_lines(seed: int, n: int) -> list[str]:
    """JSONL bitext of umlaut words and mapped punctuation (some sides
    ASCII, some repeated, some over the length or ratio limits), with
    genuine, synthetic and defaulted origins."""
    rng = random.Random(seed)
    lines = []
    for _ in range(n):
        sides = []
        for _ in range(2):
            words = rng.choices(WORDS + PUNCT, k=rng.choice([0, 2, 5, 11, 120]))
            if rng.random() < 0.2:
                words = [w for w in words if w.isascii()]
            # One plain word keeps the side from being only whitespace.
            words.insert(rng.randint(0, len(words)), rng.choice(WORDS[-6:]))
            sides.append(rng.choice(["", " ", "\u00a0"]).join(words))
        rec = {"source": sides[0], "target": sides[1]}
        origin = rng.choice(["genuine", "synthetic", None])
        if origin is not None:
            rec["origin"] = origin
        lines.append(json.dumps(rec, ensure_ascii=rng.random() < 0.3) + "\n")
        if rng.random() < 0.1:
            lines.append(rng.choice(lines))
    return lines


def test_sample_data_is_deterministic(tmp_path):
    make_sample(tmp_path / "a")
    make_sample(tmp_path / "b")
    for name in SAMPLE_FILES:
        a = (tmp_path / "a" / name).read_bytes()
        b = (tmp_path / "b" / name).read_bytes().replace(b"/b/", b"/a/")
        assert a == b, name


def test_golden_outputs(tmp_path):
    make_sample(tmp_path)
    assert main(["pipeline", str(tmp_path / "pipeline.json"),
                 "--report", str(tmp_path / "run_report.json")]) == 0
    assert main(["bsce-select", "--scores", str(tmp_path / "scores.json"),
                 "--ensemble-size", "3", "--out", str(tmp_path / "selection.json")]) == 0

    spans_in = tmp_path / "spans.jsonl"
    spans_in.write_text("".join(span_corpus_lines(seed=7, n=300)), encoding="utf-8")
    assert main(["denoise", "--in", str(spans_in), "--out",
                 str(tmp_path / "spans.noised.jsonl"), "--out-format", "jsonl",
                 "--seed", "13", "--pair-fraction", "0.5", "--token-prob", "0.3"]) == 0

    assert {name: sha256(tmp_path / name) for name in PINS} == PINS


def test_golden_filtered_jsonl(tmp_path):
    corpus = tmp_path / "punct.jsonl"
    corpus.write_text("".join(punct_corpus_lines(seed=11, n=400)), encoding="utf-8")
    out = tmp_path / "punct.filtered.jsonl"
    assert main(["filter", "--in", str(corpus), "--out", str(out)]) == 0
    assert sha256(out) == FILTERED_JSONL_PIN
