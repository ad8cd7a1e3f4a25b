"""Output checks of the chatmt benchmark.

Each check returns a list of problems; an empty list means the stage's
outputs are correct. The invariants below hold for any correct program,
including one whose output bytes changed on purpose; the pinned sha256
in pins.json catch every other change of bytes.
"""
from __future__ import annotations

import json
import math
from pathlib import Path

from gen import sha256_file

CONTEXT_TAG = "<context begins>"
LEADING_TAGS = ("<agent>", "<customer>", "<BT>")
PAIR_FRACTION = 0.30  # chatmt denoise's default --pair-fraction
PINS_PATH = Path(__file__).with_name("pins.json")


def read_lines(path: Path) -> list[str]:
    with open(path, encoding="utf-8") as fh:
        return [line.rstrip("\n") for line in fh if line.strip()]


def read_pairs(path: Path) -> list[dict]:
    """Bitext records as dicts, from TSV or JSONL by file suffix."""
    if path.suffix == ".jsonl":
        return [json.loads(line) for line in read_lines(path)]
    return [dict(zip(("source", "target"), line.split("\t"))) for line in read_lines(path)]


def count_records(path: Path) -> int:
    return len(read_lines(path))


def check_filter(inp: Path, out: Path, report: dict) -> list[str]:
    problems = []
    n_in = count_records(inp)
    kept = report["kept_count"]
    drops = sum(report["dropped_by_rule"].values())
    if report["input_count"] != n_in:
        problems.append(f"filter: input_count {report['input_count']} != {n_in} input records")
    if report["input_count"] != kept + drops:
        problems.append(f"filter: input_count {report['input_count']} != kept {kept} + drops {drops}")
    n_out = count_records(out)
    if kept != n_out:
        problems.append(f"filter: kept {kept} != {n_out} output lines")
    return problems


def check_chatprep(inp: Path, out: Path, strip_tags) -> list[str]:
    turns = [json.loads(line) for line in read_lines(inp)]
    pairs = read_pairs(out)
    if len(turns) != len(pairs):
        return [f"chatprep: {len(pairs)} pairs for {len(turns)} turns"]
    for i, (turn, pair) in enumerate(zip(turns, pairs)):
        if (strip_tags(pair["source"]), strip_tags(pair["target"])) != (
                turn["src_text"], turn["tgt_text"]):
            return [f"chatprep: pair {i} does not strip back to its turn's payload"]
    return []


def _split_payload(target: str, span) -> tuple[list[str], list[str], list[str]]:
    """(prefix, payload, suffix) tokens, by explicit span or chat tags."""
    tokens = target.split(" ")
    if span is not None:
        start, end = span
        return tokens[:start], tokens[start:end], tokens[end:]
    head, sep, tail = target.partition(f" {CONTEXT_TAG}")
    suffix = [sep + tail] if sep else []
    words = head.split(" ")
    prefix = words[:1] if words[0] in LEADING_TAGS else []
    return prefix, words[len(prefix):], suffix


def check_denoise(inp: Path, out: Path, report: dict) -> list[str]:
    before, after = read_pairs(inp), read_pairs(out)
    n = len(before)
    if len(after) != n:
        return [f"denoise: {len(after)} output pairs for {n} input pairs"]
    # The report's `chosen` is computed from n, not from what choose_pairs
    # returned; check_denoise_counts checks that in traced passes.
    expected = math.floor(PAIR_FRACTION * n + 1e-9)
    changed = 0
    for i, (a, b) in enumerate(zip(before, after)):
        if {k: v for k, v in a.items() if k != "target"} != {
                k: v for k, v in b.items() if k != "target"}:
            return [f"denoise: pair {i} changed outside its target"]
        if a["target"] == b["target"]:
            continue
        changed += 1
        span = a.get("target_payload_span")
        pre_a, pay_a, suf_a = _split_payload(a["target"], span)
        pre_b, pay_b, suf_b = _split_payload(b["target"], span)
        if (pre_a, suf_a) != (pre_b, suf_b):
            return [f"denoise: pair {i} changed outside its payload span"]
        if len(pay_a) != len(pay_b) or not set(pay_b) <= set(pay_a):
            return [f"denoise: pair {i} payload is not a resampling of its own tokens"]
    if changed > expected:
        return [f"denoise: {changed} targets changed but only {expected} chosen"]
    if report["changed_targets"] != changed:
        return [f"denoise: report says {report['changed_targets']} changed, found {changed}"]
    return []


def check_denoise_counts(counts: dict) -> list[str]:
    """The traced run counts what choose_pairs returned, which the run
    report does not show."""
    expected = math.floor(PAIR_FRACTION * counts.get("denoise.pairs", 0) + 1e-9)
    if counts.get("denoise.chosen", 0) != expected:
        return [f"denoise: choose_pairs returned {counts.get('denoise.chosen', 0):.0f} "
                f"indices, expected {expected}"]
    return []


def check_bsce(scores_path: Path, selection_path: Path, size: int) -> list[str]:
    scores = json.loads(scores_path.read_text(encoding="utf-8"))
    sel = json.loads(selection_path.read_text(encoding="utf-8"))
    chosen, weighted = sel["selected"], sel["weighted_scores"]
    problems = []
    if len(chosen) != size or len(set(chosen)) != size:
        problems.append(f"bsce-select: {chosen} is not {size} unique ids")
    if not set(chosen) <= set(scores["models"]):
        problems.append("bsce-select: selected an unknown model id")
    elif weighted[scores["models"].index(chosen[0])] != max(weighted):
        problems.append("bsce-select: first pick is not the top weighted score")
    return problems


def check_attention(result: dict) -> list[str]:
    if not result["oracle_deviation"] <= result["oracle_tolerance"]:
        return [f"attention: oracle deviation {result['oracle_deviation']:.3e} "
                f"> {result['oracle_tolerance']:.0e}"]
    return []


def output_digests(work: Path, names) -> dict[str, str]:
    return {name: sha256_file(work / name) for name in names}


def load_pins() -> dict:
    if PINS_PATH.exists():
        return json.loads(PINS_PATH.read_text(encoding="utf-8"))
    return {}


def pin_key(workload: str, smoke: bool, seed: int) -> str:
    return f"{workload}/{'smoke' if smoke else 'full'}/{seed}"


def check_pins(pin: dict | None, digests: dict[str, str]) -> tuple[list[str], str]:
    """Names of outputs whose sha256 differs from the pinned one, and a
    status line. A deliberate change of output bytes re-pins with pin.py."""
    if pin is None:
        return [], "no pin for this seed"
    mismatched = [name for name, want in pin.items() if digests.get(name) != want]
    return mismatched, f"mismatch: {', '.join(mismatched)}" if mismatched else "match"
