import errno
import gc
import io
import itertools
import json
import os
import re
import shlex
import subprocess
import sys
import tempfile
import threading
from dataclasses import MISSING, asdict, fields
from pathlib import Path

import pytest

from chatmt import __version__, cli
from chatmt.cli import _build_parser, main
from chatmt.chatprep import ContextConfig
from chatmt.corpus import write_bitext
from chatmt.denoise import DenoiseConfig
from chatmt.ensemble import EnsembleConfig
from chatmt.filtering import FilterConfig
from conftest import DIRECTORY, FIFO, make_micro_corpus, oracle_outputs, run_in, sentinels


def run(argv):
    try:
        return main(argv)
    except SystemExit as exc:  # argparse --version / --help paths
        return exc.code


MICRO_TSV = "".join(write_bitext(make_micro_corpus(), "tsv")).encode()


def write_micro_corpus(path):
    Path(path).write_bytes(MICRO_TSV)


CHAT_LINES = [
    {"dialogue_id": "d1", "turn_index": 0, "speaker": "customer",
     "src_text": "Hallo", "tgt_text": "Hello", "src_lang": "de", "tgt_lang": "en"},
    {"dialogue_id": "d1", "turn_index": 1, "speaker": "agent",
     "src_text": "Wie kann ich helfen?", "tgt_text": "How can I help?",
     "src_lang": "de", "tgt_lang": "en"},
    {"dialogue_id": "d2", "turn_index": 0, "speaker": "customer",
     "src_text": "Guten Morgen", "tgt_text": "Good morning",
     "src_lang": "de", "tgt_lang": "en"},
]


def _lines(*lines) -> bytes:
    """A file of lines: a record as its JSON, a string as it is."""
    return "".join((line if isinstance(line, str) else json.dumps(line)) + "\n"
                   for line in lines).encode()


# A pipeline config whose paths name PIPELINE_FILES and its outputs.
PIPELINE = {
    "seed": 11,
    "filter": {"input": "bitext.tsv", "output": "filtered.tsv"},
    "chatprep": {"input": "chat.jsonl", "output": "prepped.tsv",
                 "n_prev": 2, "mode": "same", "speaker_tags": True},
    "denoise": {"output": "noised.tsv", "pair_fraction": 0.5, "token_prob": 0.5},
}
# The files of a pipeline run in its working directory.
PIPELINE_FILES = {"bitext.tsv": MICRO_TSV, "chat.jsonl": _lines(*CHAT_LINES),
                  "pipeline.json": json.dumps(PIPELINE).encode()}


def _rows(*lines):
    """Row i of an input: lines[i % len(lines)]."""
    return lambda i: lines[i % len(lines)]


def _turns(*ends):
    """Row i of a chat input: turn i of one dialogue, ended by ends[i % len(ends)]."""
    return lambda i: json.dumps({**CHAT_LINES[0], "turn_index": i}).encode() + ends[i % len(ends)]


# A row of CASES: a command line, its input files (name: bytes), the
# stderr line or its prefix (None: the oracle's run, from
# conftest.oracle_outputs), the input line the data error names (README;
# None where the run exits 0 or reads a scores file, whose errors name no
# line), and a sweep of flags to values: the row is one test case for
# each combination.
def _stage(command, data, line, *flags, src="in.jsonl", out="out.jsonl", sweep=None):
    return [command, "--in", src, "--out", out, *flags], {src: data}, None, line, sweep


def _scores(scores, message, size="1"):
    data = scores.encode() if isinstance(scores, str) else json.dumps(scores).encode()
    argv = ["bsce-select", "--scores", "scores.json", "--ensemble-size", size, "--out", "sel.json"]
    return argv, {"scores.json": data}, "data error: bad scores file: " + message, None, None


def _refused(argv, files, message):
    """A row the CLI refuses, with message as the first stderr line."""
    return argv, files, message + "\n", None, None


def _edit(**sections):
    """PIPELINE with keys set in the named stages' sections."""
    return {**PIPELINE, **{stage: {**PIPELINE[stage], **values}
                           for stage, values in sections.items()}}


def _pipeline(config, message, *flags, files=None):
    """A row running the pipeline config (an object, or its JSON text) on
    PIPELINE_FILES, with files added or replaced."""
    text = config if isinstance(config, str) else json.dumps(config)
    return _refused(["pipeline", "pipeline.json", *flags],
                    {**PIPELINE_FILES, "pipeline.json": text.encode(), **(files or {})}, message)


AB = {"source": "a", "target": "b"}
GOOD_SCORES = {"models": ["a", "b", "c"], "comet": [0.1, 0.2, 0.3],
               "pairwise": [[0, 0.5, 0.6], [0.5, 0, 0.7], [0.6, 0.7, 0]]}
BAD_TARGET = "a <context begins> b <context begins> c"
# Lines 2 and 3 hold targets denoise cannot split; which of them a seed
# chose used to decide the exit code.
UNSPLITTABLE_TSV = ("s1\t<agent> hallo\n"
                    "s2\t<agent> <context begins> x\n"
                    "s3\t<customer> a <context begins> b <context begins> c\n"
                    "s4\td e\n")
_TAB = {"source": "x\ty", "target": "z"}
# A chat corpus whose turn on line 2, the first pair chatprep hands to
# denoise, has a tab in its target: chatprep can write it as JSONL, denoise
# not as TSV.
TAB_CHAT = _lines(CHAT_LINES[1], {**CHAT_LINES[0], "tgt_text": "Hel\tlo"}, CHAT_LINES[2])
TAB_CHAT_ERROR = ("data error: line 2: tab, newline or carriage return in text "
                  "'<customer> Hel\\tlo' cannot be written as TSV")
# A chat corpus whose texts TSV and JSONL must carry unchanged: JSON
# escapes, characters str.splitlines splits on, spaces that are not single,
# text outside the BMP; its dialogues interleave, and its file has blank
# lines and a CRLF line end.
_AWKWARD_TEXTS = [("Grüße, \"Kunde\" \\ C:\\pfad", "Hi  there,\u2028\"customer\" \\ C:\\path"),
                  ("Wie\x85geht's?\x0b\x0c", " How\x1cis it going? "),
                  ("こんにちは 👋", "e\u0301 \xa0hello\u3000world"),
                  ("Danke\x1d\x1e schön", "Thanks\x00 a lot  ")]
AWKWARD_CHAT = b"\n".join([
    b"", *(json.dumps({"dialogue_id": f"d{i % 2}", "turn_index": i // 2,
                       "speaker": ("customer", "agent")[i // 2 % 2], "src_text": src,
                       "tgt_text": tgt, "src_lang": "de", "tgt_lang": "en"}).encode()
           + (b"\r" if i == 2 else b"") for i, (src, tgt) in enumerate(_AWKWARD_TEXTS * 2)),
    b"  ", b""])
_LONG_INT = "1" * 5000  # past int()'s default limit of 4300 digits
_BIG = 1.7976931348623157e308
TWO_SCORES = json.dumps({"models": ["a", "b"], "comet": [0.1, 0.2],
                         "pairwise": [[0, 0.5], [0.5, 0]]}).encode()
_NO_INPUT = "input path does not exist"
_NO_OUTPUT = "output must be a file in an existing directory"
# The pipeline's outputs and report, there before it runs.
OLD_OUTPUTS = sentinels(["filtered.tsv", "prepped.tsv", "noised.tsv", "report.json"])

# The CLI's data, config and usage errors, one row each: a new one goes in
# as a row.
CASES = {
    "filter-no-tab": _stage("filter", b"no tab here\n", 1, src="in.tsv", out="o.tsv"),
    **{f"denoise-{name}": _stage("denoise", _lines(
        {"source": "s", "target": "a b c", "target_payload_span": [0, 3]}, bad), 2)
       for name, bad in [
           ("no-target", '{"source": "s"}'),
           ("not-object", "[1, 2]"),
           ("span-str", '{"source": "s", "target": "a b c", "target_payload_span": ["x", 2]}'),
           ("span-bool", '{"source": "s", "target": "a b c", "target_payload_span": [true, 2]}'),
           ("span-past-end", '{"source": "s", "target": "a b c", "target_payload_span": [1, 4]}'),
           ("bad-origin", '{"source": "s", "target": "a b c", "origin": "weird"}'),
           ("source-not-a-string", '{"source": 1, "target": "a b c"}')]},
    # Invalid UTF-8 on line n, inside and past the first read buffer; then
    # a malformed line n - 1 before it, which is the one named.
    **{f"{name}-invalid-utf8-line{n}": _stage(
        command, b"".join(map(row, range(n - 1))) + b"\xff\xfe" + row(n - 1), n,
        src=f"in.{fmt}", out="out.tsv")
       for name, command, fmt, row in [
           ("filter-tsv", "filter", "tsv", _rows(b"a\tb\n")),
           ("filter-jsonl", "filter", "jsonl", _rows(b'{"source": "a", "target": "b"}\n')),
           ("denoise-tsv", "denoise", "tsv", _rows(b"a\tb\n")),
           ("chatprep-jsonl", "chatprep", "jsonl", _turns(b"\n")),
           # The reader also ends a line at a lone CR, and at CRLF once.
           ("filter-tsv-cr", "filter", "tsv", _rows(b"a\tb\r")),
           ("filter-tsv-crlf-cr", "filter", "tsv", _rows(b"a\tb\r\n", b"c\td\r")),
           ("chatprep-jsonl-crlf-cr", "chatprep", "jsonl", _turns(b"\r\n", b"\r"))]
       for n in (3, 5000)},
    **{f"{command}-faulty-line-before-invalid-utf8-line{n}": _stage(
        command, b"".join(map(row, range(n - 2))) + b"not a record\n\xff\xfe" + row(n - 1), n - 1,
        src=f"in.{fmt}", out="out.tsv")
       for command, fmt, row in [("filter", "tsv", _rows(b"a\tb\n")),
                                 ("denoise", "tsv", _rows(b"a\tb\r\n", b"c\td\r")),
                                 ("chatprep", "jsonl", _turns(b"\n"))]
       for n in (3, 5000)},
    **{f"chatprep-{field}-{type(value).__name__}": _stage(
        "chatprep", _lines(CHAT_LINES[0], {**CHAT_LINES[0], "turn_index": 1, field: value}), 2,
        out="out.tsv")
       for field, value in [("dialogue_id", 1), ("src_text", 5), ("tgt_text", None),
                            ("src_lang", 1), ("tgt_lang", ["en"]),
                            # beside a genuine turn 0, it would pass as turn 1
                            ("turn_index", True)]},
    **{f"bsce-{name}": _scores(scores, message) for name, scores, message in [
        ("malformed", '{"models": ["a", "b"], "comet": [0.1,',
         "Expecting value: line 1 column 38 (char 37)\n"),
        ("non-numeric", {**GOOD_SCORES, "comet": [0.1, "x", 0.3]},
         "scores must be numbers, got a str\n"),
        ("bool", {**GOOD_SCORES, "comet": [0.1, True, 0.3]},
         "scores must be numbers, got a bool\n"),
        ("nan", '{"models": ["a", "b"], "comet": [0.1, NaN], "pairwise": [[0, 1], [1, 0]]}',
         "all scores must be finite\n"),
        ("duplicate-ids", {**GOOD_SCORES, "models": ["a", "b", "a"]}, "model ids must be unique\n"),
        # json would keep only a repeated key's last value.
        ("repeated-key", json.dumps(GOOD_SCORES)[:-1] + ', "models": ["x", "y"]}',
         "duplicate key 'models'\n"),
        ("repeated-nested-key", json.dumps({**GOOD_SCORES, "comet": [0.1, {"a": 1}, 0.3]})
         .replace('{"a": 1}', '{"a": 1, "a": 2}'), "duplicate key 'a'\n"),
        ("non-string-id", {**GOOD_SCORES, "models": ["a", 2, "c"]}, "model ids must be strings\n"),
        ("shape", {**GOOD_SCORES, "pairwise": [[0, 0.5], [0.5, 0], [0.6, 0.7]]},
         "pairwise must be 3x3\n"),
        ("one-model", {"models": ["a"], "comet": [0.1], "pairwise": [[0]]},
         "need at least 2 candidate models\n"),
        # The interpreter words the recursion error.
        ("deep", "[" * 100_000 + "]" * 100_000, ""),
        ("short-comet", {**GOOD_SCORES, "comet": [0.1, 0.2]},
         "comet length must match model count\n"),
        *[(f"models-{type(models).__name__}", {"models": models, "comet": [0.1, 0.2],
                                               "pairwise": [[0, 1], [1, 0]]},
           "models must be a list of model ids\n") for models in ("ab", {"a": 1, "b": 2})],
        # Whether the model holding a lone surrogate is selected or not,
        # the file is refused before selecting.
        *[(f"surrogate-id-{name}", '{"models": ["a\\ud800", "b"], "comet": %s, '
           '"pairwise": [[0, 1], [1, 0]]}' % comet, "model id 'a\\ud800' is not valid Unicode\n")
          for name, comet in [("selected", [0.3, 0.2]), ("not-selected", [0.2, 0.3])]]]},
    # Finite scores whose weighted scores are 0, 4M and 2M: b's is the first
    # that no float holds.
    "bsce-weighted-score-beyond-float-range": _scores(
        {"models": ["a", "b", "c"], "comet": [0, 1, 0.5],
         "pairwise": [[0, _BIG, _BIG], [-_BIG, 0, -_BIG], [0, 0, 0]]},
        "the weighted score of model 'b' is beyond float range\n", size="2"),
    "filter-lone-surrogate": _stage(
        "filter", _lines(AB, '{"source": "a \\ud800", "target": "b"}'), 2),
    "denoise-lone-surrogate": _stage(
        "denoise", _lines(AB, '{"source": "a", "target": "\\uDFFF b"}'), 2),
    "chatprep-lone-surrogate": _stage(
        "chatprep", _lines(CHAT_LINES[0], {**CHAT_LINES[1], "tgt_text": "x \udfff"}), 2),
    # The reader splits lines on \r, so a TSV holding one would not read back.
    "filter-carriage-return-to-tsv": _stage("filter", _lines({"source": "a\rb", "target": "c"}), 1,
                                            out="out.tsv"),
    "filter-carriage-return-to-jsonl": _stage("filter", _lines({"source": "a\rb", "target": "c"}),
                                              None),
    # A kept pair is the first input pair with its normalized sides.
    **{f"filter-tsv-cannot-hold-{name}": _stage("filter", _lines(*lines), n, *flags, out="out.tsv")
       for name, lines, flags, n in [
           ("plain", [AB, _TAB], [], 2),
           ("blank-line-before", [AB, "", _TAB], [], 3),
           ("whitespace-line-before", [AB, " \t ", _TAB], [], 3),
           ("skipped-line-before", ["not json", AB, _TAB], ["--fail-mode", "skip_and_count"], 3),
           ("first-of-its-normal-form", [{"source": "a", "target": "b c d e f"},
                                         {"source": "x\ty\u00a0", "target": "z"}, _TAB], [], 2)]},
    "denoise-bad-target-tsv": _stage("denoise", _lines("s\ta b", f"s\t{BAD_TARGET}", "s\tc d"), 2,
                                     "--pair-fraction", "1", src="in.tsv", out="out.tsv"),
    "denoise-bad-target-jsonl-blank": _stage(
        "denoise", _lines({"source": "s", "target": "a b"}, "",
                          {"source": "s", "target": BAD_TARGET}), 3, "--pair-fraction", "1"),
    "denoise-bad-target-jsonl-blanks": _stage(
        "denoise", _lines("", {"source": "s", "target": "a b"}, "", "",
                          {"source": "s", "target": BAD_TARGET}, ""), 5, "--pair-fraction", "1"),
    "denoise-first-unsplittable-target": _stage(
        "denoise", UNSPLITTABLE_TSV.encode(), 2, src="in.tsv", out="out.tsv",
        sweep={"--seed": range(16), "--pair-fraction": (0, 0.5, 1)}),
    **{f"chatprep-blank-{field}-{name}": _stage(
        "chatprep", _lines(CHAT_LINES[0], {**CHAT_LINES[0], "turn_index": 1, field: blank}), 2,
        "--speaker-tags", "off", "--n-prev", "0", out="out.tsv")
       for field in ("src_text", "tgt_text")
       for name, blank in [("empty", ""), ("spaces", "  "), ("tab", "\t")]},
    # Pairs are written by dialogue: d1's turns 0 and 1 (lines 1 and 3),
    # then d2's turn 0 (line 2), which has no context.
    "chatprep-tsv-cannot-hold-src-tab": _stage(
        "chatprep", _lines(CHAT_LINES[0], CHAT_LINES[2], {**CHAT_LINES[1], "src_text": "a\tb"}), 3,
        out="out.tsv"),
    "chatprep-tsv-cannot-hold-tgt-cr": _stage(
        "chatprep", _lines(CHAT_LINES[0], {**CHAT_LINES[2], "tgt_text": "c\rd"}, CHAT_LINES[1]), 2,
        out="out.tsv"),
    "chatprep-reserved-tag": _stage(
        "chatprep", _lines(CHAT_LINES[0], {**CHAT_LINES[1], "tgt_text": "a <SEP> b"}), 2,
        out="out.tsv"),
    "denoise-tsv-cannot-hold-target-cr": _stage(
        "denoise", _lines({"source": "s1", "target": "a b"}, {"source": "s2", "target": "c\rd e"}),
        2, "--pair-fraction", "1.0", "--token-prob", "0.15", out="x.tsv"),
    # At token prob 1 every target is noised: the rebuilt pair keeps its line.
    "denoise-tsv-cannot-hold-source-tab-after-blank": _stage(
        "denoise", _lines({"source": "s1", "target": "a b"}, "",
                          {"source": "s\t2", "target": "c d"}, {"source": "s3", "target": "e f"}),
        3, "--pair-fraction", "1.0",
        out="x.tsv", sweep={"--token-prob": (0.15, 1)}),
    # Chat and bitext JSONL word a line alike.
    **{f"chatprep-{name}": _stage("chatprep", _lines(CHAT_LINES[0], line), 2, out="out.tsv")
       for name, line in [("array", "[1, 2]"), ("string", '"text"'),
                          ("missing-speaker",
                           {k: v for k, v in CHAT_LINES[1].items() if k != "speaker"})]},
    # Only JSON whitespace may surround a chat line's value, as a bitext line's.
    "chatprep-turn-led-by-no-break-space": (
        ["chatprep", "--in", "in.jsonl", "--out", "out.tsv"],
        {"in.jsonl": "\u00a0".encode() + _lines(CHAT_LINES[0])},
        "data error: line 1: invalid JSON: Expecting value: line 1 column 1 (char 0)\n", 1, None),
    **{f"{command}-overlong-integer": _stage(command, _lines(
        AB, '{"source": "a", "target": "b", "n": %s}' % _LONG_INT), 2)
       for command in ("filter", "denoise")},
    "chatprep-overlong-integer": _stage("chatprep", _lines(
        CHAT_LINES[0], json.dumps(CHAT_LINES[1])[:-1] + ', "n": %s}' % _LONG_INT), 2),
    # Usage and config errors.
    "unknown-flag": _refused(
        ["filter", "--no-such-flag"], {},
        "error: chatmt filter: the following arguments are required: --in, --out"),
    "missing-subcommand": _refused(
        [], {}, "error: chatmt: the following arguments are required: command"),
    "filter-missing-input": _refused(["filter", "--in", "nope.tsv", "--out", "o.tsv"], {},
                                     "error: input path does not exist: 'nope.tsv'"),
    # A value outside its config field's range is refused by the config
    # dataclass, with the field's name, and not by the flag.
    **{f"{command}-{flag[2:]}-{value}": _refused(
        [command, "--in", "in.txt", "--out", "out.tsv", flag, value],
        {"in.txt": PIPELINE_FILES["chat.jsonl" if command == "chatprep" else "bitext.tsv"]},
        f"config error: {message}")
       for command, flag, value, message in [
           ("denoise", "--pair-fraction", "1.5", "pair_fraction must be in [0, 1]"),
           ("denoise", "--token-prob", "-0.1", "token_prob must be in [0, 1]"),
           ("denoise", "--seed", "-1", "seed must fit in 64 unsigned bits"),
           ("denoise", "--seed", str(2**64), "seed must fit in 64 unsigned bits"),
           ("chatprep", "--n-prev", "4", "n_prev must be in 0..3"),
           ("chatprep", "--n-prev", "-1", "n_prev must be in 0..3")]},
    **{f"bsce-ensemble-size-{size}": _refused(
        ["bsce-select", "--scores", "scores.json", "--ensemble-size", str(size),
         "--out", "sel.json"],
        {"scores.json": TWO_SCORES}, f"config error: ensemble size {size} out of range 1..2")
       for size in (0, 3)},
    # EnsembleConfig.ensemble_size has no default, so its flag is required.
    "bsce-ensemble-size-missing": _refused(
        ["bsce-select", "--scores", "scores.json"], {"scores.json": TWO_SCORES},
        "error: chatmt bsce-select: the following arguments are required: --ensemble-size"),
    **{f"filter-max-ratio-{ratio}": _refused(
        ["filter", "--in", "in.tsv", "--out", "out.tsv", f"--max-ratio={ratio}"],
        {"in.tsv": b"one\ta b c d e f g h\n"},
        f"config error: max_ratio must be finite and >= 1, got {float(ratio)!r}")
       for ratio in ("nan", "inf", "-inf")},
    "pipeline-missing-inputs": _pipeline(
        _edit(filter={"input": "missing.tsv"}, chatprep={"input": "missing.jsonl"}),
        "error: input path does not exist: 'missing.tsv'"),
    **{f"pipeline-{name}": _pipeline(config, message) for name, config, message in [
        ("misspelled-key", _edit(filter={"max_wrods": 50}),
         "error: pipeline config: unknown key 'max_wrods' in filter"),
        ("unknown-fail-mode", _edit(filter={"fail_mode": "bogus"}), "config error: "
         "fail_mode must be one of fail_fast, skip_and_count, got 'bogus'"),
        # fail_mode is filter's option, not the pipeline's.
        ("top-level-fail-mode", {**PIPELINE, "fail_mode": "skip_and_count"},
         "error: pipeline config: unknown key 'fail_mode' in the top level"),
        ("unknown-section", {**PIPELINE, "stages": []},
         "error: pipeline config: unknown key 'stages' in the top level"),
        # bsce-select is a command, not a pipeline stage.
        ("bsce-select-section", {**PIPELINE, "bsce-select": {"ensemble_size": 2}},
         "error: pipeline config: unknown key 'bsce-select' in the top level"),
        ("section-not-an-object", {**PIPELINE, "chatprep": []},
         "error: pipeline config: chatprep must be a JSON object"),
        ("speaker-tags-yes", _edit(chatprep={"speaker_tags": "yes"}),
         "config error: speaker_tags must be a boolean, got 'yes'"),
        ("top-level-array", "[]", "error: pipeline config: the top level must be a JSON object"),
        ("deeply-nested", "[" * 100_000, "config error: pipeline config: JSON nested too deeply"),
        *[(f"{stage}-{key}-{type(value).__name__}", _edit(**{stage: {key: value}}),
           f"config error: {key} must be {kind}, got {value!r}")
          for stage, key, value, kind in [("filter", "max_words", "100", "an integer"),
                                          ("filter", "max_word_chars", 40.0, "an integer"),
                                          ("filter", "max_ratio", True, "a number"),
                                          ("filter", "fail_mode", 1, "a string"),
                                          ("chatprep", "n_prev", "2", "an integer"),
                                          ("chatprep", "mode", 1, "a string"),
                                          ("denoise", "seed", 1.5, "an integer"),
                                          ("denoise", "token_prob", "0.15", "a number")]],
        *[(f"{stage}-{key}-not-a-string", _edit(**{stage: {key: value}}),
           f"error: pipeline config: {stage}.{key} must be a string")
          for stage, key, value in [("filter", "output", ["o"]), ("chatprep", "input", 5)]],
        # json would keep only a repeated key's last value.
        ("repeated-section", json.dumps(PIPELINE)[:-1] + ', "filter": {"input": "bitext.tsv", '
         '"output": "f2.tsv"}}', "error: pipeline config: duplicate key 'filter' in the top level"),
        ("repeated-option", json.dumps(PIPELINE).replace(
            '"n_prev": 2', '"n_prev": 2, "n_prev": 3'),
         "error: pipeline config: duplicate key 'n_prev' in chatprep"),
        ("denoise-output-in-a-missing-directory", _edit(denoise={"output": "missing/n.tsv"}),
         "error: output must be a file in an existing directory: 'missing/n.tsv'")]},
    # A stage file's format is its suffix's; filter's unreadable input
    # would show that a stage ran.
    **{f"pipeline-{stage}-format": _pipeline(
        _edit(**{stage: {"format": "jsonl"}}),
        f"error: pipeline config: unknown key 'format' in {stage}",
        files={"bitext.tsv": b"not a record\n"})
       for stage in ("filter", "chatprep", "denoise")},
    # A pair chatprep hands to denoise names its chat line: the turn on line
    # 2 is the first pair, the first line of chatprep's output.
    "pipeline-handed-pair-names-its-chat-line": _pipeline(
        _edit(chatprep={"output": "p.jsonl"}, denoise={"output": "n.tsv"}), TAB_CHAT_ERROR,
        files={"chat.jsonl": TAB_CHAT}),
    # A data error would show that the bad input was read.
    **{f"{name}-output-in-a-missing-directory": _refused(
        argv, {"bad.jsonl": b"not a record\n"},
        f"error: output must be a file in an existing directory: {argv[-1]!r}")
       for name, argv in [
           ("filter", ["filter", "--in", "bad.jsonl", "--out", "missing/x.tsv"]),
           ("chatprep", ["chatprep", "--in", "bad.jsonl", "--out", "missing/x.tsv"]),
           ("denoise", ["denoise", "--in", "bad.jsonl", "--out", "missing/x.tsv"]),
           ("bsce-select", ["bsce-select", "--scores", "bad.jsonl", "--ensemble-size", "1",
                            "--out", "missing/x.json"]),
           ("report", ["filter", "--in", "bad.jsonl", "--out", "o.tsv",
                       "--report", "missing/r.json"])]},
    **{f"output-through-a-symlink-{name}": _refused(
        ["filter", "--in", "bad.jsonl", "--out", "link.tsv"],
        {"bad.jsonl": b"not a record\n", "link.tsv": target}, f"error: {message}: 'link.tsv'")
       for name, target, message in [
           ("into-a-missing-directory", "missing/new.tsv",
            "output must be a file in an existing directory"),
           ("loop", "link.tsv", "output exists and is not a regular file")]},
    **{f"{argv[0]}-output-{fifo}-is-a-fifo": _refused(
        argv, {**PIPELINE_FILES, "scores.json": TWO_SCORES, fifo: FIFO},
        f"error: output exists and is not a regular file: {fifo!r}")
       for fifo, argv in [
           ("out.tsv", ["filter", "--in", "bitext.tsv", "--out", "out.tsv"]),
           ("out.tsv", ["chatprep", "--in", "chat.jsonl", "--out", "out.tsv"]),
           ("out.tsv", ["denoise", "--in", "bitext.tsv", "--out", "out.tsv"]),
           ("out.json", ["bsce-select", "--scores", "scores.json", "--ensemble-size", "1",
                         "--out", "out.json"]),
           ("report.json", ["filter", "--in", "bitext.tsv", "--out", "o.tsv",
                            "--report", "report.json"]),
           ("filtered.tsv", ["pipeline", "pipeline.json"]),
           ("prepped.tsv", ["pipeline", "pipeline.json"]),
           ("noised.tsv", ["pipeline", "pipeline.json"]),
           ("report.json", ["pipeline", "pipeline.json", "--report", "report.json"])]},
    # The report, written last, would replace a file the command reads or writes.
    **{f"report-{argv[0]}-{clash}": _refused(
        [*argv, "--report", clash],
        {**PIPELINE_FILES, "out.tsv": b"keep me\n", "scores.json": TWO_SCORES},
        f"error: --report {clash!r} is the same file as {clash!r} ({name})")
       for argv, clash, name in [
           (["filter", "--in", "bitext.tsv", "--out", "out.tsv"], "out.tsv", "--out"),
           (["filter", "--in", "bitext.tsv", "--out", "out.tsv"], "bitext.tsv", "--in"),
           (["chatprep", "--in", "chat.jsonl", "--out", "out.tsv"], "out.tsv", "--out"),
           (["chatprep", "--in", "chat.jsonl", "--out", "out.tsv"], "chat.jsonl", "--in"),
           (["denoise", "--in", "bitext.tsv", "--out", "out.tsv"], "out.tsv", "--out"),
           (["denoise", "--in", "bitext.tsv", "--out", "out.tsv"], "bitext.tsv", "--in"),
           (["bsce-select", "--scores", "scores.json", "--ensemble-size", "1",
             "--out", "sel.json"], "sel.json", "--out"),
           (["bsce-select", "--scores", "scores.json", "--ensemble-size", "1"], "scores.json",
            "--scores"),
           (["pipeline", "pipeline.json"], "pipeline.json", "config"),
           (["pipeline", "pipeline.json"], "bitext.tsv", "filter.input"),
           (["pipeline", "pipeline.json"], "chat.jsonl", "chatprep.input"),
           (["pipeline", "pipeline.json"], "filtered.tsv", "filter.output"),
           (["pipeline", "pipeline.json"], "prepped.tsv", "chatprep.output"),
           (["pipeline", "pipeline.json"], "noised.tsv", "denoise.output")]},
    "report-through-a-symlink-to-the-input": _refused(
        ["filter", "--in", "in.tsv", "--out", "out.tsv", "--report", "link.json"],
        {"in.tsv": MICRO_TSV, "link.json": "in.tsv"},
        "error: --report 'link.json' is the same file as 'in.tsv' (--in)"),
    # A turn gap in chat.jsonl: without the check, chatprep would fail after
    # filter wrote.
    **{f"pipeline-{name}": _pipeline(
        _edit(**{stage: {key: path}}), f"error: {clash} is the same file as {path!r} ({other})",
        files={"chat.jsonl": PIPELINE_FILES["chat.jsonl"]
               + _lines({**CHAT_LINES[2], "turn_index": 5})})
       for name, stage, key, path, clash, other in [
           ("filter-in-place", "filter", "output", "bitext.tsv", "filter.output 'bitext.tsv'",
            "filter.input"),
           ("filter-over-chat", "filter", "output", "chat.jsonl", "filter.output 'chat.jsonl'",
            "chatprep.input"),
           ("chatprep-over-filter", "chatprep", "output", "filtered.tsv",
            "chatprep.output 'filtered.tsv'", "filter.output"),
           ("denoise-over-chatprep", "denoise", "output", "prepped.tsv",
            "denoise.output 'prepped.tsv'", "chatprep.output")]},
    **{f"{argv[0]}-input-is-a-directory": _refused(
        argv, {"in.d": DIRECTORY}, "error: input path is a directory: 'in.d'") for argv in [
        ["filter", "--in", "in.d", "--out", "o.tsv"],
        ["chatprep", "--in", "in.d", "--out", "o.tsv"],
        ["denoise", "--in", "in.d", "--out", "o.tsv"],
        ["bsce-select", "--scores", "in.d", "--ensemble-size", "1", "--out", "o.json"],
        ["pipeline", "in.d"]]},
    # denoise takes the pairs chatprep wrote, so an input is refused, even
    # chatprep's output, before any stage runs: chatprep's input (line 2)
    # would exit 2, and every output and the report exist already.
    "pipeline-denoise-input": _pipeline(
        _edit(denoise={"input": "prepped.tsv"}),
        "error: pipeline config: unknown key 'input' in denoise", "--report", "report.json",
        files={**OLD_OUTPUTS, "chat.jsonl": _lines(CHAT_LINES[0], "not json")}),
    # An empty path is refused like any other, before anything is read.
    **{f"empty-{name}": _refused(argv, {**PIPELINE_FILES, "scores.json": TWO_SCORES},
                                 f"error: {message}: ''")
       for name, argv, message in [
           ("filter-in", ["filter", "--in", "", "--out", "out.tsv"], _NO_INPUT),
           ("filter-out", ["filter", "--in", "bitext.tsv", "--out", ""], _NO_OUTPUT),
           ("chatprep-in", ["chatprep", "--in", "", "--out", "out.tsv"], _NO_INPUT),
           ("chatprep-out", ["chatprep", "--in", "chat.jsonl", "--out", ""], _NO_OUTPUT),
           ("denoise-in", ["denoise", "--in", "", "--out", "out.tsv"], _NO_INPUT),
           ("denoise-out", ["denoise", "--in", "bitext.tsv", "--out", ""], _NO_OUTPUT),
           ("bsce-select-scores", ["bsce-select", "--scores", "", "--ensemble-size", "1"],
            _NO_INPUT),
           ("bsce-select-out", ["bsce-select", "--scores", "scores.json", "--ensemble-size", "1",
                                "--out", ""], _NO_OUTPUT),
           ("report", ["filter", "--in", "bitext.tsv", "--out", "out.tsv", "--report", ""],
            _NO_OUTPUT),
           ("pipeline", ["pipeline", ""], _NO_INPUT)]},
    **{f"pipeline-{stage}-input-is-a-directory": _pipeline(
        _edit(**{stage: {"input": "in.d"}}), "error: input path is a directory: 'in.d'",
        "--report", "report.json",
        files={**OLD_OUTPUTS, "in.d": DIRECTORY, "bitext.tsv": MICRO_TSV + b"no tab\n"})
       for stage in ("filter", "chatprep")},
}


def _sweep(cases):
    """Each row of cases once per combination of its sweep's values."""
    for name, (argv, files, expect, line, sweep) in cases.items():
        sweep = sweep or {}
        for values in itertools.product(*sweep.values()):
            pairs = list(zip(sweep, map(str, values)))
            yield pytest.param(argv + [text for pair in pairs for text in pair], files, expect,
                               line, id="-".join([name, *(f"{f[2:]}={v}" for f, v in pairs)]))


# The exit code, by the error line's prefix.
_EXIT_CODES = {"data error": 2, "config error": 1, "error": 1}
_PARSER = _build_parser()


def _usage(argv):
    """The usage printed after an `error:` line: the row's subcommand's,
    or the top-level one for a command line without a subcommand."""
    return _PARSER.commands.get(argv[0] if argv else None, _PARSER).format_usage()


@pytest.mark.parametrize("argv, files, expect, line", _sweep(CASES))
def test_cli_case(argv, files, expect, line):
    """The row's exit code, stderr and output bytes, each run through
    conftest.run_in: a failed run changes no file."""
    if expect is None:
        code, err = run_in(files, argv, {argv[argv.index("--out") + 1]}, oracle_outputs(argv))
        assert code == 0 or line is not None, err
    else:
        code, err = run_in(files, argv, set())
        first, _, rest = err.partition("\n")
        prefix = first.split(":")[0]
        assert err.startswith(expect) and (code, rest) == \
            (_EXIT_CODES[prefix], _usage(argv) if prefix == "error" else ""), err
    if line is not None:
        assert err.startswith(f"data error: line {line}: "), err


def test_version():
    assert run(["--version"]) == 0


def test_filter_micro_corpus(tmp_path):
    src = tmp_path / "in.tsv"
    out = tmp_path / "out.tsv"
    report = tmp_path / "report.json"
    write_micro_corpus(src)
    code = run(["filter", "--in", str(src), "--out", str(out),
                "--report", str(report)])
    assert code == 0
    rep = json.loads(report.read_text())
    assert rep["kept_count"] == 7
    assert rep["dropped_by_rule"] == {"length": 1, "dedup": 1, "ratio": 1}
    assert len(out.read_text().splitlines()) == 7


# empty_side has no case here: the bitext readers refuse a blank side, and
# normalization never blanks a side that is not blank already.
@pytest.mark.parametrize("line, reason", [
    (" ".join(["w"] * 101) + "\tok", "sentence_too_long"),
    ("ok\t" + "x" * 41, "word_too_long"),
    ("one\ta b c d e", "ratio"),
])
def test_filter_reports_drop_sub_reason(tmp_path, line, reason):
    src = tmp_path / "in.tsv"
    src.write_text(f"kept pair\tbehalten\n{line}\n", encoding="utf-8")
    report = tmp_path / "report.json"
    assert run(["filter", "--in", str(src), "--out", str(tmp_path / "o.tsv"),
                "--report", str(report)]) == 0
    rep = json.loads(report.read_text())
    want = {"sentence_too_long": 0, "word_too_long": 0, "empty_side": 0, "ratio": 0}
    assert rep["dropped_by_reason"] == {**want, reason: 1}
    assert rep["dropped_by_rule"]["length"] + rep["dropped_by_rule"]["ratio"] == 1


def test_filter_skip_mode(tmp_path):
    src = tmp_path / "in.tsv"
    src.write_text("a\tb\nbroken\nc\td\n", encoding="utf-8")
    report = tmp_path / "r.json"
    code = run(["filter", "--in", str(src), "--out", str(tmp_path / "o.tsv"),
                "--fail-mode", "skip_and_count", "--report", str(report)])
    assert code == 0
    assert json.loads(report.read_text())["parse_skipped"] == 1


def test_filter_skip_mode_skips_a_line_that_is_not_utf8(tmp_path):
    src, out, report = tmp_path / "in.tsv", tmp_path / "o.tsv", tmp_path / "r.json"
    src.write_bytes(b"a b\tc d\n\xff bad\tx\ne f\tg h\n")
    assert run(["filter", "--in", str(src), "--out", str(out),
                "--fail-mode", "skip_and_count", "--report", str(report)]) == 0
    assert json.loads(report.read_text())["parse_skipped"] == 1
    assert out.read_text(encoding="utf-8") == "a b\tc d\ne f\tg h\n"


def test_chatprep_outputs_context_lines(tmp_path):
    chat = tmp_path / "chat.jsonl"
    out = tmp_path / "out.tsv"
    chat.write_bytes(PIPELINE_FILES["chat.jsonl"])
    code = run(["chatprep", "--in", str(chat), "--out", str(out),
                "--n-prev", "1"])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "<customer> Hallo\t<customer> Hello"
    assert lines[1] == (
        "<agent> Wie kann ich helfen? <context begins> Hallo\t"
        "<agent> How can I help? <context begins> Hello"
    )
    assert lines[2] == "<customer> Guten Morgen\t<customer> Good morning"


def test_denoise_deterministic(tmp_path):
    src = tmp_path / "in.tsv"
    lines = [f"src {i}\t" + " ".join(f"w{i}_{j}" for j in range(8)) + "\n"
             for i in range(100)]
    src.write_text("".join(lines), encoding="utf-8")
    outs = []
    for name in ("a.tsv", "b.tsv", "c.tsv"):
        out = tmp_path / name
        assert run(["denoise", "--in", str(src), "--out", str(out), "--seed", "7"]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1] == outs[2]
    assert outs[0] != src.read_bytes()


def test_denoise_jsonl_span_passthrough(tmp_path):
    src = tmp_path / "in.jsonl"
    rec = {"source": "s", "target": "keep a b c d e keep2",
           "target_payload_span": [1, 6]}
    src.write_text(json.dumps(rec) + "\n", encoding="utf-8")
    out = tmp_path / "out.jsonl"
    assert run(["denoise", "--in", str(src), "--out", str(out),
                "--seed", "3", "--pair-fraction", "1.0", "--token-prob", "1.0"]) == 0
    obj = json.loads(out.read_text())
    tokens = obj["target"].split(" ")
    assert tokens[0] == "keep" and tokens[-1] == "keep2"
    assert obj["target_payload_span"] == [1, 6]


# Spans the reader accepts whose prefix or suffix tokens join ambiguously:
# an empty payload between two tokens, and a payload after an empty token.
@pytest.mark.parametrize("first, kept", [
    ({"source": "s", "target": "a b", "target_payload_span": [1, 1]}, "a b"),
    ({"source": "s", "target": " x", "target_payload_span": [1, 2]}, " x"),
], ids=["empty-payload", "after-empty-token"])
@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_denoise_in_range_span_succeeds_for_every_seed(tmp_path, first, kept, seed):
    src = tmp_path / "in.jsonl"
    second = {"source": "s2", "target": "c d", "target_payload_span": [0, 2]}
    src.write_text(f"{json.dumps(first)}\n{json.dumps(second)}\n", encoding="utf-8")
    out = tmp_path / "out.jsonl"
    assert run(["denoise", "--in", str(src), "--out", str(out), "--seed", str(seed),
                "--pair-fraction", "0.5", "--token-prob", "1.0"]) == 0
    assert json.loads(out.read_text().splitlines()[0])["target"] == kept


def test_bsce_select(tmp_path):
    scores = tmp_path / "scores.json"
    scores.write_text(json.dumps({
        "models": ["m1", "m2", "m3"],
        "comet": [0.70, 0.80, 0.75],
        "pairwise": [[0, 1.00, 0.80], [1.00, 0, 0.90], [0.80, 0.90, 0]],
    }), encoding="utf-8")
    out = tmp_path / "sel.json"
    assert run(["bsce-select", "--scores", str(scores),
                "--ensemble-size", "2", "--out", str(out)]) == 0
    sel = json.loads(out.read_text())
    assert sel["selected"] == ["m3", "m1"]


def test_bsce_select_without_out_prints_the_selection(tmp_path, capsys):
    scores, out = tmp_path / "scores.json", tmp_path / "sel.json"
    scores.write_text(json.dumps(GOOD_SCORES), encoding="utf-8")
    argv = ["bsce-select", "--scores", str(scores), "--ensemble-size", "2"]
    assert run([*argv, "--out", str(out)]) == 0
    capsys.readouterr()
    assert run(argv) == 0
    assert capsys.readouterr().out.encode("utf-8") == out.read_bytes()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["scores.json", "sel.json"]


def test_bsce_select_prints_the_selection_to_a_text_stream(tmp_path, monkeypatch):
    """An in-process caller's stdout with no byte buffer gets the text of
    the bytes --out writes."""
    scores, out = tmp_path / "scores.json", tmp_path / "sel.json"
    scores.write_text(json.dumps({**GOOD_SCORES, "models": ["m\xe9", "b", "c"]}),
                      encoding="utf-8")
    argv = ["bsce-select", "--scores", str(scores), "--ensemble-size", "3"]
    assert run([*argv, "--out", str(out)]) == 0
    stdout = io.StringIO()
    monkeypatch.setattr(sys, "stdout", stdout)
    assert run(argv) == 0
    assert stdout.getvalue() == out.read_text(encoding="utf-8")


def _python_m_chatmt(argv, cwd=None, module="chatmt", **env):
    """`python -m chatmt` (or another module) with argv, run on this
    checkout's src; stdout and stderr are bytes."""
    src = str(Path(__file__).parent.parent / "src")
    env = {**os.environ, **env, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    # -B, so that the run writes no bytecode into the checkout.
    return subprocess.run([sys.executable, "-B", "-m", module, *argv], cwd=cwd, env=env,
                          capture_output=True)


@pytest.mark.parametrize("encoding", ["ascii", "latin-1"])
def test_bsce_select_writes_utf8_json_whatever_the_stdio_encoding(tmp_path, encoding):
    """stdout gets the bytes --out writes and stderr the report --report
    writes, as UTF-8 JSON, under a stdio encoding that cannot hold the
    model id or would write it in other bytes."""
    (tmp_path / "scores.json").write_text(
        json.dumps({**GOOD_SCORES, "models": ["m\xe9", "b", "c"]}), encoding="utf-8")
    argv = ["bsce-select", "--scores", "scores.json", "--ensemble-size", "3"]
    to_files = _python_m_chatmt([*argv, "--out", "sel.json", "--report", "r.json"],
                                cwd=tmp_path)
    assert (to_files.returncode, to_files.stderr) == (0, b"")
    printed = _python_m_chatmt(argv, cwd=tmp_path, PYTHONIOENCODING=encoding)
    assert printed.returncode == 0, printed.stderr
    assert printed.stdout == (tmp_path / "sel.json").read_bytes()
    assert "m\xe9" in printed.stdout.decode("utf-8")
    report = json.loads((tmp_path / "r.json").read_text(encoding="utf-8"))
    printed_report = json.loads(printed.stderr.decode("utf-8"))
    assert "m\xe9" in printed_report["selected"]
    assert {**printed_report, "seconds": None} == {**report, "seconds": None}


def make_pipeline_config(tmp_path):
    """PIPELINE_FILES in tmp_path, with PIPELINE naming each path in full."""
    for name, data in PIPELINE_FILES.items():
        (tmp_path / name).write_bytes(data)
    cfg = {key: {k: str(tmp_path / v) if k in ("input", "output") else v for k, v in value.items()}
           if isinstance(value, dict) else value for key, value in PIPELINE.items()}
    path = tmp_path / "pipeline.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return path, [tmp_path / n for n in ("filtered.tsv", "prepped.tsv", "noised.tsv")]


def test_pipeline_runs_and_is_deterministic(tmp_path):
    cfg_path, outputs = make_pipeline_config(tmp_path)
    report = tmp_path / "report.json"
    assert run(["pipeline", str(cfg_path), "--report", str(report)]) == 0
    first = [p.read_bytes() for p in outputs]
    assert run(["pipeline", str(cfg_path)]) == 0
    second = [p.read_bytes() for p in outputs]
    assert first == second
    rep = json.loads(report.read_text())
    assert [s["command"] for s in rep["stages"]] == ["filter", "chatprep", "denoise"]


def test_pipeline_reports_a_config_path_that_is_not_utf8(tmp_path, capsys):
    """A config path's byte that is not UTF-8 is written as its JSON escape,
    in the report file and on stderr, and reads back as the path's bytes."""
    cfg_path, _ = make_pipeline_config(tmp_path)
    config = os.fsdecode(bytes(tmp_path) + b"/cfg\xff.json")
    os.rename(cfg_path, config)
    report = tmp_path / "report.json"
    assert run(["pipeline", config, "--report", str(report)]) == 0
    assert b"\\udcff" in report.read_bytes()
    with open(report, encoding="utf-8") as fh:
        assert os.fsencode(json.load(fh)["config_path"]) == os.fsencode(config)
    capsys.readouterr()
    assert run(["pipeline", config]) == 0
    assert os.fsencode(json.loads(capsys.readouterr().err)["config_path"]) == \
        os.fsencode(config)


def test_pipeline_filter_fail_mode_does_what_the_flag_does(tmp_path):
    """filter.fail_mode in a pipeline is filter's --fail-mode: the same
    kept pairs, the same skipped lines, the same report config."""
    cfg_path, outputs = make_pipeline_config(tmp_path)
    cfg = json.loads(cfg_path.read_text())
    bitext = cfg["filter"]["input"]
    with open(bitext, "a", encoding="utf-8") as fh:
        fh.write("no tab\nlast pair\tletztes Paar\n")
    cfg["filter"]["fail_mode"] = "skip_and_count"
    cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
    report, alone = tmp_path / "report.json", tmp_path / "alone.tsv"
    assert run(["pipeline", str(cfg_path), "--report", str(report)]) == 0
    piped = json.loads(report.read_text())["stages"][0]
    assert run(["filter", "--in", bitext, "--out", str(alone),
                "--fail-mode", "skip_and_count", "--report", str(report)]) == 0
    flagged = json.loads(report.read_text())
    assert alone.read_bytes() == outputs[0].read_bytes()
    assert b"last pair" in alone.read_bytes()
    assert piped["parse_skipped"] == flagged["parse_skipped"] == 1
    assert piped["config"] == flagged["config"]


def test_report_goes_before_or_after_the_command(tmp_path, capsys):
    """README: --report goes before or after the command, and a usage error
    once the command is reached prints that command's usage."""
    src = tmp_path / "in.tsv"
    write_micro_corpus(src)
    argv = ["filter", "--in", str(src), "--out", str(tmp_path / "o.tsv")]
    reports = []
    for name, order in (("before", lambda flag: flag + argv), ("after", lambda flag: argv + flag)):
        report = tmp_path / f"{name}.json"
        assert run(order(["--report", str(report)])) == 0
        assert capsys.readouterr().err == ""
        reports.append(json.loads(report.read_text()))
        del reports[-1]["seconds"]
    assert reports[0] == reports[1]
    assert run(["--report", str(tmp_path / "r.json"), "filter", "--in", str(src)]) == 1
    assert capsys.readouterr().err.startswith(
        "error: chatmt filter: the following arguments are required: --out\n"
        "usage: chatmt filter ")
    assert not (tmp_path / "r.json").exists()


# Each report's keys in order, as README lists them; a stage's `seconds` is last.
REPORT_KEYS = {
    "filter": ["command", "config", "parse_skipped", "input_count", "kept_count",
               "dropped_by_rule", "dropped_by_reason", "seconds"],
    "chatprep": ["command", "config", "dialogues", "pairs", "seconds"],
    "denoise": ["command", "config", "pairs", "chosen", "changed_targets", "seconds"],
    "bsce-select": ["command", "config", "candidates", "selected", "seconds"],
    "pipeline": ["command", "config_path", "stages"],
}


def test_each_report_has_its_documented_keys_in_order(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for name, data in {**PIPELINE_FILES, "scores.json": TWO_SCORES}.items():
        Path(name).write_bytes(data)
    reports = {}
    for argv in (["filter", "--in", "bitext.tsv", "--out", "o.tsv"],
                 ["chatprep", "--in", "chat.jsonl", "--out", "o.tsv"],
                 ["denoise", "--in", "bitext.tsv", "--out", "o.tsv"],
                 ["bsce-select", "--scores", "scores.json", "--ensemble-size", "1",
                  "--out", "s.json"],
                 ["pipeline", "pipeline.json"]):
        assert run([*argv, "--report", "report.json"]) == 0
        reports[argv[0]] = json.loads(Path("report.json").read_text(encoding="utf-8"))
    assert {command: list(report) for command, report in reports.items()} == REPORT_KEYS
    assert [list(stage) for stage in reports["pipeline"]["stages"]] == \
        [REPORT_KEYS[stage] for stage in ("filter", "chatprep", "denoise")]
    readme = " ".join((Path(__file__).parent.parent / "README.md").read_text("utf-8").split())
    for keys in REPORT_KEYS.values():
        assert ", ".join(f"`{key}`" for key in keys) in readme


def _readme_pipeline_keys() -> dict:
    """README's pipeline key list: each bullet's section (`top level`,
    `every stage` or a stage) and the keys it names outside parentheses."""
    readme = (Path(__file__).parent.parent / "README.md").read_text("utf-8")
    block = readme[readme.index("\n- top level:") + 3:].split("\n\n", 1)[0]
    listed = {}
    for bullet in block.split("\n- "):
        section, _, text = bullet.partition(":")
        listed[section.strip("`")] = re.findall(r"`(\w+)`", re.sub(r"\([^()]*\)", "", text))
    return listed


def test_readme_pipeline_keys_are_the_keys_the_config_takes(tmp_path, monkeypatch, capsys):
    """Each section takes every key README lists for it, and refuses as
    unknown every other key README lists, config field and `format`."""
    monkeypatch.chdir(tmp_path)
    for name, data in PIPELINE_FILES.items():
        Path(name).write_bytes(data)
    listed = _readme_pipeline_keys()
    configs = {"filter": FilterConfig, "chatprep": ContextConfig, "denoise": DenoiseConfig}
    assert list(listed) == ["top level", "every stage", *configs]
    candidates = {"format", *itertools.chain(*listed.values()),
                  *(f.name for cls in configs.values() for f in fields(cls))}

    def refusal(config) -> str:
        Path("pipeline.json").write_text(json.dumps(config), encoding="utf-8")
        code = run(["pipeline", "pipeline.json"])
        err = capsys.readouterr().err
        return err.partition("\n")[0] if code else ""

    sections = {"the top level": (PIPELINE, listed["top level"], lambda cfg: cfg)}
    for stage, cls in configs.items():
        values = {**asdict(cls()), **PIPELINE[stage]}
        keys = listed["every stage"] + listed[stage]
        sections[stage] = ({key: values[key] for key in keys}, keys,
                           lambda section, stage=stage: {**PIPELINE, stage: section})
    for where, (values, keys, config) in sections.items():
        assert refusal(config({key: values[key] for key in keys})) == "", where
        for key in sorted(candidates - set(keys)):
            assert refusal(config({**values, key: 1})) == \
                f"error: pipeline config: unknown key {key!r} in {where}"


def test_atomic_write_no_partial_output(tmp_path):
    # a data error mid-stage must not leave the destination file behind
    src = tmp_path / "in.tsv"
    src.write_text("ok\tfine\nbad line\n", encoding="utf-8")
    out = tmp_path / "out.tsv"
    assert run(["filter", "--in", str(src), "--out", str(out)]) == 2
    assert not out.exists()


def test_jsonl_escapes_still_parse(tmp_path):
    src = tmp_path / "in.jsonl"
    src.write_text('{"source": "caf\\u00e9 \\ud83d\\ude00", "target": "C:\\\\users"}\n',
                   encoding="utf-8")
    out = tmp_path / "out.jsonl"
    assert run(["filter", "--in", str(src), "--out", str(out)]) == 0
    obj = json.loads(out.read_text(encoding="utf-8"))
    assert (obj["source"], obj["target"]) == ("caf\u00e9 \U0001F600", "C:\\users")


def test_pipeline_failing_stage_leaves_no_outputs(tmp_path, capsys):
    # denoise, the last stage, fails once filter and chatprep have staged theirs.
    cfg_path, outputs = make_pipeline_config(tmp_path)
    _break_denoise(tmp_path)
    assert run(["pipeline", str(cfg_path)]) == 2
    assert capsys.readouterr().err == TAB_CHAT_ERROR + "\n"
    assert not any(p.exists() for p in outputs)


def test_unexpected_exception_exits_3_on_one_line(tmp_path, capsys, monkeypatch):
    def boom(pairs, cfg):
        raise RuntimeError("boom")

    monkeypatch.setattr("chatmt.cli.filter_corpus", boom)
    src = tmp_path / "in.tsv"
    write_micro_corpus(src)
    out = tmp_path / "out.tsv"
    assert run(["filter", "--in", str(src), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err == "internal error: RuntimeError: boom\n"
    assert not out.exists()


def test_readme_cli_block_names_every_subcommand():
    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    block = readme.split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    named = set(re.findall(r"^chatmt ([\w-]+)", block, re.MULTILINE))
    assert named == set(_build_parser().commands)


def _tab_input(path):
    path.write_text(json.dumps({"source": "a", "target": "b"}) + "\n" + json.dumps(_TAB) + "\n",
                    encoding="utf-8")


def test_filter_text_tsv_cannot_hold_input_changed(tmp_path, capsys, monkeypatch):
    # The pair keeps the line it was read from; read again, the changed
    # input would put it on line 3.
    src = tmp_path / "in.jsonl"
    _tab_input(src)

    def filter_then_change(pairs, cfg):
        result = filter_corpus(pairs, cfg)
        src.write_text("\n" + src.read_text(encoding="utf-8"), encoding="utf-8")
        return result

    filter_corpus = cli.filter_corpus
    monkeypatch.setattr("chatmt.cli.filter_corpus", filter_then_change)
    assert run(["filter", "--in", str(src), "--out", str(tmp_path / "out.tsv")]) == 2
    assert capsys.readouterr().err.startswith("data error: line 2: tab, newline or carriage return")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["in.jsonl"]


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_filter_text_tsv_cannot_hold_from_fifo_exits_2(tmp_path):
    # A FIFO can be read only once, and that read names the pair's line.
    fifo, out = tmp_path / "in.jsonl", tmp_path / "out.tsv"
    os.mkfifo(fifo)
    src = str(Path(__file__).parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.Popen([sys.executable, "-m", "chatmt", "filter", "--in", str(fifo),
                             "--out", str(out)], env=env, stderr=subprocess.PIPE, text=True)
    # A writer blocks until the reader opens; a thread keeps a reader that
    # never does from stalling the test.
    threading.Thread(target=_tab_input, args=(fifo,), daemon=True).start()
    try:
        _, err = proc.communicate(timeout=60)
    finally:
        proc.kill()
        proc.wait()
    assert proc.returncode == 2
    assert err.startswith("data error: line 2: tab, newline or carriage return")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["in.jsonl"]


@pytest.mark.parametrize("max_word_chars", [2**32, 10**30])
def test_filter_huge_max_word_chars_exits_0(tmp_path, max_word_chars):
    src, out = tmp_path / "in.tsv", tmp_path / "out.tsv"
    text = "a " + "x" * 50 + "\tb c\nd\te\n"
    src.write_text(text, encoding="utf-8")
    assert run(["filter", "--in", str(src), "--out", str(out),
                "--max-word-chars", str(max_word_chars)]) == 0
    assert out.read_text(encoding="utf-8") == text


@pytest.mark.parametrize("seed", range(16))
def test_denoise_output_reads_back_for_every_seed(tmp_path, seed):
    # Seed 12 noises " x" to " ", which the reader refuses as an empty side.
    src = tmp_path / "in.tsv"
    src.write_text("s\t x\n", encoding="utf-8")
    out = tmp_path / "out.tsv"
    args = ["--seed", str(seed), "--pair-fraction", "1", "--token-prob", "1"]
    assert run(["denoise", "--in", str(src), "--out", str(out), *args]) == 0
    assert run(["denoise", "--in", str(out), "--out", str(tmp_path / "again.tsv"), *args]) == 0
    if seed == 12:
        assert out.read_text(encoding="utf-8") == "s\t x\n"


def _stage_argv(tmp_path, stage, n):
    """argv running stage on an n-record input written to tmp_path."""
    src = tmp_path / f"{stage}{n}.in"
    if stage == "chatprep":
        src.write_text("".join(
            json.dumps({**CHAT_LINES[i % 2], "dialogue_id": f"d{i // 2}"}) + "\n"
            for i in range(n)), encoding="utf-8")
    else:
        src.write_text("".join(f"src {i} a b\tziel {i} c d\n" for i in range(n)),
                       encoding="utf-8")
    return [stage, "--in", str(src), "--out", str(tmp_path / f"{stage}{n}.tsv"),
            "--report", str(tmp_path / f"{stage}{n}.json")]


@pytest.mark.parametrize("stage", ["filter", "chatprep", "denoise"])
def test_stage_builds_no_per_record_cycles(tmp_path, stage):
    # main runs with the cyclic collector off; that is safe only while
    # the garbage a run leaves in cycles does not grow with its input.
    def cyclic_garbage(n):
        argv = _stage_argv(tmp_path, stage, n)
        gc.collect()
        assert run(argv) == 0
        return gc.collect()

    was_enabled = gc.isenabled()
    gc.disable()
    try:
        cyclic_garbage(10)  # one-time imports and caches
        small, large = cyclic_garbage(10), cyclic_garbage(1000)
    finally:
        if was_enabled:
            gc.enable()
    assert small == large


@pytest.mark.parametrize("enabled", [True, False])
def test_main_restores_gc_state(tmp_path, monkeypatch, enabled):
    src = tmp_path / "in.tsv"
    write_micro_corpus(src)
    bad = tmp_path / "bad.tsv"
    bad.write_text("no tab here\n", encoding="utf-8")
    out = str(tmp_path / "out.tsv")

    def boom(pairs, cfg):
        collecting.append(gc.isenabled())
        raise RuntimeError("boom")

    collecting = []
    cases = [
        (["filter", "--in", str(src), "--out", out], 0),
        (["--version"], 0),
        (["filter", "--no-such-flag"], 1),
        (["filter", "--in", str(bad), "--out", out], 2),
    ]
    was_enabled = gc.isenabled()
    try:
        (gc.enable if enabled else gc.disable)()
        for argv, code in cases:
            assert run(argv) == code
            assert gc.isenabled() is enabled
        monkeypatch.setattr("chatmt.cli.filter_corpus", boom)
        assert run(cases[0][0]) == 3
        assert gc.isenabled() is enabled
        assert collecting == [False]  # off while the command ran
    finally:
        (gc.enable if was_enabled else gc.disable)()


def test_cli_import_leaves_numpy_unloaded():
    src = str(Path(__file__).parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    probe = "import sys, chatmt.cli; print('numpy' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                            text=True, check=True)
    assert result.stdout == "False\n"


@pytest.mark.parametrize("den_input", [None, "prepped.tsv", "other.tsv"])
def test_pipeline_opens_only_its_config_and_stage_inputs(tmp_path, monkeypatch, den_input):
    """denoise takes the pairs chatprep wrote: the pipeline opens its config
    and filter's and chatprep's inputs, and never chatprep's output or a temp;
    a denoise.input, whatever it names, is refused once the config is read."""
    cfg_path, _ = make_pipeline_config(tmp_path)
    if den_input:
        write_micro_corpus(tmp_path / "other.tsv")
        cfg = json.loads(cfg_path.read_text())
        cfg["denoise"]["input"] = str(tmp_path / den_input)
        cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
    opened = []

    def recording_open(path, *args, **kwargs):
        opened.append(str(path))
        return open(path, *args, **kwargs)

    monkeypatch.setattr(cli, "open", recording_open, raising=False)
    assert run(["pipeline", str(cfg_path)]) == (1 if den_input else 0)
    assert opened == [str(tmp_path / name) for name in (
        "pipeline.json", *([] if den_input else ["bitext.tsv", "chat.jsonl"]))]


def test_single_stage_may_rewrite_its_input_in_place(tmp_path):
    src = tmp_path / "in.tsv"
    write_micro_corpus(src)
    expected = tmp_path / "expected.tsv"
    assert run(["filter", "--in", str(src), "--out", str(expected)]) == 0
    assert run(["filter", "--in", str(src), "--out", str(src)]) == 0
    assert src.read_bytes() == expected.read_bytes()


def _mode(path):
    return os.stat(path).st_mode & 0o777


@pytest.mark.parametrize("umask", [0o022, 0o077, 0o002], ids=oct)
def test_new_outputs_get_the_mode_open_gives(tmp_path, umask):
    src, out, report = tmp_path / "in.tsv", tmp_path / "out.tsv", tmp_path / "r.json"
    write_micro_corpus(src)
    old = os.umask(umask)
    try:
        assert run(["filter", "--in", str(src), "--out", str(out), "--report", str(report)]) == 0
    finally:
        os.umask(old)
    assert _mode(out) == _mode(report) == 0o666 & ~umask


@pytest.mark.parametrize("mode", [0o640, 0o604, 0o600, 0o755], ids=oct)
def test_replaced_outputs_keep_their_mode(tmp_path, mode):
    src, out, report = tmp_path / "in.tsv", tmp_path / "out.tsv", tmp_path / "r.json"
    write_micro_corpus(src)
    for path in (out, report):
        path.write_text("old\n")
        path.chmod(mode)
    assert run(["filter", "--in", str(src), "--out", str(out), "--report", str(report)]) == 0
    assert out.read_text() != "old\n"
    assert _mode(out) == _mode(report) == mode


def _dir_state(root):
    """Each file in root: its bytes and mode."""
    return {p.name: (p.read_bytes(), _mode(p)) for p in root.iterdir()}


def _pipeline_over_old_outputs(tmp_path):
    """make_pipeline_config's config, run with --report, where every output
    and the report already exist, each with its own bytes and mode 0o640."""
    cfg_path, outputs = make_pipeline_config(tmp_path)
    report = tmp_path / "report.json"
    for path in [*outputs, report]:
        path.write_text(f"OLD\t{path.name}\n", encoding="utf-8")
        path.chmod(0o640)
    return ["pipeline", str(cfg_path), "--report", str(report)]


def _break_filter(tmp_path):
    with open(tmp_path / "bitext.tsv", "a", encoding="utf-8") as fh:
        fh.write("no tab\n")


def _break_chatprep(tmp_path):
    (tmp_path / "chat.jsonl").write_text(json.dumps(CHAT_LINES[0]) + "\nnot json\n",
                                         encoding="utf-8")


def _break_denoise(tmp_path):
    """chatprep writes TAB_CHAT's pairs as JSONL, denoise cannot write them as TSV."""
    (tmp_path / "chat.jsonl").write_bytes(TAB_CHAT)
    cfg_path = tmp_path / "pipeline.json"
    cfg = json.loads(cfg_path.read_text())
    cfg["chatprep"]["output"] = str(tmp_path / "prepped.jsonl")
    cfg_path.write_text(json.dumps(cfg), encoding="utf-8")


@pytest.mark.parametrize("break_stage, message", [
    (_break_filter, "data error: line 11: "),
    (_break_chatprep, "data error: line 2: invalid JSON"),
    (_break_denoise, TAB_CHAT_ERROR),
], ids=["filter", "chatprep", "denoise"])
def test_pipeline_failing_stage_changes_no_file(tmp_path, capsys, break_stage, message):
    argv = _pipeline_over_old_outputs(tmp_path)
    break_stage(tmp_path)
    before = _dir_state(tmp_path)
    assert run(argv) == 2
    assert capsys.readouterr().err.startswith(message)
    assert _dir_state(tmp_path) == before


def test_pipeline_interrupted_changes_no_file(tmp_path, monkeypatch):
    def interrupt(pairs, cfg, spans):
        raise KeyboardInterrupt

    argv = _pipeline_over_old_outputs(tmp_path)
    before = _dir_state(tmp_path)
    monkeypatch.setattr("chatmt.cli.denoise_corpus", interrupt)
    with pytest.raises(KeyboardInterrupt):
        main(argv)
    assert _dir_state(tmp_path) == before


def test_report_write_failure_exits_2_and_writes_nothing(tmp_path, capsys, monkeypatch):
    src, out, report = tmp_path / "in.tsv", tmp_path / "o.tsv", tmp_path / "r.json"
    write_micro_corpus(src)
    mkstemp = tempfile.mkstemp

    disk_full = OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    def disk_full_for_report(*args, prefix="", **kwargs):
        if prefix.startswith("r.json"):
            raise disk_full
        return mkstemp(*args, prefix=prefix, **kwargs)

    monkeypatch.setattr(tempfile, "mkstemp", disk_full_for_report)
    assert run(["filter", "--in", str(src), "--out", str(out), "--report", str(report)]) == 2
    assert capsys.readouterr().err == f"io error: {disk_full}\n"
    assert sorted(os.listdir(tmp_path)) == ["in.tsv"]


def test_failed_rename_keeps_earlier_renames_and_no_temp(tmp_path, capsys, monkeypatch):
    # The commit is not atomic across files: the output is renamed before
    # the report, and stays in place when the report's rename fails.
    src, out, report = tmp_path / "in.tsv", tmp_path / "o.tsv", tmp_path / "r.json"
    write_micro_corpus(src)
    replace = os.replace

    def fail_for_report(tmp, path):
        if Path(path).name == "r.json":
            # A real EXDEV names both paths.
            raise OSError(errno.EXDEV, os.strerror(errno.EXDEV), tmp, None, path)
        replace(tmp, path)

    monkeypatch.setattr(os, "replace", fail_for_report)
    assert run(["filter", "--in", str(src), "--out", str(out), "--report", str(report)]) == 2
    # The error names the output, not the temp that is gone.
    assert capsys.readouterr().err == \
        f"io error: [Errno {errno.EXDEV}] {os.strerror(errno.EXDEV)}: {str(report)!r}\n"
    assert sorted(os.listdir(tmp_path)) == ["in.tsv", "o.tsv"]


# Suffixes a pipeline file may carry: `.jsonl` and `.json` are JSONL, any
# other TSV.
SUFFIXES = (".tsv", ".jsonl", ".json", ".txt")
JSONL_SUFFIXES = (".jsonl", ".json")


@pytest.mark.parametrize("chat", [PIPELINE_FILES["chat.jsonl"], AWKWARD_CHAT],
                         ids=["plain", "awkward"])
@pytest.mark.parametrize("den_suffix", SUFFIXES)
@pytest.mark.parametrize("chat_suffix", SUFFIXES)
def test_pipeline_denoise_of_chatprep_pairs_matches_denoise_on_its_file(
        tmp_path, monkeypatch, chat_suffix, den_suffix, chat):
    """denoise takes the pairs chatprep wrote, and its output equals that of
    `chatmt denoise --in-format <chatprep's suffix's format>` run on the
    file chatprep committed."""
    monkeypatch.chdir(tmp_path)
    cfg_path, _ = make_pipeline_config(tmp_path)
    (tmp_path / "chat.jsonl").write_bytes(chat)
    cfg = json.loads(cfg_path.read_text())
    prepped, noised = f"p{chat_suffix}", f"n{den_suffix}"
    cfg["chatprep"]["output"], cfg["denoise"]["output"] = prepped, noised
    cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
    assert run(["pipeline", str(cfg_path)]) == 0
    alone = f"alone{den_suffix}"
    in_format = "jsonl" if chat_suffix in JSONL_SUFFIXES else "tsv"
    assert run(["denoise", "--in", prepped, "--out", alone, "--in-format", in_format,
                "--seed", "11", "--pair-fraction", "0.5", "--token-prob", "0.5"]) == 0
    assert (tmp_path / noised).read_bytes() == (tmp_path / alone).read_bytes()


@pytest.mark.parametrize("stage", ["filter", "chatprep", "denoise"])
@pytest.mark.parametrize("out_suffix", SUFFIXES)
@pytest.mark.parametrize("in_suffix", SUFFIXES)
def test_pipeline_file_format_is_its_suffixs(tmp_path, monkeypatch, stage, in_suffix, out_suffix):
    """A pipeline stage reads and writes each file in its suffix's format,
    as its command given no format flag does on the same input. The input
    is filter's bitext, chatprep's chat file (JSON lines whatever its
    suffix) or, for denoise, the file chatprep writes."""
    monkeypatch.chdir(tmp_path)
    cfg_path, _ = make_pipeline_config(tmp_path)
    cfg = json.loads(cfg_path.read_text())
    bitext, chat, prepped = f"bitext{in_suffix}", f"chat{in_suffix}", f"prepped{in_suffix}"
    Path(bitext).write_text("".join(write_bitext(
        make_micro_corpus(), "jsonl" if in_suffix in JSONL_SUFFIXES else "tsv")),
        encoding="utf-8")
    Path(chat).write_bytes(PIPELINE_FILES["chat.jsonl"])
    cfg["filter"]["input"], cfg["chatprep"]["input"] = bitext, chat
    cfg["chatprep"]["output"] = prepped
    cfg[stage]["output"] = f"out{out_suffix}"
    cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
    assert run(["pipeline", str(cfg_path)]) == 0
    options = {"filter": ["--in", bitext],
               "chatprep": ["--in", chat, "--n-prev", "2", "--mode", "same"],
               "denoise": ["--in", prepped, "--seed", "11",
                           "--pair-fraction", "0.5", "--token-prob", "0.5"]}[stage]
    assert run([stage, *options, "--out", f"alone{out_suffix}"]) == 0
    out = Path(f"out{out_suffix}").read_bytes()
    assert out == Path(f"alone{out_suffix}").read_bytes()
    assert out.startswith(b"{") == (out_suffix in JSONL_SUFFIXES)


@pytest.mark.parametrize("command, suffix, row", [
    ("filter", ".tsv", _rows(b"a\tb\n")),
    ("denoise", ".tsv", _rows(b"a\tb\n")),
    ("chatprep", ".jsonl", _turns(b"\n")),
], ids=["filter", "denoise", "chatprep"])
def test_stage_failing_mid_read_closes_its_input(tmp_path, monkeypatch, command, suffix, row):
    # The malformed line lies past the first read buffer, so the stage
    # fails with its input open; main runs with the cyclic collector off.
    src = tmp_path / f"in{suffix}"
    src.write_bytes(b"".join(row(i) for i in range(3000)) + b"not a record\n" + row(3000))
    handles = []

    def recording_open(*args, **kwargs):
        handles.append(open(*args, **kwargs))
        return handles[-1]

    monkeypatch.setattr(cli, "open", recording_open, raising=False)
    assert run([command, "--in", str(src), "--out", str(tmp_path / "out.tsv")]) == 2
    assert [fh.name for fh in handles] == [str(src)]
    assert all(fh.closed for fh in handles)


def test_cli_and_pipeline_take_the_config_defaults(tmp_path):
    """README: pipeline options take the same defaults as the CLI flags of
    the same name; both are the config dataclasses' defaults."""
    cfg_path, _ = make_pipeline_config(tmp_path)
    paths = json.loads(cfg_path.read_text())
    bitext, chat = paths["filter"]["input"], paths["chatprep"]["input"]
    defaults = {"filter": asdict(FilterConfig()),
                "chatprep": asdict(ContextConfig()), "denoise": asdict(DenoiseConfig())}
    report = tmp_path / "report.json"
    for stage, infile in (("filter", bitext), ("chatprep", chat),
                          ("denoise", tmp_path / "prepped.tsv")):
        assert run([stage, "--in", str(infile), "--out", str(tmp_path / "prepped.tsv"),
                    "--report", str(report)]) == 0
        assert json.loads(report.read_text())["config"] == defaults[stage]
    cfg_path.write_text(json.dumps({
        stage: {key: paths[stage][key] for key in ("input", "output") if key in paths[stage]}
        for stage in defaults}), encoding="utf-8")
    assert run(["pipeline", str(cfg_path), "--report", str(report)]) == 0
    assert [s["config"] for s in json.loads(report.read_text())["stages"]] == \
        list(defaults.values())


@pytest.mark.parametrize("command, config_cls, own_flags, out_required", [
    ("filter", FilterConfig, ["--in", "--in-format", "--out-format"], True),
    ("chatprep", ContextConfig, ["--in", "--out-format"], True),
    ("denoise", DenoiseConfig, ["--in", "--in-format", "--out-format"], True),
    ("bsce-select", EnsembleConfig, ["--scores"], False),
], ids=["filter", "chatprep", "denoise", "bsce-select"])
def test_stage_flags_are_its_config_fields(command, config_cls, own_flags, out_required):
    """A command's flags are its paths and formats and one flag per config
    field: required where the field has no default, else with its default."""
    actions = {flag: a for a in _build_parser().commands[command]._actions
               for flag in a.option_strings}
    field_flags = {"--" + f.name.replace("_", "-"): f for f in fields(config_cls)}
    assert sorted(actions) == sorted(["-h", "--help", "--report", "--out",
                                      *own_flags, *field_flags])
    assert (actions[own_flags[0]].required, actions["--out"].required) == (True, out_required)
    for flag, f in field_flags.items():
        if f.default is MISSING:
            assert (actions[flag].dest, actions[flag].required) == (f.name, True)
        else:
            assert (actions[flag].dest, actions[flag].required, actions[flag].default) == \
                (f.name, False, f.default)


@pytest.mark.parametrize("module", ["chatmt", "chatmt.cli"])
def test_python_m_chatmt_prints_its_version_and_every_commands_help(module):
    result = _python_m_chatmt(["--version"], module=module)
    assert (result.returncode, result.stdout) == (0, f"chatmt {__version__}\n".encode())
    for command in ("filter", "chatprep", "denoise", "bsce-select", "pipeline"):
        result = _python_m_chatmt([command, "--help"], module=module)
        assert result.returncode == 0, result.stderr
        assert result.stdout.startswith(f"usage: chatmt {command} ".encode())


def test_readme_cli_block_parses():
    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    block = readme.split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    commands = [shlex.split(line) for line in block.replace("\\\n", " ").splitlines()
                if line.startswith("chatmt ")]
    assert commands
    parser = _build_parser()
    for argv in commands:
        assert parser.parse_args(argv[1:]).command == argv[1]


def test_readme_cli_section_names_every_flag():
    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    named = set(re.findall(r"(?<![\w-])--[a-z][\w-]*", section))
    flags = {flag for p in _build_parser().commands.values() for action in p._actions
             for flag in action.option_strings} - {"-h", "--help"}
    assert flags <= named, sorted(flags - named)


# The pipeline also takes the report's own mode values and the CLI's
# spellings of speaker_tags.
@pytest.mark.parametrize("key, value, resolved", [
    ("mode", "same_language", "same_language"),
    ("mode", "mixed_language", "mixed_language"),
    ("speaker_tags", "on", True),
    ("speaker_tags", "off", False),
])
def test_pipeline_takes_every_spelling_of_chatprep_options(tmp_path, key, value, resolved):
    cfg_path, _ = make_pipeline_config(tmp_path)
    cfg = json.loads(cfg_path.read_text())
    cfg["chatprep"][key] = value
    cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
    report = tmp_path / "report.json"
    assert run(["pipeline", str(cfg_path), "--report", str(report)]) == 0
    assert json.loads(report.read_text())["stages"][1]["config"][key] == resolved


# An output that is a symlink is written through: the file it resolves to
# gets the bytes, and the link stays.

def test_output_through_a_symlink_writes_its_target(tmp_path):
    src = tmp_path / "in.tsv"
    write_micro_corpus(src)
    assert run(["filter", "--in", str(src), "--out", str(tmp_path / "plain.tsv")]) == 0
    target, link = tmp_path / "real.tsv", tmp_path / "link.tsv"
    target.write_text("old\n", encoding="utf-8")
    target.chmod(0o640)
    link.symlink_to(target.name)
    assert run(["filter", "--in", str(src), "--out", str(link)]) == 0
    assert link.is_symlink() and os.readlink(link) == target.name
    assert target.read_bytes() == (tmp_path / "plain.tsv").read_bytes()
    assert target.stat().st_mode & 0o777 == 0o640
    assert sorted(p.name for p in tmp_path.iterdir()) == ["in.tsv", "link.tsv", "plain.tsv",
                                                          "real.tsv"]


def test_output_through_a_dangling_symlink_creates_its_target(tmp_path):
    src = tmp_path / "in.tsv"
    write_micro_corpus(src)
    (tmp_path / "d").mkdir()
    link = tmp_path / "link.tsv"
    link.symlink_to(tmp_path / "d" / "new.tsv")
    assert run(["filter", "--in", str(src), "--out", str(link)]) == 0
    assert link.is_symlink() and (tmp_path / "d" / "new.tsv").is_file()
    assert [p.name for p in (tmp_path / "d").iterdir()] == ["new.tsv"]


@pytest.mark.parametrize("output", ["filtered.tsv", "prepped.tsv", "noised.tsv"])
def test_pipeline_stage_output_through_a_symlink(tmp_path, output):
    plain = tmp_path / "plain"
    plain.mkdir()
    plain_cfg, plain_outputs = make_pipeline_config(plain)
    assert run(["pipeline", str(plain_cfg)]) == 0
    cfg_path, outputs = make_pipeline_config(tmp_path)
    (tmp_path / "real").mkdir()
    target = tmp_path / "real" / output
    (tmp_path / output).symlink_to(target)
    assert run(["pipeline", str(cfg_path)]) == 0
    assert (tmp_path / output).is_symlink()
    assert [p.read_bytes() for p in outputs] == [p.read_bytes() for p in plain_outputs]
    assert [p.name for p in (tmp_path / "real").iterdir()] == [output]
