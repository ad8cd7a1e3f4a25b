import argparse
import errno
import gc
import json
import os
import re
import shlex
import subprocess
import sys
import tempfile
import threading
from dataclasses import asdict, fields
from pathlib import Path

import pytest

from chatmt import __version__, cli
from chatmt.cli import _build_parser, main
from chatmt.chatprep import ContextConfig
from chatmt.corpus import write_bitext
from chatmt.denoise import DenoiseConfig
from chatmt.filtering import FilterConfig
from conftest import make_micro_corpus


def run(argv):
    try:
        return main(argv)
    except SystemExit as exc:  # argparse --version / --help paths
        return exc.code


def write_micro_corpus(path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(write_bitext(make_micro_corpus(), "tsv"))


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


def write_chat(path):
    with open(path, "w", encoding="utf-8") as fh:
        for obj in CHAT_LINES:
            fh.write(json.dumps(obj) + "\n")


def test_version():
    assert run(["--version"]) == 0


def test_unknown_flag_exits_1(tmp_path):
    assert run(["filter", "--no-such-flag"]) == 1


def test_missing_subcommand_exits_1():
    assert run([]) == 1


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


def test_filter_missing_input_exits_1(tmp_path):
    assert run(["filter", "--in", str(tmp_path / "nope.tsv"),
                "--out", str(tmp_path / "o.tsv")]) == 1


def test_filter_malformed_data_exits_2(tmp_path):
    src = tmp_path / "in.tsv"
    src.write_text("no tab here\n", encoding="utf-8")
    assert run(["filter", "--in", str(src), "--out", str(tmp_path / "o.tsv")]) == 2


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
    write_chat(chat)
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


GOOD_JSONL = '{"source": "s", "target": "a b c", "target_payload_span": [0, 3]}'


@pytest.mark.parametrize("bad", [
    '{"source": "s"}',
    '[1, 2]',
    '{"source": "s", "target": "a b c", "target_payload_span": ["x", 2]}',
    '{"source": "s", "target": "a b c", "target_payload_span": [true, 2]}',
    '{"source": "s", "target": "a b c", "target_payload_span": [1, 4]}',
    '{"source": "s", "target": "a b c", "origin": "weird"}',
    '{"source": 1, "target": "a b c"}',
], ids=["no_target", "not_object", "span_str", "span_bool", "span_past_end", "bad_origin",
        "source_not_a_string"])
def test_denoise_bad_jsonl_exits_2(tmp_path, capsys, bad):
    src = tmp_path / "in.jsonl"
    src.write_text(f"{GOOD_JSONL}\n{bad}\n", encoding="utf-8")
    out = tmp_path / "out.jsonl"
    assert run(["denoise", "--in", str(src), "--out", str(out)]) == 2
    assert "line 2" in capsys.readouterr().err
    assert not out.exists()


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


# A value outside its config field's range is refused by the config
# dataclass, with the field's name, and not by the flag.
_OUT_OF_RANGE = [
    ("denoise", "--pair-fraction", "1.5", "pair_fraction"),
    ("denoise", "--token-prob", "-0.1", "token_prob"),
    ("denoise", "--seed", "-1", "seed"),
    ("denoise", "--seed", str(2**64), "seed"),
    ("chatprep", "--n-prev", "4", "n_prev"),
    ("chatprep", "--n-prev", "-1", "n_prev"),
]


@pytest.mark.parametrize("command, flag, value, field", _OUT_OF_RANGE,
                         ids=["-".join(case[1:]) for case in _OUT_OF_RANGE])
def test_denoise_config_out_of_range_exits_1(tmp_path, capsys, command, flag, value, field):
    src, out = tmp_path / "in.txt", tmp_path / "out.tsv"
    (write_chat if command == "chatprep" else write_micro_corpus)(src)
    assert run([command, "--in", str(src), "--out", str(out), flag, value]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {field} ") and err.count("\n") == 1
    assert [p.name for p in tmp_path.iterdir()] == ["in.txt"]


def _bsce_size_out_of_range_exits_1(tmp_path, capsys, size):
    scores = tmp_path / "scores.json"
    scores.write_text(json.dumps({
        "models": ["a", "b"], "comet": [0.1, 0.2],
        "pairwise": [[0, 0.5], [0.5, 0]],
    }), encoding="utf-8")
    assert run(["bsce-select", "--scores", str(scores), "--ensemble-size", str(size),
                "--out", str(tmp_path / "sel.json")]) == 1
    assert capsys.readouterr().err == f"config error: ensemble size {size} out of range 1..2\n"
    assert [p.name for p in tmp_path.iterdir()] == ["scores.json"]


def test_bsce_ensemble_size_zero_exits_1(tmp_path, capsys):
    _bsce_size_out_of_range_exits_1(tmp_path, capsys, 0)


def test_bsce_ensemble_size_above_the_model_count_exits_1(tmp_path, capsys):
    _bsce_size_out_of_range_exits_1(tmp_path, capsys, 3)


def make_pipeline_config(tmp_path, seed=11):
    bitext = tmp_path / "bitext.tsv"
    chat = tmp_path / "chat.jsonl"
    write_micro_corpus(bitext)
    write_chat(chat)
    cfg = {
        "seed": seed,
        "filter": {"input": str(bitext), "output": str(tmp_path / "filtered.tsv")},
        "chatprep": {"input": str(chat), "output": str(tmp_path / "prepped.tsv"),
                     "n_prev": 2, "mode": "same", "speaker_tags": True},
        "denoise": {"output": str(tmp_path / "noised.tsv"),
                    "pair_fraction": 0.5, "token_prob": 0.5},
    }
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


def test_pipeline_missing_input_exits_1_before_writes(tmp_path):
    cfg = {
        "filter": {"input": str(tmp_path / "missing.tsv"),
                   "output": str(tmp_path / "f.tsv")},
        "chatprep": {"input": str(tmp_path / "missing.jsonl"),
                     "output": str(tmp_path / "p.tsv")},
        "denoise": {"output": str(tmp_path / "n.tsv")},
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    assert run(["pipeline", str(path)]) == 1
    assert not (tmp_path / "f.tsv").exists()


@pytest.mark.parametrize("edit, named", [
    (lambda cfg: cfg["filter"].update(max_wrods=50), "max_wrods"),
    (lambda cfg: cfg.update(fail_mode="bogus"), "fail_mode"),
    (lambda cfg: cfg.update(stages=[]), "stages"),
    (lambda cfg: cfg.update(chatprep=[]), "chatprep"),
    (lambda cfg: cfg["chatprep"].update(speaker_tags="yes"), "speaker_tags"),
])
def test_pipeline_bad_config_exits_1_before_writes(tmp_path, capsys, edit, named):
    cfg_path, outputs = make_pipeline_config(tmp_path)
    cfg = json.loads(cfg_path.read_text())
    edit(cfg)
    cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
    assert run(["pipeline", str(cfg_path)]) == 1
    assert named in capsys.readouterr().err
    assert not any(p.exists() for p in outputs)


def test_pipeline_top_level_array_exits_1(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text("[]", encoding="utf-8")
    assert run(["pipeline", str(path)]) == 1


def test_atomic_write_no_partial_output(tmp_path):
    # a data error mid-stage must not leave the destination file behind
    src = tmp_path / "in.tsv"
    src.write_text("ok\tfine\nbad line\n", encoding="utf-8")
    out = tmp_path / "out.tsv"
    assert run(["filter", "--in", str(src), "--out", str(out)]) == 2
    assert not out.exists()


@pytest.mark.parametrize("ratio", ["nan", "inf", "-inf"])
def test_filter_non_finite_max_ratio_exits_1(tmp_path, capsys, ratio):
    src = tmp_path / "in.tsv"
    src.write_text("one\ta b c d e f g h\n", encoding="utf-8")
    out = tmp_path / "out.tsv"
    assert run(["filter", "--in", str(src), "--out", str(out), f"--max-ratio={ratio}"]) == 1
    assert "max_ratio" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("stage, key, value, named", [
    ("filter", "max_words", "100", "max_words"),
    ("filter", "max_word_chars", 40.0, "max_word_chars"),
    ("filter", "max_ratio", True, "max_ratio"),
    ("chatprep", "n_prev", "2", "n_prev"),
    ("chatprep", "mode", 1, "mode"),
    ("denoise", "seed", 1.5, "seed"),
    ("denoise", "token_prob", "0.15", "token_prob"),
])
def test_pipeline_wrong_typed_option_exits_1(tmp_path, capsys, stage, key, value, named):
    cfg_path, outputs = make_pipeline_config(tmp_path)
    cfg = json.loads(cfg_path.read_text())
    cfg[stage][key] = value
    cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
    assert run(["pipeline", str(cfg_path)]) == 1
    err = capsys.readouterr().err
    assert named in err and "Traceback" not in err
    assert not any(p.exists() for p in outputs)


def _rows(*lines):
    """Row i of an input: lines[i % len(lines)]."""
    return lambda i: lines[i % len(lines)]


def _turns(*ends):
    """Row i of a chat input: turn i of one dialogue, ended by ends[i % len(ends)]."""
    return lambda i: json.dumps({**CHAT_LINES[0], "turn_index": i}).encode() + ends[i % len(ends)]


@pytest.mark.parametrize("command, suffix, row", [
    ("filter", ".tsv", _rows(b"a\tb\n")),
    ("filter", ".jsonl", _rows(b'{"source": "a", "target": "b"}\n')),
    ("denoise", ".tsv", _rows(b"a\tb\n")),
    ("chatprep", ".jsonl", _turns(b"\n")),
    # The reader also ends a line at a lone CR, and at CRLF once.
    ("filter", ".tsv", _rows(b"a\tb\r")),
    ("filter", ".tsv", _rows(b"a\tb\r\n", b"c\td\r")),
    ("chatprep", ".jsonl", _turns(b"\r\n", b"\r")),
], ids=["filter-tsv", "filter-jsonl", "denoise-tsv", "chatprep-jsonl",
        "filter-tsv-cr", "filter-tsv-crlf-cr", "chatprep-jsonl-crlf-cr"])
@pytest.mark.parametrize("bad_line", [3, 5000])  # inside and past the first read buffer
def test_invalid_utf8_exits_2_with_line(tmp_path, capsys, command, suffix, row, bad_line):
    src = tmp_path / f"in{suffix}"
    before = b"".join(row(i) for i in range(bad_line - 1))
    src.write_bytes(before + b"\xff\xfe" + row(bad_line - 1))
    out = tmp_path / "out.tsv"
    assert run([command, "--in", str(src), "--out", str(out)]) == 2
    assert f"line {bad_line}: invalid UTF-8: " in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, suffix, row", [
    ("filter", ".tsv", _rows(b"a\tb\n")),
    ("denoise", ".tsv", _rows(b"a\tb\r\n", b"c\td\r")),
    ("chatprep", ".jsonl", _turns(b"\n")),
], ids=["filter", "denoise", "chatprep"])
@pytest.mark.parametrize("bad_line", [3, 5000])  # inside and past the first read buffer
def test_first_faulty_line_wins_over_later_invalid_utf8(tmp_path, capsys, command, suffix, row,
                                                        bad_line):
    # Line bad_line - 1 is malformed; bad_line, in the same read buffer,
    # holds bytes that are not UTF-8.
    src = tmp_path / f"in{suffix}"
    before = b"".join(row(i) for i in range(bad_line - 2))
    src.write_bytes(before + b"not a record\n" + b"\xff\xfe" + row(bad_line - 1))
    out = tmp_path / "out.tsv"
    assert run([command, "--in", str(src), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"data error: line {bad_line - 1}: ") and "UTF-8" not in err
    assert not out.exists()


@pytest.mark.parametrize("field, value", [
    ("dialogue_id", 1),
    ("src_text", 5),
    ("tgt_text", None),
    ("src_lang", 1),
    ("tgt_lang", ["en"]),
    ("turn_index", True),  # beside a genuine turn 0, it would pass as turn 1
])
def test_chatprep_wrong_typed_field_exits_2(tmp_path, capsys, field, value):
    chat = tmp_path / "chat.jsonl"
    bad = {**CHAT_LINES[0], "turn_index": 1, field: value}
    chat.write_text(f"{json.dumps(CHAT_LINES[0])}\n{json.dumps(bad)}\n", encoding="utf-8")
    out = tmp_path / "out.tsv"
    assert run(["chatprep", "--in", str(chat), "--out", str(out)]) == 2
    assert "line 2:" in capsys.readouterr().err
    assert not out.exists()


GOOD_SCORES = {"models": ["a", "b", "c"], "comet": [0.1, 0.2, 0.3],
               "pairwise": [[0, 0.5, 0.6], [0.5, 0, 0.7], [0.6, 0.7, 0]]}


@pytest.mark.parametrize("text", [
    '{"models": ["a", "b"], "comet": [0.1,',
    json.dumps({**GOOD_SCORES, "comet": [0.1, "x", 0.3]}),
    json.dumps({**GOOD_SCORES, "comet": [0.1, True, 0.3]}),
    '{"models": ["a", "b"], "comet": [0.1, NaN], "pairwise": [[0, 1], [1, 0]]}',
    json.dumps({**GOOD_SCORES, "models": ["a", "b", "a"]}),
    json.dumps({**GOOD_SCORES, "models": ["a", 2, "c"]}),
    json.dumps({**GOOD_SCORES, "pairwise": [[0, 0.5], [0.5, 0], [0.6, 0.7]]}),
    json.dumps({"models": ["a"], "comet": [0.1], "pairwise": [[0]]}),
    "[" * 100_000 + "]" * 100_000,
    json.dumps({**GOOD_SCORES, "comet": [0.1, 0.2]}),
], ids=["malformed", "non_numeric", "bool", "nan", "duplicate_ids", "non_string_id",
        "shape", "one_model", "deep", "short_comet"])
def test_bsce_bad_scores_file_exits_2(tmp_path, capsys, text):
    scores = tmp_path / "scores.json"
    scores.write_text(text, encoding="utf-8")
    out = tmp_path / "sel.json"
    assert run(["bsce-select", "--scores", str(scores), "--ensemble-size", "1",
                "--out", str(out)]) == 2
    assert "data error" in capsys.readouterr().err
    assert not out.exists()


def test_bsce_weighted_score_beyond_float_range_exits_2(tmp_path, capsys):
    # Finite scores whose weighted scores are 0, 4M and 2M: b's is the
    # first that no float holds.
    big = 1.7976931348623157e308
    scores = tmp_path / "scores.json"
    scores.write_text(json.dumps({
        "models": ["a", "b", "c"], "comet": [0, 1, 0.5],
        "pairwise": [[0, big, big], [-big, 0, -big], [0, 0, 0]],
    }), encoding="utf-8")
    out = tmp_path / "sel.json"
    assert run(["bsce-select", "--scores", str(scores), "--ensemble-size", "2",
                "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "data error: bad scores file: the weighted score of model 'b' is beyond float range\n")
    assert not out.exists()


# Whether the model holding a lone surrogate is selected or not, the file
# is refused before selecting.
@pytest.mark.parametrize("comet", [[0.3, 0.2], [0.2, 0.3]])
def test_bsce_model_id_with_lone_surrogate_exits_2(tmp_path, capsys, comet):
    scores = tmp_path / "scores.json"
    scores.write_text('{"models": ["a\\ud800", "b"], "comet": %s, '
                      '"pairwise": [[0, 1], [1, 0]]}' % json.dumps(comet), encoding="utf-8")
    out = tmp_path / "s.json"
    assert run(["bsce-select", "--scores", str(scores), "--ensemble-size", "1",
                "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "data error: bad scores file: model id 'a\\ud800' is not valid Unicode\n")
    assert not out.exists()


@pytest.mark.parametrize("models", ["ab", {"a": 1, "b": 2}], ids=["string", "object"])
def test_bsce_models_not_a_list_exits_2(tmp_path, capsys, models):
    scores = tmp_path / "scores.json"
    scores.write_text(json.dumps({"models": models, "comet": [0.1, 0.2],
                                  "pairwise": [[0, 1], [1, 0]]}), encoding="utf-8")
    out = tmp_path / "s.json"
    assert run(["bsce-select", "--scores", str(scores), "--ensemble-size", "1",
                "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "data error: bad scores file: models must be a list of model ids\n")
    assert not out.exists()


@pytest.mark.parametrize("command, lines", [
    ("filter", ['{"source": "a", "target": "b"}', '{"source": "a \\ud800", "target": "b"}']),
    ("denoise", ['{"source": "a", "target": "b"}', '{"source": "a", "target": "\\uDFFF b"}']),
    ("chatprep", [json.dumps(CHAT_LINES[0]), json.dumps({**CHAT_LINES[1], "tgt_text": "x \udfff"})]),
])
def test_lone_surrogate_exits_2_with_line(tmp_path, capsys, command, lines):
    src = tmp_path / "in.jsonl"
    src.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    out = tmp_path / "out.jsonl"
    assert run([command, "--in", str(src), "--out", str(out)]) == 2
    assert "line 2:" in capsys.readouterr().err
    assert not out.exists()


def test_jsonl_escapes_still_parse(tmp_path):
    src = tmp_path / "in.jsonl"
    src.write_text('{"source": "caf\\u00e9 \\ud83d\\ude00", "target": "C:\\\\users"}\n',
                   encoding="utf-8")
    out = tmp_path / "out.jsonl"
    assert run(["filter", "--in", str(src), "--out", str(out)]) == 0
    obj = json.loads(out.read_text(encoding="utf-8"))
    assert (obj["source"], obj["target"]) == ("caf\u00e9 \U0001F600", "C:\\users")


@pytest.mark.parametrize("argv", [
    ["filter", "--in", "{bad}", "--out", "{missing}/x.tsv"],
    ["chatprep", "--in", "{bad}", "--out", "{missing}/x.tsv"],
    ["denoise", "--in", "{bad}", "--out", "{missing}/x.tsv"],
    ["bsce-select", "--scores", "{bad}", "--ensemble-size", "1", "--out", "{missing}/x.json"],
    ["filter", "--in", "{bad}", "--out", "{tmp}/o.tsv", "--report", "{missing}/r.json"],
], ids=["filter", "chatprep", "denoise", "bsce-select", "report"])
def test_output_in_missing_directory_exits_1_before_reading(tmp_path, capsys, argv):
    bad = tmp_path / "bad.jsonl"
    bad.write_text("not a record\n", encoding="utf-8")
    paths = {"bad": bad, "missing": tmp_path / "missing", "tmp": tmp_path}
    requested = next(arg for arg in argv if "{missing}" in arg).format(**paths)
    assert run([arg.format(**paths) for arg in argv]) == 1
    err = capsys.readouterr().err
    assert re.search(f"{re.escape(requested)}$", err, re.MULTILINE)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.jsonl"]


@pytest.mark.parametrize("edit, named", [
    (lambda cfg, tmp: cfg["filter"].update(output=["o"]), "filter.output"),
    (lambda cfg, tmp: cfg["chatprep"].update(input=5), "chatprep.input"),
    (lambda cfg, tmp: cfg["denoise"].update(format="xml"), "denoise.format"),
    (lambda cfg, tmp: cfg["denoise"].update(output=str(tmp / "missing" / "n.tsv")),
     "missing"),
])
def test_pipeline_bad_paths_exit_1_before_writes(tmp_path, capsys, edit, named):
    cfg_path, outputs = make_pipeline_config(tmp_path)
    cfg = json.loads(cfg_path.read_text())
    edit(cfg, tmp_path)
    cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
    assert run(["pipeline", str(cfg_path)]) == 1
    err = capsys.readouterr().err
    assert named in err and "Traceback" not in err
    assert not any(p.exists() for p in outputs)


def test_pipeline_failing_stage_leaves_no_outputs(tmp_path, capsys):
    cfg_path, outputs = make_pipeline_config(tmp_path)
    chat = json.loads(cfg_path.read_text())["chatprep"]["input"]
    with open(chat, "a", encoding="utf-8") as fh:
        fh.write("not a record\n")
    assert run(["pipeline", str(cfg_path)]) == 2
    assert "line 4:" in capsys.readouterr().err
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
    parser = _build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert named == set(sub.choices)


def test_filter_carriage_return_to_tsv_exits_2(tmp_path, capsys):
    # The reader splits lines on \r, so a TSV holding one would not read back.
    src = tmp_path / "in.jsonl"
    src.write_text(json.dumps({"source": "a\rb", "target": "c"}) + "\n", encoding="utf-8")
    out = tmp_path / "out.tsv"
    assert run(["filter", "--in", str(src), "--out", str(out)]) == 2
    assert "carriage return" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["in.jsonl"]
    out = tmp_path / "out.jsonl"
    assert run(["filter", "--in", str(src), "--out", str(out)]) == 0
    assert json.loads(out.read_text(encoding="utf-8"))["source"] == "a\rb"


_TAB = {"source": "x\ty", "target": "z"}


# A kept pair is the first input pair with its normalized sides.
@pytest.mark.parametrize("lines, flags, bad_line", [
    ([{"source": "a", "target": "b"}, _TAB], [], 2),
    ([{"source": "a", "target": "b"}, None, _TAB], [], 3),
    (["not json", {"source": "a", "target": "b"}, _TAB], ["--fail-mode", "skip_and_count"], 3),
    ([{"source": "a", "target": "b c d e f"}, {"source": "x\ty\u00a0", "target": "z"}, _TAB],
     [], 2),
], ids=["plain", "blank-line-before", "skipped-line-before", "first-of-its-normal-form"])
def test_filter_text_tsv_cannot_hold_names_its_line(tmp_path, capsys, lines, flags, bad_line):
    src = tmp_path / "in.jsonl"
    # None is a blank line and a string a raw one.
    src.write_text("".join(("" if line is None else line if isinstance(line, str)
                            else json.dumps(line)) + "\n" for line in lines), encoding="utf-8")
    assert run(["filter", "--in", str(src), "--out", str(tmp_path / "out.tsv"), *flags]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"data error: line {bad_line}: tab, newline or carriage return")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["in.jsonl"]


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


def test_pipeline_deeply_nested_config_exits_1(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000, encoding="utf-8")
    assert run(["pipeline", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1


BAD_TARGET = "a <context begins> b <context begins> c"


@pytest.mark.parametrize("suffix, lines, bad_line", [
    (".tsv", ["s\ta b", f"s\t{BAD_TARGET}", "s\tc d"], 2),
    (".jsonl", [json.dumps({"source": "s", "target": "a b"}), "",
                json.dumps({"source": "s", "target": BAD_TARGET})], 3),
    (".jsonl", ["", json.dumps({"source": "s", "target": "a b"}), "", "",
                json.dumps({"source": "s", "target": BAD_TARGET}), ""], 5),
], ids=["tsv", "jsonl-blank", "jsonl-blanks"])
def test_denoise_bad_target_names_its_line(tmp_path, capsys, suffix, lines, bad_line):
    src = tmp_path / f"in{suffix}"
    src.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    out = tmp_path / f"out{suffix}"
    assert run(["denoise", "--in", str(src), "--out", str(out), "--pair-fraction", "1"]) == 2
    err = capsys.readouterr().err
    assert err == f"data error: line {bad_line}: multiple context indicators in target " \
        f"{BAD_TARGET!r}\n"
    assert not out.exists()


# Lines 2 and 3 hold targets denoise cannot split; which of them a seed
# chose used to decide the exit code.
UNSPLITTABLE_TSV = ("s1\t<agent> hallo\n"
                    "s2\t<agent> <context begins> x\n"
                    "s3\t<customer> a <context begins> b <context begins> c\n"
                    "s4\td e\n")


@pytest.mark.parametrize("pair_fraction", ["0", "0.5", "1"])
@pytest.mark.parametrize("seed", range(16))
def test_denoise_first_unsplittable_target_exits_2_for_every_seed(tmp_path, capsys,
                                                                 pair_fraction, seed):
    src = tmp_path / "in.tsv"
    src.write_text(UNSPLITTABLE_TSV, encoding="utf-8")
    out = tmp_path / "out.tsv"
    assert run(["denoise", "--in", str(src), "--out", str(out), "--seed", str(seed),
                "--pair-fraction", pair_fraction]) == 2
    assert capsys.readouterr().err == \
        "data error: line 2: empty payload in target '<agent> <context begins> x'\n"
    assert not out.exists()


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


@pytest.mark.parametrize("field", ["src_text", "tgt_text"])
@pytest.mark.parametrize("blank", ["", "  ", "\t"])
def test_chatprep_blank_text_exits_2(tmp_path, capsys, field, blank):
    chat = tmp_path / "chat.jsonl"
    bad = {**CHAT_LINES[0], "turn_index": 1, field: blank}
    chat.write_text(f"{json.dumps(CHAT_LINES[0])}\n{json.dumps(bad)}\n", encoding="utf-8")
    out = tmp_path / "out.tsv"
    assert run(["chatprep", "--in", str(chat), "--out", str(out),
                "--speaker-tags", "off", "--n-prev", "0"]) == 2
    assert capsys.readouterr().err == f"data error: line 2: empty {field}\n"
    assert not out.exists()


# Pairs are written by dialogue: d1's turns 0 and 1 (lines 1 and 3), then
# d2's turn 0 (line 2), which has no context.
@pytest.mark.parametrize("bad_line, field, value", [(3, "src_text", "a\tb"),
                                                    (2, "tgt_text", "c\rd")])
def test_chatprep_text_tsv_cannot_hold_names_its_line(tmp_path, capsys, bad_line, field, value):
    chat = tmp_path / "chat.jsonl"
    lines = [CHAT_LINES[0], CHAT_LINES[2], CHAT_LINES[1]]
    lines[bad_line - 1] = {**lines[bad_line - 1], field: value}
    chat.write_text("".join(json.dumps(obj) + "\n" for obj in lines), encoding="utf-8")
    assert run(["chatprep", "--in", str(chat), "--out", str(tmp_path / "out.tsv")]) == 2
    assert capsys.readouterr().err.startswith(
        f"data error: line {bad_line}: tab, newline or carriage return")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["chat.jsonl"]


def test_chatprep_reserved_tag_names_its_line(tmp_path, capsys):
    chat = tmp_path / "chat.jsonl"
    bad = {**CHAT_LINES[1], "tgt_text": "a <SEP> b"}
    chat.write_text(f"{json.dumps(CHAT_LINES[0])}\n{json.dumps(bad)}\n", encoding="utf-8")
    assert run(["chatprep", "--in", str(chat), "--out", str(tmp_path / "out.tsv")]) == 2
    assert capsys.readouterr().err == (
        "data error: line 2: d1/1 tgt_text contains a reserved tag: 'a <SEP> b'\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["chat.jsonl"]


_SOURCE_TAB = [{"source": "s1", "target": "a b"}, None, {"source": "s\t2", "target": "c d"},
               {"source": "s3", "target": "e f"}]


@pytest.mark.parametrize("lines, token_prob, bad_line", [
    ([{"source": "s1", "target": "a b"}, {"source": "s2", "target": "c\rd e"}], "0.15", 2),
    (_SOURCE_TAB, "0.15", 3),
    # Every target noised: the rebuilt pair keeps its line.
    (_SOURCE_TAB, "1", 3),
], ids=["target-cr", "blank-then-source-tab", "noised-source-tab"])
def test_denoise_text_tsv_cannot_hold_names_its_line(tmp_path, capsys, lines, token_prob,
                                                     bad_line):
    src = tmp_path / "in.jsonl"
    src.write_text("".join((json.dumps(obj) if obj else "") + "\n" for obj in lines),
                   encoding="utf-8")
    out = tmp_path / "x.tsv"
    assert run(["denoise", "--in", str(src), "--out", str(out), "--pair-fraction", "1.0",
                "--token-prob", token_prob]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"data error: line {bad_line}: tab, newline or carriage return")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["in.jsonl"]


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


def _files(root):
    return {p.name: p.read_bytes() for p in root.iterdir() if p.is_file()}


@pytest.mark.parametrize("argv, clash", [
    (["filter", "--in", "{tmp}/bitext.tsv", "--out", "{tmp}/out.tsv"], "out.tsv"),
    (["filter", "--in", "{tmp}/bitext.tsv", "--out", "{tmp}/out.tsv"], "bitext.tsv"),
    (["chatprep", "--in", "{tmp}/chat.jsonl", "--out", "{tmp}/out.tsv"], "out.tsv"),
    (["chatprep", "--in", "{tmp}/chat.jsonl", "--out", "{tmp}/out.tsv"], "chat.jsonl"),
    (["denoise", "--in", "{tmp}/bitext.tsv", "--out", "{tmp}/out.tsv"], "out.tsv"),
    (["denoise", "--in", "{tmp}/bitext.tsv", "--out", "{tmp}/out.tsv"], "bitext.tsv"),
    (["bsce-select", "--scores", "{tmp}/scores.json", "--ensemble-size", "1",
      "--out", "{tmp}/sel.json"], "sel.json"),
    (["bsce-select", "--scores", "{tmp}/scores.json", "--ensemble-size", "1"], "scores.json"),
    (["pipeline", "{tmp}/pipeline.json"], "pipeline.json"),
    (["pipeline", "{tmp}/pipeline.json"], "bitext.tsv"),
    (["pipeline", "{tmp}/pipeline.json"], "chat.jsonl"),
    (["pipeline", "{tmp}/pipeline.json"], "filtered.tsv"),
    (["pipeline", "{tmp}/pipeline.json"], "prepped.tsv"),
    (["pipeline", "{tmp}/pipeline.json"], "noised.tsv"),
], ids=lambda v: v if isinstance(v, str) else v[0])
def test_report_on_a_path_the_command_uses_exits_1_before_reading(tmp_path, capsys, argv, clash):
    make_pipeline_config(tmp_path)
    (tmp_path / "out.tsv").write_text("keep me\n", encoding="utf-8")
    (tmp_path / "scores.json").write_text(json.dumps({
        "models": ["a", "b"], "comet": [0.1, 0.2], "pairwise": [[0, 0.5], [0.5, 0]],
    }), encoding="utf-8")
    before = _files(tmp_path)
    report = str(tmp_path / clash)
    assert run([arg.format(tmp=tmp_path) for arg in argv] + ["--report", report]) == 1
    assert f"--report {report} is the same file as {report}" in capsys.readouterr().err
    assert _files(tmp_path) == before


def test_report_through_a_symlink_to_the_input_exits_1(tmp_path, capsys):
    src = tmp_path / "in.tsv"
    write_micro_corpus(src)
    link = tmp_path / "link.json"
    link.symlink_to(src)
    before = src.read_bytes()
    out = tmp_path / "out.tsv"
    assert run(["filter", "--in", str(src), "--out", str(out), "--report", str(link)]) == 1
    assert f"--report {link} is the same file as {src}" in capsys.readouterr().err
    assert src.read_bytes() == before and not out.exists()


def _edit_pipeline_paths(tmp_path, stages):
    """make_pipeline_config's config with stage paths set to files in tmp_path."""
    cfg_path, _ = make_pipeline_config(tmp_path)
    cfg = json.loads(cfg_path.read_text())
    for stage, section in stages.items():
        cfg[stage].update({key: str(tmp_path / name) for key, name in section.items()})
    cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
    return cfg_path


@pytest.mark.parametrize("stages, output, other", [
    # filter replaces its own input, and chatprep's data error used to
    # make the cleanup unlink it.
    ({"filter": {"output": "bitext.tsv"}}, "filter.output", "filter.input"),
    # filter replaces the chat file before chatprep reads it.
    ({"filter": {"output": "chat.jsonl"}}, "filter.output", "chatprep.input"),
    # chatprep replaces filter's output (exit 0 before).
    ({"chatprep": {"output": "filtered.tsv"}}, "chatprep.output", "filter.output"),
    ({"denoise": {"output": "prepped.tsv"}}, "denoise.output", "chatprep.output"),
    ({"denoise": {"input": "filtered.tsv"}}, "filter.output", "denoise.input"),
], ids=["filter_in_place", "filter_over_chat", "chatprep_over_filter",
        "denoise_over_chatprep", "filter_over_denoise_input"])
def test_pipeline_path_clash_exits_1_before_reading(tmp_path, capsys, stages, output, other):
    cfg_path = _edit_pipeline_paths(tmp_path, stages)
    # A turn gap: without the check, chatprep would fail after filter wrote.
    with open(tmp_path / "chat.jsonl", "a", encoding="utf-8") as fh:
        fh.write(json.dumps({**CHAT_LINES[2], "turn_index": 5}) + "\n")
    before = _files(tmp_path)
    assert run(["pipeline", str(cfg_path)]) == 1
    err = capsys.readouterr().err
    assert re.search(rf"{output} \S+ is the same file as \S+ \({other}\)", err), err
    assert _files(tmp_path) == before


def test_pipeline_denoise_may_name_chatprep_output_as_input(tmp_path):
    cfg_path = _edit_pipeline_paths(tmp_path, {"denoise": {"input": "prepped.tsv"}})
    assert run(["pipeline", str(cfg_path)]) == 0
    assert (tmp_path / "noised.tsv").exists()


def test_single_stage_may_rewrite_its_input_in_place(tmp_path):
    src = tmp_path / "in.tsv"
    write_micro_corpus(src)
    expected = tmp_path / "expected.tsv"
    assert run(["filter", "--in", str(src), "--out", str(expected)]) == 0
    assert run(["filter", "--in", str(src), "--out", str(src)]) == 0
    assert src.read_bytes() == expected.read_bytes()


@pytest.mark.parametrize("line, message", [
    ("[1, 2]", "line 2: expected a JSON object"),
    ('"text"', "line 2: expected a JSON object"),
    (json.dumps({k: v for k, v in CHAT_LINES[1].items() if k != "speaker"}),
     "line 2: missing field 'speaker'"),
], ids=["array", "string", "missing_speaker"])
def test_chatprep_bad_record_exits_2_in_bitext_reader_words(tmp_path, capsys, line, message):
    chat = tmp_path / "chat.jsonl"
    chat.write_text(f"{json.dumps(CHAT_LINES[0])}\n{line}\n", encoding="utf-8")
    out = tmp_path / "out.tsv"
    assert run(["chatprep", "--in", str(chat), "--out", str(out)]) == 2
    assert f"data error: {message}\n" in capsys.readouterr().err
    assert not out.exists()


_LONG_INT = "1" * 5000  # past int()'s default limit of 4300 digits


@pytest.mark.parametrize("command, lines", [
    ("filter", ['{"source": "a", "target": "b"}',
                '{"source": "a", "target": "b", "n": %s}' % _LONG_INT]),
    ("denoise", ['{"source": "a", "target": "b"}',
                 '{"source": "a", "target": "b", "n": %s}' % _LONG_INT]),
    ("chatprep", [json.dumps(CHAT_LINES[0]),
                  json.dumps(CHAT_LINES[1])[:-1] + ', "n": %s}' % _LONG_INT]),
])
def test_jsonl_overlong_integer_exits_2_with_line(tmp_path, capsys, command, lines):
    src = tmp_path / "in.jsonl"
    src.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    out = tmp_path / "out.jsonl"
    assert run([command, "--in", str(src), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "line 2: invalid JSON: Exceeds the limit" in err
    assert not out.exists()


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
    (tmp_path / "unsplittable.tsv").write_text(UNSPLITTABLE_TSV, encoding="utf-8")
    cfg_path = tmp_path / "pipeline.json"
    cfg = json.loads(cfg_path.read_text())
    cfg["denoise"]["input"] = str(tmp_path / "unsplittable.tsv")
    cfg_path.write_text(json.dumps(cfg), encoding="utf-8")


@pytest.mark.parametrize("break_stage, message", [
    (_break_filter, "data error: line 11: "),
    (_break_chatprep, "data error: line 2: invalid JSON"),
    (_break_denoise, "data error: line 2: empty payload"),
], ids=["filter", "chatprep", "denoise"])
def test_pipeline_failing_stage_changes_no_file(tmp_path, capsys, break_stage, message):
    argv = _pipeline_over_old_outputs(tmp_path)
    break_stage(tmp_path)
    before = _dir_state(tmp_path)
    assert run(argv) == 2
    assert capsys.readouterr().err.startswith(message)
    assert _dir_state(tmp_path) == before


def test_pipeline_checks_denoise_input_before_any_stage_runs(tmp_path, capsys):
    argv = _pipeline_over_old_outputs(tmp_path)
    _break_chatprep(tmp_path)
    missing = tmp_path / "missing.tsv"
    cfg_path = tmp_path / "pipeline.json"
    cfg = json.loads(cfg_path.read_text())
    cfg["denoise"]["input"] = str(missing)
    cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
    before = _dir_state(tmp_path)
    assert run(argv) == 1
    assert capsys.readouterr().err.startswith(f"error: input path does not exist: {missing}\n")
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


def test_pipeline_denoise_reads_chatprep_staged_output_by_its_suffix(tmp_path):
    # denoise has no input and no format, so it infers JSONL from the
    # suffix of chatprep's staged temp.
    cfg_path = _edit_pipeline_paths(tmp_path, {"chatprep": {"output": "p.jsonl"}})
    assert run(["pipeline", str(cfg_path)]) == 0
    alone = tmp_path / "alone.tsv"
    assert run(["denoise", "--in", str(tmp_path / "p.jsonl"), "--out", str(alone), "--seed", "11",
                "--pair-fraction", "0.5", "--token-prob", "0.5"]) == 0
    assert (tmp_path / "noised.tsv").read_bytes() == alone.read_bytes()


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
    defaults = {"filter": {**asdict(FilterConfig()), "fail_mode": "fail_fast"},
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


@pytest.mark.parametrize("command, config_cls, own_flags", [
    ("filter", FilterConfig, ["--in-format", "--out-format", "--fail-mode"]),
    ("chatprep", ContextConfig, ["--out-format"]),
    ("denoise", DenoiseConfig, ["--in-format", "--out-format"]),
], ids=["filter", "chatprep", "denoise"])
def test_stage_flags_are_its_config_fields(command, config_cls, own_flags):
    """A stage's flags are its paths and formats (filter's --fail-mode
    too) and one flag per config field, with the field's default."""
    sub = next(a for a in _build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    actions = {flag: a for a in sub.choices[command]._actions for flag in a.option_strings}
    field_flags = {"--" + f.name.replace("_", "-"): f for f in fields(config_cls)}
    assert sorted(actions) == sorted(["-h", "--help", "--report", "--in", "--out",
                                      *own_flags, *field_flags])
    for flag, f in field_flags.items():
        assert (actions[flag].dest, actions[flag].default) == (f.name, f.default)


def test_python_m_chatmt_prints_its_version_and_every_commands_help():
    src = str(Path(__file__).parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}

    def chatmt(*argv):
        # -B, so that the run writes no bytecode into the checkout.
        return subprocess.run([sys.executable, "-B", "-m", "chatmt", *argv], env=env,
                              capture_output=True, text=True)

    result = chatmt("--version")
    assert (result.returncode, result.stdout) == (0, f"chatmt {__version__}\n")
    for command in ("filter", "chatprep", "denoise", "bsce-select", "pipeline"):
        result = chatmt(command, "--help")
        assert result.returncode == 0, result.stderr
        assert result.stdout.startswith(f"usage: chatmt {command} ")


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
    sub = next(a for a in _build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    flags = {flag for p in sub.choices.values() for action in p._actions
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


@pytest.mark.parametrize("argv", [
    ["filter", "--in", "{dir}", "--out", "{tmp}/o.tsv"],
    ["chatprep", "--in", "{dir}", "--out", "{tmp}/o.tsv"],
    ["denoise", "--in", "{dir}", "--out", "{tmp}/o.tsv"],
    ["bsce-select", "--scores", "{dir}", "--ensemble-size", "1", "--out", "{tmp}/o.json"],
    ["pipeline", "{dir}"],
], ids=lambda argv: argv[0])
def test_input_that_is_a_directory_exits_1(tmp_path, capsys, argv):
    directory = tmp_path / "in.d"
    directory.mkdir()
    assert run([arg.format(dir=directory, tmp=tmp_path) for arg in argv]) == 1
    assert capsys.readouterr().err.startswith(f"error: input path is a directory: {directory}\n")
    assert [p.name for p in tmp_path.iterdir()] == ["in.d"]


@pytest.mark.parametrize("stage", ["filter", "chatprep", "denoise"])
def test_pipeline_stage_input_that_is_a_directory_exits_1_before_any_stage_runs(
        tmp_path, capsys, monkeypatch, stage):
    argv = _pipeline_over_old_outputs(tmp_path)
    directory = tmp_path / "in.d"
    directory.mkdir()
    cfg_path = tmp_path / "pipeline.json"
    cfg = json.loads(cfg_path.read_text())
    cfg[stage]["input"] = str(directory)
    cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
    ran = []
    for runner in ("_run_filter", "_run_chatprep", "_run_denoise"):
        monkeypatch.setattr(cli, runner, lambda *args, runner=runner: ran.append(runner))
    names, before = sorted(p.name for p in tmp_path.iterdir()), _files(tmp_path)
    assert run(argv) == 1
    assert capsys.readouterr().err.startswith(f"error: input path is a directory: {directory}\n")
    assert ran == []
    assert sorted(p.name for p in tmp_path.iterdir()) == names and _files(tmp_path) == before


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
@pytest.mark.parametrize("fifo, argv", [
    ("out.tsv", ["filter", "--in", "{tmp}/bitext.tsv", "--out", "{tmp}/out.tsv"]),
    ("out.tsv", ["chatprep", "--in", "{tmp}/chat.jsonl", "--out", "{tmp}/out.tsv"]),
    ("out.tsv", ["denoise", "--in", "{tmp}/bitext.tsv", "--out", "{tmp}/out.tsv"]),
    ("out.json", ["bsce-select", "--scores", "{tmp}/scores.json", "--ensemble-size", "1",
                  "--out", "{tmp}/out.json"]),
    ("report.json", ["filter", "--in", "{tmp}/bitext.tsv", "--out", "{tmp}/o.tsv",
                     "--report", "{tmp}/report.json"]),
    ("filtered.tsv", ["pipeline", "{tmp}/pipeline.json"]),
    ("prepped.tsv", ["pipeline", "{tmp}/pipeline.json"]),
    ("noised.tsv", ["pipeline", "{tmp}/pipeline.json"]),
    ("report.json", ["pipeline", "{tmp}/pipeline.json", "--report", "{tmp}/report.json"]),
], ids=lambda v: v if isinstance(v, str) else v[0])
def test_output_that_is_a_fifo_exits_1_and_stays_a_fifo(tmp_path, capsys, fifo, argv):
    make_pipeline_config(tmp_path)
    (tmp_path / "scores.json").write_text(json.dumps({
        "models": ["a", "b"], "comet": [0.1, 0.2], "pairwise": [[0, 0.5], [0.5, 0]],
    }), encoding="utf-8")
    fifo = tmp_path / fifo
    os.mkfifo(fifo)
    names = sorted(p.name for p in tmp_path.iterdir())
    assert run([arg.format(tmp=tmp_path) for arg in argv]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: output exists and is not a regular file: {fifo}\n")
    assert fifo.is_fifo()
    assert sorted(p.name for p in tmp_path.iterdir()) == names


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


# A data error would show that the bad input was read.
@pytest.mark.parametrize("target, message", [
    ("missing/new.tsv", "output must be a file in an existing directory"),
    ("link.tsv", "output exists and is not a regular file"),
], ids=["into-a-missing-directory", "loop"])
def test_output_through_a_symlink_it_cannot_write_exits_1_before_reading(
        tmp_path, capsys, target, message):
    bad = tmp_path / "bad.jsonl"
    bad.write_text("not a record\n", encoding="utf-8")
    link = tmp_path / "link.tsv"
    link.symlink_to(target)
    assert run(["filter", "--in", str(bad), "--out", str(link)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {message}: {link}\n")
    assert link.is_symlink() and os.readlink(link) == target
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.jsonl", "link.tsv"]


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
